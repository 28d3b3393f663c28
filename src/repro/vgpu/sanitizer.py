"""Shadow-memory sanitizer for the virtual GPU.

``VirtualGPU(sanitize=True)`` swaps the plain
:class:`~repro.memory.memmodel.MemorySystem` for
:class:`SanitizedMemorySystem`, which layers three check families over
every device access (typed loads/stores *and* the raw paths backing
``memcpy``/``memset``):

* **bounds** — any access into a segment's guard zone (the first 16
  bytes that keep offset 0 null-like) or past its bump pointer is an
  :class:`~repro.vgpu.errors.OutOfBoundsAccess`; device-heap accesses
  must additionally land inside a single live ``malloc`` allocation.
* **use-after-free** — device-heap accesses intersecting a range
  released by ``free`` raise :class:`~repro.vgpu.errors.UseAfterFree`
  (the simulator's bump allocator never reuses space, so freed ranges
  stay poisoned for the whole launch).
* **uninitialized reads** — a per-allocation shadow bitmap marks bytes
  written this launch; a *typed* load of never-written device-heap
  bytes raises :class:`~repro.vgpu.errors.UninitializedRead`.  Raw
  reads (memcpy) are exempt: copying structs with padding is legal.

Checks are scoped to the *device* portion of the launch by
:meth:`SanitizedMemorySystem.begin_launch`, which snapshots the global
bump pointer — host-prepared input arrays live below the snapshot and
only get bounds checks, so clean kernels run unflagged.

The sanitizer never charges simulated cycles: the engines' cost
accounting is untouched, so a sanitized run of a clean kernel produces
a bit-identical :class:`KernelProfile` (pinned by
``tests/vgpu/test_sanitizer.py``).  Diagnostics carry offsets relative
to the owning allocation, never raw tagged pointers, keeping messages
identical across engines.

The barrier-divergence detector (the second sanitizer half) lives in
the team phase loop — see ``VirtualGPU._run_team`` — because barrier
state is an execution-engine concept, not a memory one.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, List, Optional, Union

from repro.ir.types import Type
from repro.memory.addrspace import AddressSpace, pointer_offset
from repro.memory.memmodel import (
    MemorySystem,
    Segment,
    decode_scalar,
    encode_scalar,
    scalar_size,
)
from repro.vgpu.errors import OutOfBoundsAccess, UninitializedRead, UseAfterFree

#: Guard bytes at the bottom of every segment (mirrors ``Segment`` base).
_GUARD = 16


class SanitizedMemorySystem(MemorySystem):
    """Drop-in :class:`MemorySystem` with shadow-memory checking."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Global-segment bump pointer at launch time; device-heap
        #: tracking applies only at or above this offset.
        self._launch_base: Optional[int] = None
        self._live: Dict[int, int] = {}      # offset -> size of live mallocs
        self._live_starts: List[int] = []    # sorted keys of _live
        self._freed: Dict[int, int] = {}     # offset -> size of freed mallocs
        self._shadow: Dict[int, bytearray] = {}  # offset -> written-byte flags

    def begin_launch(self) -> None:
        """Scope device-heap tracking to the upcoming launch."""
        self._launch_base = self.global_seg.brk
        self._live.clear()
        self._live_starts.clear()
        self._freed.clear()
        self._shadow.clear()

    # ---------------------------------------------------------- allocation --

    def malloc(self, size: int) -> int:
        ptr = self.global_seg.allocate(max(1, size))
        if self._launch_base is not None:
            offset = pointer_offset(ptr)
            span = max(1, size)
            self._live[offset] = span
            insort(self._live_starts, offset)
            self._shadow[offset] = bytearray(span)
        return ptr

    def free(self, ptr: int) -> None:
        offset = pointer_offset(ptr)
        size = self._live.pop(offset, None)
        if size is not None:
            self._live_starts.remove(offset)
            self._freed[offset] = size
            self._shadow.pop(offset, None)
        self.global_seg.free(ptr)

    # -------------------------------------------------------------- checks --

    def _check(self, seg: Segment, offset: int, size: int,
               write: bool, typed_read: bool) -> None:
        space = seg.space.short_name
        if offset < _GUARD:
            raise OutOfBoundsAccess(
                f"{'write' if write else 'read'} of {size}B in the {space} "
                f"segment guard zone (offset {offset} < {_GUARD})")
        if offset + size > seg.brk:
            raise OutOfBoundsAccess(
                f"{'write' if write else 'read'} of {size}B past the end of "
                f"allocated {space} memory "
                f"(offset {offset - seg.brk} beyond the bump pointer)")
        if seg is not self.global_seg:
            return
        base = self._launch_base
        if base is None or offset < base:
            return  # host-prepared data: bounds checks only
        # Device heap: the access must sit inside one live allocation.
        end = offset + size
        for foff, fsize in self._freed.items():
            if offset < foff + fsize and foff < end:
                raise UseAfterFree(
                    f"{'write' if write else 'read'} of {size}B at offset "
                    f"{offset - foff} into a freed {fsize}B device allocation")
        i = bisect_right(self._live_starts, offset) - 1
        if i < 0:
            raise OutOfBoundsAccess(
                f"{'write' if write else 'read'} of {size}B outside any "
                f"live device allocation")
        aoff = self._live_starts[i]
        asize = self._live[aoff]
        if end > aoff + asize:
            raise OutOfBoundsAccess(
                f"{'write' if write else 'read'} of {size}B at offset "
                f"{offset - aoff} overruns a {asize}B device allocation")
        shadow = self._shadow.get(aoff)
        if shadow is None:
            return
        rel = offset - aoff
        if write:
            shadow[rel:rel + size] = b"\x01" * size
        elif typed_read and 0 in shadow[rel:rel + size]:
            raise UninitializedRead(
                f"read of {size}B at offset {rel} into a {asize}B device "
                f"allocation whose bytes were never written this launch")

    # ------------------------------------------------------- typed access --

    def load(self, ptr: int, ty: Type, team: int = 0,
             thread: int = 0) -> Union[int, float]:
        seg, offset = self._resolve(ptr, team, thread)
        size = scalar_size(ty)
        self._check(seg, offset, size, write=False, typed_read=True)
        return decode_scalar(seg.read_bytes(offset, size), ty)

    def store(self, ptr: int, value: Union[int, float], ty: Type,
              team: int = 0, thread: int = 0) -> None:
        seg, offset = self._resolve(ptr, team, thread)
        payload = encode_scalar(value, ty)
        self._check(seg, offset, len(payload), write=True, typed_read=False)
        seg.write_bytes(offset, payload)

    # --------------------------------------------------------- raw access --

    def read_raw(self, ptr: int, size: int, team: int = 0,
                 thread: int = 0) -> bytes:
        seg, offset = self._resolve(ptr, team, thread)
        self._check(seg, offset, size, write=False, typed_read=False)
        return seg.read_bytes(offset, size)

    def write_raw(self, ptr: int, payload: bytes, team: int = 0,
                  thread: int = 0) -> None:
        seg, offset = self._resolve(ptr, team, thread)
        self._check(seg, offset, len(payload), write=True, typed_read=False)
        seg.write_bytes(offset, payload)

    def memset(self, ptr: int, byte: int, size: int, team: int = 0,
               thread: int = 0) -> None:
        seg, offset = self._resolve(ptr, team, thread)
        self._check(seg, offset, size, write=True, typed_read=False)
        seg.write_bytes(offset, bytes([byte & 0xFF]) * size)

    # ``memcpy`` inherits: it routes through read_raw/write_raw above.
