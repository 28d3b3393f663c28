"""Simulated byte-addressable memory.

The virtual GPU owns one :class:`Segment` per address space instance:
a single global segment, a single constant segment, one shared segment
*per team* and one local segment *per thread* — mirroring the hardware
visibility rules in the paper's Fig. 2.  Pointers are 64-bit integers
tagged with their address space (see :mod:`repro.memory.addrspace`);
the same shared-space pointer value resolves to different storage in
different teams, exactly like a real GPU shared-memory address.
"""

from __future__ import annotations

import math
import mmap
import struct
from typing import Dict, Optional, Tuple, Union

from repro.memory.addrspace import (
    ADDRSPACE_SHIFT,
    AddressSpace,
    make_pointer,
    pointer_offset,
    pointer_space,
)
from repro.ir.types import FloatType, IntType, PointerType, Type


class MemoryError_(Exception):
    """Out-of-bounds or otherwise invalid simulated memory access."""


def _align_to(offset: int, align: int) -> int:
    return (offset + align - 1) & ~(align - 1)


class Segment:
    """One zero-initialized, bump-allocated region of simulated memory."""

    def __init__(self, space: AddressSpace, size: int, base: int = 16) -> None:
        self.space = space
        # An anonymous mapping, not a bytearray: zero-filled pages are
        # only committed when touched and go back to the OS when the
        # segment dies.  A bytearray this large would sit in the malloc
        # heap, where any long-lived object allocated above it keeps it
        # resident after free, making peak RSS depend on allocation order.
        self.data = mmap.mmap(-1, size)
        #: Next free offset.  Starts past a small guard so offset 0 stays
        #: an invalid (null-like) address.
        self.brk = base
        self.high_water = base
        self.allocations: Dict[int, int] = {}

    @property
    def size(self) -> int:
        return len(self.data)

    def allocate(self, size: int, align: int = 8) -> int:
        """Bump-allocate *size* bytes; returns a tagged pointer."""
        offset = _align_to(self.brk, max(1, align))
        if offset + size > len(self.data):
            raise MemoryError_(
                f"{self.space.short_name} segment exhausted: "
                f"need {size}B at {offset:#x}, capacity {len(self.data):#x}"
            )
        self.brk = offset + size
        self.high_water = max(self.high_water, self.brk)
        self.allocations[offset] = size
        return make_pointer(self.space, offset)

    def free(self, ptr: int) -> None:
        """Release an allocation (bookkeeping only; space is not reused)."""
        offset = pointer_offset(ptr)
        self.allocations.pop(offset, None)

    def check_range(self, offset: int, size: int) -> None:
        if offset < 0 or offset + size > len(self.data):
            raise MemoryError_(
                f"access [{offset:#x}, {offset + size:#x}) out of bounds of "
                f"{self.space.short_name} segment ({len(self.data):#x}B)"
            )

    def read_bytes(self, offset: int, size: int) -> bytes:
        self.check_range(offset, size)
        return bytes(self.data[offset : offset + size])

    def write_bytes(self, offset: int, payload: bytes) -> None:
        self.check_range(offset, len(payload))
        self.data[offset : offset + len(payload)] = payload


_FLOAT_FMT = {32: "<f", 64: "<d"}
_F32 = struct.Struct("<f")


def pack_f32_into(buf, offset: int, value: float) -> None:
    """Write *value* as an IEEE binary32 at *offset* of *buf*: rounded
    to nearest, and to +-inf beyond the f32 range (``struct`` raises
    there instead)."""
    try:
        _F32.pack_into(buf, offset, value)
    except OverflowError:
        _F32.pack_into(buf, offset, math.copysign(math.inf, value))


def encode_scalar(value: Union[int, float], ty: Type) -> bytes:
    """Encode a register value into its in-memory representation."""
    if isinstance(ty, IntType):
        size = max(1, ty.bits // 8)
        return int(ty.wrap(int(value))).to_bytes(size, "little")
    if isinstance(ty, FloatType):
        if ty.bits == 32:
            buf = bytearray(4)
            pack_f32_into(buf, 0, float(value))
            return bytes(buf)
        return struct.pack(_FLOAT_FMT[ty.bits], float(value))
    if isinstance(ty, PointerType):
        return int(value).to_bytes(8, "little")
    raise TypeError(f"cannot encode type {ty}")


def decode_scalar(payload: bytes, ty: Type) -> Union[int, float]:
    """Decode bytes into a register value for type *ty*."""
    if isinstance(ty, IntType):
        return int.from_bytes(payload, "little")
    if isinstance(ty, FloatType):
        return struct.unpack(_FLOAT_FMT[ty.bits], payload)[0]
    if isinstance(ty, PointerType):
        return int.from_bytes(payload, "little")
    raise TypeError(f"cannot decode type {ty}")


def scalar_size(ty: Type) -> int:
    if isinstance(ty, IntType):
        return max(1, ty.bits // 8)
    if isinstance(ty, FloatType):
        return ty.bits // 8
    if isinstance(ty, PointerType):
        return 8
    raise TypeError(f"not a scalar type: {ty}")


class MemorySystem:
    """Routes tagged pointers to the correct segment for a (team, thread).

    The generic space is a window over the others: generic pointers are
    produced only by casts in this IR and carry the original tag, so in
    practice every pointer self-identifies its segment.
    """

    def __init__(
        self,
        global_size: int = 1 << 24,
        constant_size: int = 1 << 20,
        shared_size: int = 1 << 16,
        local_size: int = 1 << 16,
    ) -> None:
        self.global_seg = Segment(AddressSpace.GLOBAL, global_size)
        self.constant_seg = Segment(AddressSpace.CONSTANT, constant_size)
        self._shared_size = shared_size
        self._local_size = local_size
        self.shared_segs: Dict[int, Segment] = {}
        self.local_segs: Dict[Tuple[int, int], Segment] = {}
        #: Shared-segment layout template: offsets reserved for shared
        #: globals are identical across teams, so we allocate layout once
        #: and instantiate per team.
        self.shared_brk_template = 16
        #: One reusable zero image for shared-segment resets; all shared
        #: segments are the same size, so launches zero in place instead
        #: of allocating a fresh ``bytes`` per team.
        self._shared_zeros = bytes(shared_size)
        #: Post-load device image captured by :meth:`snapshot_device_image`
        #: (segment -> (brk, high_water, data-prefix, allocations)).
        self._device_image: Optional[Dict[str, Tuple[int, int, bytes, Dict[int, int]]]] = None
        #: Cached zero buffers for in-place segment restores, keyed by
        #: tail length (avoids a fresh multi-MB ``bytes`` per reset).
        self._zero_tails: Dict[int, bytes] = {}

    # -- warm-reset support -------------------------------------------------------

    def snapshot_device_image(self) -> None:
        """Capture the global/constant segment state as the reset image.

        Called once after module load (globals materialized, environment
        applied): :meth:`reset_device_image` rewinds to exactly this
        point, which is what makes a warm device reusable across
        requests without re-running module load.
        """
        self._device_image = {
            "global": self._snapshot_segment(self.global_seg),
            "constant": self._snapshot_segment(self.constant_seg),
        }

    @staticmethod
    def _snapshot_segment(seg: Segment) -> Tuple[int, int, bytes, Dict[int, int]]:
        return (seg.brk, seg.high_water, bytes(seg.data[: seg.brk]),
                dict(seg.allocations))

    def _restore_segment(
        self, seg: Segment, snap: Tuple[int, int, bytes, Dict[int, int]]
    ) -> None:
        brk, high_water, prefix, allocations = snap
        seg.data[:brk] = prefix
        tail = len(seg.data) - brk
        if tail:
            zeros = self._zero_tails.get(tail)
            if zeros is None:
                zeros = self._zero_tails.setdefault(tail, bytes(tail))
            seg.data[brk:] = zeros
        seg.brk = brk
        seg.high_water = high_water
        seg.allocations = dict(allocations)

    def reset_device_image(self) -> None:
        """Restore the image captured by :meth:`snapshot_device_image`.

        Global and constant segments rewind byte-for-byte (discarding
        host ``alloc_array`` data, device mallocs and kernel-visible
        global mutations); shared and local segments are dropped and
        recreated lazily on the next launch.
        """
        if self._device_image is None:
            raise MemoryError_(
                "no device image captured; snapshot_device_image() first"
            )
        self._restore_segment(self.global_seg, self._device_image["global"])
        self._restore_segment(self.constant_seg, self._device_image["constant"])
        self.shared_segs.clear()
        self.local_segs.clear()

    # -- segment management -----------------------------------------------------

    def shared_segment(self, team: int) -> Segment:
        seg = self.shared_segs.get(team)
        if seg is None:
            seg = Segment(AddressSpace.SHARED, self._shared_size)
            seg.brk = self.shared_brk_template
            seg.high_water = seg.brk
            self.shared_segs[team] = seg
        return seg

    def reset_shared_segment(self, team: int) -> Segment:
        """(Re)initialize *team*'s shared segment for a launch: zero the
        backing store in place (no per-team ``bytes`` allocation) and
        rewind the bump pointer to the static-layout template."""
        seg = self.shared_segment(team)
        seg.data[:] = self._shared_zeros
        seg.brk = self.shared_brk_template
        seg.high_water = seg.brk
        seg.allocations.clear()
        return seg

    def local_segment(self, team: int, thread: int) -> Segment:
        key = (team, thread)
        seg = self.local_segs.get(key)
        if seg is None:
            seg = Segment(AddressSpace.LOCAL, self._local_size)
            self.local_segs[key] = seg
        return seg

    def reserve_shared_layout(self, size: int, align: int = 8) -> int:
        """Reserve space in every team's shared segment (static shared
        globals).  Returns the tagged pointer valid in any team."""
        offset = _align_to(self.shared_brk_template, max(1, align))
        if offset + size > self._shared_size:
            raise MemoryError_("static shared memory exhausted")
        self.shared_brk_template = offset + size
        for seg in self.shared_segs.values():
            seg.brk = max(seg.brk, self.shared_brk_template)
        return make_pointer(AddressSpace.SHARED, offset)

    def _resolve(self, ptr: int, team: int, thread: int) -> Tuple[Segment, int]:
        try:
            space = pointer_space(ptr)
        except ValueError:  # a tag (2, negative, or too large) no space has
            raise MemoryError_(
                f"pointer {ptr:#x} has tag {ptr >> ADDRSPACE_SHIFT}, "
                f"which names no address space"
            ) from None
        offset = pointer_offset(ptr)
        if offset == 0:
            raise MemoryError_(f"null {space.short_name} pointer dereference")
        if space is AddressSpace.GLOBAL or space is AddressSpace.GENERIC:
            return self.global_seg, offset
        if space is AddressSpace.CONSTANT:
            return self.constant_seg, offset
        if space is AddressSpace.SHARED:
            return self.shared_segment(team), offset
        return self.local_segment(team, thread), offset

    # -- typed access ---------------------------------------------------------------

    def load(self, ptr: int, ty: Type, team: int = 0, thread: int = 0) -> Union[int, float]:
        seg, offset = self._resolve(ptr, team, thread)
        size = scalar_size(ty)
        return decode_scalar(seg.read_bytes(offset, size), ty)

    def store(
        self, ptr: int, value: Union[int, float], ty: Type, team: int = 0, thread: int = 0
    ) -> None:
        seg, offset = self._resolve(ptr, team, thread)
        seg.write_bytes(offset, encode_scalar(value, ty))

    def read_raw(self, ptr: int, size: int, team: int = 0, thread: int = 0) -> bytes:
        seg, offset = self._resolve(ptr, team, thread)
        return seg.read_bytes(offset, size)

    def write_raw(self, ptr: int, payload: bytes, team: int = 0, thread: int = 0) -> None:
        seg, offset = self._resolve(ptr, team, thread)
        seg.write_bytes(offset, payload)

    def memset(self, ptr: int, byte: int, size: int, team: int = 0, thread: int = 0) -> None:
        seg, offset = self._resolve(ptr, team, thread)
        seg.write_bytes(offset, bytes([byte & 0xFF]) * size)

    def memcpy(self, dst: int, src: int, size: int, team: int = 0, thread: int = 0) -> None:
        payload = self.read_raw(src, size, team, thread)
        self.write_raw(dst, payload, team, thread)

    # -- allocation -------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        return self.global_seg.allocate(max(1, size))

    def free(self, ptr: int) -> None:
        self.global_seg.free(ptr)
