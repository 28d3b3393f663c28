"""The serve layer's one table of per-program state.

:class:`DevicePool` is an LRU keyed by the request key: the compile
fingerprint, or ``module:<id>`` for a submitted module.  A
:class:`ProgramEntry` row holds the program (its ``CompiledProgram``,
the compile cache's own frozen entry rather than a copy, or the
submitted ``Module``, so a ``module:<id>`` key cannot pass to a later
module at a recycled address), its circuit breaker and at most one
idle warm device.  At most ``REPRO_CACHE_SIZE`` rows (default 128)
are kept; a full table evicts the least recently used program with
everything it holds.

A warm device skips module load and kernel decode, the expensive part
of a request: :meth:`repro.vgpu.VirtualGPU.reset_device` rewinds the
memory image to its post-load state while the decode bindings survive.
Sanitized devices are never pooled: the shadow-memory state is
launch-scoped and cheaper to rebuild than to audit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional

from repro import envconfig
from repro.ir import Module
from repro.vgpu import DEFAULT_CONFIG, GPUConfig, VirtualGPU


@dataclass
class PoolStats:
    """Build/reuse accounting for one :class:`DevicePool`."""

    builds: int = 0
    reuses: int = 0
    discards: int = 0
    #: Devices currently checked out (acquired, not yet released or
    #: discarded) — a liveness gauge for ``SimulationService.health()``.
    in_use: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class ProgramEntry:
    """One program's row.  ``compiled`` is None for a submitted module;
    the service sets ``breaker`` on first use."""

    __slots__ = ("key", "module", "compiled", "breaker", "idle")

    def __init__(self, key: str, program: Any) -> None:
        self.key = key
        self.compiled = None if isinstance(program, Module) else program
        self.module = program if self.compiled is None else program.module
        self.breaker = None
        self.idle: Optional[VirtualGPU] = None


class DevicePool:
    """The program table, with warm :class:`VirtualGPU` devices.

    ``acquire`` hands a device to one caller; ``release`` resets it and
    keeps it in its row, or discards it when the slot is taken or the
    row was evicted.  A pool serves one ``GPUConfig``.  The lock guards
    the table and the counters, which ``SimulationService.health()``
    reads from client threads.
    """

    def __init__(self) -> None:
        self.capacity = max(1, envconfig.cache_size())
        self.stats = PoolStats()
        self._table: "OrderedDict[str, ProgramEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def entry(self, key: str, load: Callable[[], Any]) -> ProgramEntry:
        """The row for *key*, now the most recently used.  On a miss
        ``load()`` supplies the program, outside the lock, and the
        least recently used row is evicted if the table is full."""
        with self._lock:
            row = self._table.get(key)
            if row is not None:
                self._table.move_to_end(key)
                return row
        row = ProgramEntry(key, load())
        with self._lock:
            self._table[key] = row
            if len(self._table) > self.capacity:
                self._table.popitem(last=False)
        return row

    def module_entry(self, module: Module) -> ProgramEntry:
        """The ``module:<id>`` row of a submitted module."""
        return self.entry(f"module:{id(module):x}", lambda: module)

    def acquire(self, row: ProgramEntry,
                config: Optional[GPUConfig] = None, *,
                sanitize: bool = False) -> VirtualGPU:
        """A warm (or freshly built) device for *row*, a row from
        :meth:`entry` or :meth:`module_entry`.

        The returned device has the default engine and no fault plan —
        per-request overrides travel in the :class:`~repro.vgpu.
        LaunchSpec` instead, which is what makes one warm device
        reusable across tenants with different knobs.
        """
        with self._lock:
            self.stats.in_use += 1
            if not sanitize and row.idle is not None:
                gpu, row.idle = row.idle, None
                self.stats.reuses += 1
                return gpu
            self.stats.builds += 1
        return VirtualGPU(row.module, config=config or DEFAULT_CONFIG,
                          sanitize=sanitize)

    def release(self, gpu: VirtualGPU, row: ProgramEntry) -> None:
        """Reset *gpu* and keep it in *row*."""
        try:
            keep = gpu.resettable
            if keep:
                gpu.reset_device()
        except Exception:
            keep = False
        with self._lock:
            self.stats.in_use -= 1
            if keep and row.idle is None and self._table.get(row.key) is row:
                row.idle = gpu
            else:
                self.stats.discards += 1

    def discard(self, gpu: VirtualGPU) -> None:
        """Drop *gpu* without reuse (e.g. after an internal engine fault)."""
        with self._lock:
            self.stats.discards += 1
            self.stats.in_use -= 1

    def idle_count(self) -> int:
        with self._lock:
            return sum(row.idle is not None for row in self._table.values())

    def breakers(self) -> Dict[str, dict]:
        """Every row's circuit breaker state, by key."""
        with self._lock:
            return {key: row.breaker.to_dict()
                    for key, row in self._table.items()
                    if row.breaker is not None}
