"""Warm-device pooling for the simulation service.

Building a :class:`~repro.vgpu.VirtualGPU` is the expensive part of a
request: module load materializes globals, and the first launch decodes
every kernel into micro-op arrays.  The pool keeps finished devices
warm — :meth:`repro.vgpu.VirtualGPU.reset_device` rewinds the memory
image to its post-load state while the per-device decode bindings
survive — so repeat requests against the same module skip both costs.

Sanitized devices are never pooled: the shadow-memory state is
launch-scoped and cheaper to rebuild than to audit, so
``sanitize=True`` requests always get a fresh device.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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
        return {"builds": self.builds, "reuses": self.reuses,
                "discards": self.discards, "in_use": self.in_use}


def _pool_key(module, config) -> Tuple:
    # Modules and configs are compared by identity: the serve layer
    # compiles through the content-addressed cache, so equal requests
    # share one module object.  A None config means "the default" and
    # must key identically however often it is defaulted.
    return (id(module), id(config) if config is not None else 0)


@dataclass
class DevicePool:
    """Pool of warm, reset :class:`VirtualGPU` devices, at most one idle
    device per key.

    ``acquire`` returns a device exclusively to the caller; ``release``
    resets it and keeps it for reuse, or discards it when its key's
    slot is already taken.  The service runs one request at a time, so
    it never holds two devices of one key.  The lock guards the slots
    and counters, which ``SimulationService.health()`` reads from
    client threads.
    """

    stats: PoolStats = field(default_factory=PoolStats)
    _idle: Dict[Tuple, VirtualGPU] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def acquire(
        self,
        module,
        config: Optional[GPUConfig] = None,
        *,
        sanitize: bool = False,
    ) -> VirtualGPU:
        """A warm (or freshly built) device for *module*.

        The returned device has the default engine and no fault plan —
        per-request overrides travel in the :class:`~repro.vgpu.
        LaunchSpec` instead, which is what makes one warm device
        reusable across tenants with different knobs.
        """
        if not sanitize:
            key = _pool_key(module, config)
            with self._lock:
                gpu = self._idle.pop(key, None)
                if gpu is not None:
                    self.stats.reuses += 1
                    self.stats.in_use += 1
                    return gpu
        with self._lock:
            self.stats.builds += 1
            self.stats.in_use += 1
        return VirtualGPU(module, config=config or DEFAULT_CONFIG,
                          sanitize=sanitize)

    def release(self, gpu: VirtualGPU, module, config) -> None:
        """Reset *gpu* and keep it for reuse (discard when not
        resettable or its key's slot is taken)."""
        try:
            keep = gpu.resettable
            if keep:
                gpu.reset_device()
        except Exception:
            keep = False
        key = _pool_key(module, config)
        with self._lock:
            self.stats.in_use -= 1
            if keep and key not in self._idle:
                self._idle[key] = gpu
            else:
                self.stats.discards += 1

    def discard(self, gpu: VirtualGPU) -> None:
        """Drop *gpu* without reuse (e.g. after an internal engine fault)."""
        with self._lock:
            self.stats.discards += 1
            self.stats.in_use -= 1

    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    def clear(self) -> None:
        with self._lock:
            self._idle.clear()
