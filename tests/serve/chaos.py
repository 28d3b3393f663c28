"""Failure injection for the serve resilience drills.

:class:`Chaos` makes one :class:`~repro.serve.SimulationService`
misbehave by patching it from outside, so the service itself carries
no injection hook.  The ``chaos`` fixture in ``conftest.py`` builds one
with pytest's ``monkeypatch``, which undoes every patch after the test.

* ``worker_die=K`` — the first *K* launch attempts die with
  :class:`InjectedWorkerDeath`, on the pooled launch and on the per-op
  fallback run alike.  It wraps ``VirtualGPU.run``, the one call both
  attempts make after ``stats.attempts`` has counted them; a pooled
  device that dies is discarded like after any internal fault.
* ``compile_stall_ms=T`` — every compile of a table miss sleeps *T*
  ms first (wraps the service's ``_compile``).
* ``slow_request_ms=T`` — every request sleeps *T* ms in the worker
  right after its queue-stage deadline check (wraps the pool's
  ``entry``, which ``module_entry`` also goes through).
"""

from __future__ import annotations

import time

from repro.vgpu import VirtualGPU


class InjectedWorkerDeath(RuntimeError):
    """A launch attempt killed by ``worker_die``.

    Deliberately not a :class:`~repro.vgpu.errors.SimulationError`: a
    worker death is an internal service failure, so it must take the
    fallback run and the circuit breaker, never the program-fault
    (CrashReport) path.
    """


class Chaos:
    """The injected failures of one service, and how often each fired."""

    def __init__(self, svc, monkeypatch, *, worker_die: int = 0,
                 compile_stall_ms: float = 0, slow_request_ms: float = 0) -> None:
        self.die_budget = worker_die
        self.deaths = 0
        self.stalls = 0
        self.slowed = 0
        if worker_die:
            monkeypatch.setattr(VirtualGPU, "run", self._dying(VirtualGPU.run))
        if compile_stall_ms:
            monkeypatch.setattr(svc, "_compile", self._stalling(
                svc._compile, compile_stall_ms / 1000.0))
        if slow_request_ms:
            monkeypatch.setattr(svc.pool, "entry", self._slowing(
                svc.pool.entry, slow_request_ms / 1000.0))

    def _dying(self, run):
        def dying_run(gpu, spec):
            if self.deaths < self.die_budget:
                self.deaths += 1
                raise InjectedWorkerDeath(f"injected worker death #{self.deaths}")
            return run(gpu, spec)
        return dying_run

    def _stalling(self, compile_, seconds: float):
        def stalled_compile(program, options):
            self.stalls += 1
            time.sleep(seconds)
            return compile_(program, options)
        return stalled_compile

    def _slowing(self, entry, seconds: float):
        def slow_entry(key, load):
            self.slowed += 1
            time.sleep(seconds)
            return entry(key, load)
        return slow_entry
