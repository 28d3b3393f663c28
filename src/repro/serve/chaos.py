"""Service-level chaos injection for :class:`~repro.serve.SimulationService`.

The device already has deterministic fault injection
(:mod:`repro.faults`); this module is the *host-side* complement: it
consumes the service-level sites of the ``REPRO_FAULTS`` grammar
(``worker_die:n``, ``compile_stall:ms``, ``slow_request:ms``) and
misbehaves inside the service worker so the resilience machinery —
fallback run, circuit breakers, deadlines, admission back-pressure —
can be exercised and asserted on (``python -m repro.bench chaos``).

This module is **only imported when a service is constructed with a
chaos plan**: a default service never pays the import, pinned by the
disabled-path guard in ``tests/serve/test_chaos.py``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence

from repro.faults.plan import (
    SITE_COMPILE_STALL,
    SITE_SLOW_REQUEST,
    SITE_WORKER_DIE,
    FaultPlan,
    FaultSite,
)


class InjectedWorkerDeath(RuntimeError):
    """A service worker killed by an active ``worker_die`` chaos site.

    Deliberately *not* a :class:`~repro.vgpu.errors.SimulationError`:
    worker death is an internal service failure, so it must flow
    through the fallback run and circuit breaker, never through the
    program-fault (CrashReport) path.
    """

    def __init__(self, attempt_no: int) -> None:
        super().__init__(
            f"injected worker death (chaos attempt #{attempt_no})")
        self.attempt_no = attempt_no


class ChaosState:
    """Mutable, thread-safe firing state for one service's chaos plan.

    Built from the service-level sites of a :class:`FaultPlan`; the
    service calls the three hooks below from its worker paths, each
    behind a single ``self._chaos is not None`` check so a chaos-free
    service never branches into this module.
    """

    def __init__(self, sites: Sequence[FaultSite]) -> None:
        self._lock = threading.Lock()
        self.die_budget = 0
        self.stall_s = 0.0
        self.slow_s = 0.0
        for site in sites:
            if site.kind == SITE_WORKER_DIE:
                self.die_budget = site.n
            elif site.kind == SITE_COMPILE_STALL:
                self.stall_s = (site.ms or 0) / 1000.0
            elif site.kind == SITE_SLOW_REQUEST:
                self.slow_s = (site.ms or 0) / 1000.0
            else:
                raise ValueError(
                    f"chaos plan cannot carry device site {site.kind!r}; "
                    "pass device sites via LaunchSpec.faults")
        #: Firing counters for reports/health.
        self.deaths = 0
        self.stalls = 0
        self.slowed = 0
        self._attempts = 0

    @classmethod
    def from_plan(cls, plan: FaultPlan) -> "ChaosState":
        return cls(plan.service_sites() + plan.device_sites())

    # -------------------------------------------------------------- hooks --

    def on_attempt(self) -> None:
        """Fired once per launch attempt, before any device work.

        The first ``worker_die:n`` attempts die with
        :class:`InjectedWorkerDeath`.
        """
        with self._lock:
            self._attempts += 1
            attempt_no = self._attempts
            if self.deaths >= self.die_budget:
                return
            self.deaths += 1
        raise InjectedWorkerDeath(attempt_no)

    def on_compile(self) -> None:
        """Fired inside each *actual* (memo-missing) shared compile."""
        if self.stall_s <= 0:
            return
        with self._lock:
            self.stalls += 1
        time.sleep(self.stall_s)

    def on_request(self) -> None:
        """Fired once per request execution, before the attempt loop."""
        if self.slow_s <= 0:
            return
        with self._lock:
            self.slowed += 1
        time.sleep(self.slow_s)

    # -------------------------------------------------------------- query --

    def to_dict(self) -> Dict[str, float]:
        with self._lock:
            return {
                "die_budget": self.die_budget,
                "deaths": self.deaths,
                "stall_ms": round(self.stall_s * 1000.0, 3),
                "stalls": self.stalls,
                "slow_ms": round(self.slow_s * 1000.0, 3),
                "slowed": self.slowed,
            }


def resolve_chaos(chaos) -> Optional[ChaosState]:
    """Parse/convert a chaos argument into a :class:`ChaosState`.

    Accepts ``None`` (no chaos), a ``REPRO_FAULTS``-grammar string with
    service sites, a :class:`FaultPlan`, or a ready
    :class:`ChaosState`.  A plan with *only* device sites is an error:
    those belong on the :class:`~repro.vgpu.LaunchSpec`.
    """
    if chaos is None:
        return None
    if isinstance(chaos, ChaosState):
        return chaos
    plan = FaultPlan.parse(chaos) if isinstance(chaos, str) else chaos
    if plan is None:
        return None
    if not plan.has_service_sites:
        raise ValueError(
            "chaos plan has no service-level sites "
            "(worker_die/compile_stall/slow_request); pass device sites "
            "via LaunchSpec.faults")
    return ChaosState.from_plan(plan)
