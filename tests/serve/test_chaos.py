"""The resilience drills: scripted failure scenarios against the service.

The failures come from :mod:`tests.serve.chaos`, which patches one
service from outside (the ``chaos`` fixture): launch attempts that die,
compiles that stall and requests that run slow.  :class:`TestDrills`
runs seven scenarios against dedicated services and asserts the
invariants the serving layer promises.  Every drill checks the same
accounting: no request is lost (each resolves, with a result or an
error), every failure is structured, and ``submitted`` equals the sum
of the terminal counters.
"""

import threading
import time
from collections import Counter
from concurrent.futures import TimeoutError as FutureTimeout
from typing import NamedTuple

import pytest

from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions
from repro.ir import Module, verify_module
from repro.ir.types import I64
from repro.serve import (
    AdmissionRejected,
    BreakerPolicy,
    CircuitOpen,
    DeadlineExceeded,
    LaunchSpec,
    RequestCancelled,
    ServeError,
    ServiceClosed,
    SimulationService,
)
from repro.vgpu import VirtualGPU
from repro.vgpu.errors import SimulationError
from tests.conftest import make_kernel
from tests.serve.chaos import Chaos, InjectedWorkerDeath

pytestmark = [pytest.mark.serve, pytest.mark.chaos]


def _noop_module():
    module = Module("m")
    _, b = make_kernel(module, params=())
    b.ret()
    verify_module(module)
    return module


class TestChaosState:
    """The injector itself: its budgets, its counters and its patches."""

    def test_die_budget_fires_exactly_n_times(self, chaos):
        with SimulationService() as svc:
            injected = chaos(svc, worker_die=2)
            module = _noop_module()
            # The first request dies on its launch and on its fallback.
            with pytest.raises(InjectedWorkerDeath):
                svc.run(LaunchSpec(kernel="kern"), module=module)
            # Budget spent: later attempts survive.
            for _ in range(2):
                assert svc.run(LaunchSpec(kernel="kern"), module=module).ok
            stats = svc.stats.to_dict()
        assert injected.deaths == 2
        assert stats["attempts"] == 4 and stats["internal_errors"] == 1

    def test_death_is_not_a_simulation_error(self, chaos):
        # Worker death must take the internal-failure path (retry,
        # breaker), never the program-fault (CrashReport) path.
        assert not issubclass(InjectedWorkerDeath, SimulationError)
        with SimulationService() as svc:
            chaos(svc, worker_die=1)
            with pytest.raises(InjectedWorkerDeath, match="death #1"):
                VirtualGPU(_noop_module()).run(LaunchSpec(kernel="kern"))

    def test_stall_and_slow_sleep_and_count(self, chaos):
        with SimulationService() as svc:
            injected = chaos(svc, compile_stall_ms=1, slow_request_ms=1)
            program = _program("counts")
            for i in range(2):
                assert _settle(_submit(svc, program, f"cnt-{i}")).kind == "ok"
            # A submitted module goes through the slowed entry too.
            assert svc.run(LaunchSpec(kernel="kern"),
                           module=_noop_module()).ok
        assert injected.stalls == 1  # the second request hits the table
        assert injected.slowed == 3
        assert injected.deaths == 0

    def test_dying_attempt_discards_its_pooled_device(self, chaos):
        with SimulationService() as svc:
            chaos(svc, worker_die=1)
            module = _noop_module()
            result = svc.run(LaunchSpec(kernel="kern"), module=module)
            assert result.ok and result.retried
            # The fallback ran on a fresh device; the pooled one is gone.
            assert svc.pool.stats.to_dict() == {
                "builds": 1, "reuses": 0, "discards": 1, "in_use": 0}
            assert svc.pool.idle_count() == 0
            assert svc.run(LaunchSpec(kernel="kern"), module=module).ok
            assert svc.pool.stats.builds == 2

    def test_zero_budgets_patch_nothing(self, chaos):
        run = VirtualGPU.run
        with SimulationService() as svc:
            chaos(svc)
            assert VirtualGPU.run is run
            assert "_compile" not in vars(svc)
            assert "entry" not in vars(svc.pool)

    def test_patches_are_undone(self):
        run = VirtualGPU.run
        with SimulationService() as svc:
            with pytest.MonkeyPatch.context() as mp:
                injected = Chaos(svc, mp, worker_die=1, compile_stall_ms=1,
                                 slow_request_ms=1)
                assert VirtualGPU.run is not run
            assert VirtualGPU.run is run
            assert svc._compile.__func__ is SimulationService._compile
            assert svc.pool.entry.__func__ is type(svc.pool).entry
            assert svc.run(LaunchSpec(kernel="kern"),
                           module=_noop_module()).ok
        assert (injected.deaths, injected.stalls, injected.slowed) == (0, 0, 0)


class TestServiceIntegration:
    def test_worker_death_is_retried_to_success(self, chaos):
        with SimulationService() as svc:
            injected = chaos(svc, worker_die=1)
            result = svc.run(LaunchSpec(kernel="kern"), module=_noop_module())
        assert result.ok
        assert result.retried
        assert injected.deaths == 1
        stats = svc.stats.to_dict()
        assert stats["retried"] == 1 and stats["attempts"] == 2

    def test_health_has_no_chaos_key(self, chaos):
        # The injector's effects show in the stats only: the service
        # knows nothing of it.
        with SimulationService() as svc:
            chaos(svc, slow_request_ms=1)
            svc.run(LaunchSpec(kernel="kern"), module=_noop_module())
            health = svc.health()
        assert "chaos" not in health
        assert health["stats"]["completed"] == 1


# ------------------------------------------------------------------ drills --

#: The request count the drills scale from (the breaker and
#: compile-stall drills are scripted): 58 requests over all seven.
N = 12

#: Every exception a served request may legitimately resolve with
#: under chaos; anything else is an unstructured failure.
STRUCTURED_ERRORS = (ServeError, SimulationError, InjectedWorkerDeath)


class Outcome(NamedTuple):
    """One request's terminal verdict: its kind (``ok``, ``fault``,
    ``shed_deadline``, ``shed_breaker``, ``cancelled``, ``internal``,
    ``lost`` or ``unstructured``), a detail such as the shed stage, and
    how long ``result()`` took."""

    kind: str
    detail: str
    verdict_s: float


def _program(tag):
    """A tiny one-kernel program; *tag* gives each drill its own
    fingerprint, so each drill compiles."""
    return A.Program(f"chaos_{tag}", kernels=[A.KernelDef(
        "empty", params=[A.Param("n", I64)], trip_count=A.Arg("n"),
        body=[])])


def _make_args(gpu, compiled):
    return compiled.abi("empty").marshal(gpu, {"n": 8})


def _submit(svc, program, request_id, **overrides):
    spec = LaunchSpec(kernel="empty", num_teams=1, threads_per_team=4,
                      request_id=request_id, **overrides)
    return svc.submit(spec, program=program, options=CompileOptions(),
                      make_args=_make_args)


def _settle(job, timeout=60.0):
    """Wait one job out and classify its terminal outcome."""
    t0 = time.perf_counter()

    def outcome(kind, detail=""):
        return Outcome(kind, detail, time.perf_counter() - t0)

    try:
        result = job.result(timeout=timeout)
    except DeadlineExceeded as exc:
        return outcome("shed_deadline", exc.stage)
    except CircuitOpen:
        return outcome("shed_breaker")
    except RequestCancelled:
        return outcome("cancelled")
    except STRUCTURED_ERRORS as exc:
        return outcome("internal", type(exc).__name__)
    except FutureTimeout:
        return outcome("lost")
    except Exception as exc:
        return outcome("unstructured", f"{type(exc).__name__}: {exc}")
    return outcome("ok" if result.ok else "fault")


def _accounted(svc, outcomes):
    """Assert the three invariants of every drill; returns the outcome
    counts by kind."""
    counts = Counter(o.kind for o in outcomes)
    assert counts["lost"] == 0, outcomes  # no request lost
    assert counts["unstructured"] == 0, outcomes  # failures structured
    stats = svc.stats.to_dict()
    assert stats["submitted"] == (
        stats["completed"] + stats["shed_deadline"] + stats["shed_breaker"]
        + stats["cancelled"] + stats["internal_errors"]), stats
    return counts


class TestDrills:
    def test_baseline(self):
        """No chaos: everything completes ok, nothing reruns."""
        with SimulationService(queue_depth=2 * N) as svc:
            program = _program("baseline")
            jobs = [_submit(svc, program, f"base-{i:03d}") for i in range(N)]
            counts = _accounted(svc, [_settle(job) for job in jobs])
            assert counts["ok"] == N
            assert svc.stats.to_dict()["retried"] == 0

    def test_retry_recovers(self, chaos):
        """``worker_die=1``: the one killed launch reruns on a fresh
        per-op device and every request still succeeds."""
        with SimulationService(queue_depth=2 * N) as svc:
            injected = chaos(svc, worker_die=1)
            program = _program("retry")
            jobs = [_submit(svc, program, f"retry-{i:03d}")
                    for i in range(N)]
            counts = _accounted(svc, [_settle(job) for job in jobs])
            assert counts["ok"] == N
            assert svc.stats.to_dict()["retried"] == 1
            assert injected.deaths == 1

    def test_breaker_lifecycle(self, chaos):
        """``worker_die=8`` with threshold 3: a failed request dies
        twice (its launch and its fallback run), so three failed
        requests open the breaker and the next one is shed fast.  After
        the cooldown the half-open probe dies too (the 7th and 8th
        deaths) and re-opens it; the next probe succeeds and closes the
        circuit."""
        cooldown = 0.15
        outcomes = []
        with SimulationService(
                queue_depth=8, save_reports=True,
                breaker_policy=BreakerPolicy(threshold=3,
                                             cooldown_s=cooldown)) as svc:
            chaos(svc, worker_die=8)
            program = _program("breaker")

            def one(request_id):
                outcomes.append(_settle(_submit(svc, program, request_id)))
                return outcomes[-1]

            for i in range(3):
                one(f"brk-fail-{i}")
            (breaker,) = svc.health()["breakers"].values()
            assert breaker["state"] == "open"
            shed = one("brk-shed")
            time.sleep(cooldown * 1.4)
            probe1 = one("brk-probe-1")
            shed2 = one("brk-shed-2")
            time.sleep(cooldown * 1.4)
            probe2 = one("brk-probe-2")
            final = one("brk-closed")
            (breaker,) = svc.health()["breakers"].values()
            final_state = breaker["state"]
            _accounted(svc, outcomes)
            opens = svc.stats.to_dict()["breaker_opens"]
        assert shed.kind == shed2.kind == "shed_breaker"
        assert probe1.kind == "internal" and opens == 2
        assert probe2.kind == final.kind == "ok"
        assert final_state == "closed"
        assert max(shed.verdict_s, shed2.verdict_s) < 0.1

    def test_deadline_shed(self, chaos):
        """Slow requests behind the one worker: queued requests
        outlive their deadline and are shed in the queue, and the shed
        verdicts come well before the backlog would have drained."""
        n, slow_ms = N // 2, 80
        with SimulationService(queue_depth=2 * n + 1) as svc:
            chaos(svc, slow_request_ms=slow_ms)
            program = _program("deadline")
            # Compile first without a deadline, so the deadlined batch
            # measures queueing, not the first compile.
            outcomes = [_settle(_submit(svc, program, "ddl-warm"))]
            jobs = [_submit(svc, program, f"ddl-{i:03d}", deadline_s=0.12)
                    for i in range(n)]
            outcomes += [_settle(job) for job in jobs]
            counts = _accounted(svc, outcomes)
        shed = [o for o in outcomes if o.kind == "shed_deadline"]
        assert counts["ok"] >= 1
        assert shed
        assert {o.detail for o in shed} <= {"queue", "compile"}
        # Nearest-rank p99 of at most 100 verdicts is their max.
        assert max(o.verdict_s for o in shed) < n * slow_ms / 1000.0

    def test_compile_stall(self, chaos):
        """A compile stall longer than the deadline sheds the
        request right after the compile, at the compile stage."""
        with SimulationService() as svc:
            injected = chaos(svc, compile_stall_ms=250)
            job = _submit(svc, _program("stall"), "stall-000",
                          deadline_s=0.1)
            out = _settle(job)
            _accounted(svc, [out])
            assert injected.stalls == 1
        assert (out.kind, out.detail) == ("shed_deadline", "compile")

    def test_drain_under_load(self, chaos):
        """``close(deadline_s=...)`` mid-load: running work drains,
        queued work is cancelled (not dropped), a late submit is
        refused."""
        n = N // 2
        with SimulationService(queue_depth=2 * n) as svc:
            chaos(svc, slow_request_ms=60)
            program = _program("drain")
            # The first request of a program also compiles it; settling
            # one before the burst keeps that compile out of the drain
            # budget, which then pays for slow launches only.
            warm_up = _settle(_submit(svc, program, "drn-warm"))
            assert warm_up.kind == "ok", warm_up
            jobs = [_submit(svc, program, f"drn-{i:03d}") for i in range(n)]
            svc.close(deadline_s=0.15)
            with pytest.raises(ServiceClosed):
                _submit(svc, program, "drn-late")
            counts = _accounted(svc, [_settle(job) for job in jobs])
            assert counts["ok"] >= 1
            assert counts["cancelled"] >= 1
            assert svc.stats.to_dict()["cancelled"] == counts["cancelled"]

    def test_saturation_hints(self):
        """Four tenants past capacity: each reject carries a positive
        ``retry_after_s`` hint, and backing off by it eventually admits
        every request."""
        n, tenants = N // 4, 4
        hints, outcomes = [], []
        lock = threading.Lock()
        with SimulationService(queue_depth=2) as svc:
            program = _program("saturate")

            def tenant(t):
                for i in range(n):
                    while True:
                        try:
                            job = _submit(svc, program, f"sat-{t}-{i:03d}")
                            break
                        except AdmissionRejected as exc:
                            with lock:
                                hints.append(exc.retry_after_s or 0.0)
                            time.sleep(max(exc.retry_after_s or 0.0, 0.001))
                    out = _settle(job)
                    with lock:
                        outcomes.append(out)

            threads = [threading.Thread(target=tenant, args=(t,))
                       for t in range(tenants)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            counts = _accounted(svc, outcomes)
        assert counts["ok"] == tenants * n
        assert all(hint > 0 for hint in hints)
