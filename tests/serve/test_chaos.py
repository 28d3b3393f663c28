"""Chaos machinery and the resilience drills it drives.

The chaos module consumes the *service-level* sites of the
``REPRO_FAULTS`` grammar (``worker_die``, ``compile_stall``,
``slow_request``) and misbehaves inside the serving worker so the
resilience layer can be drilled.  The key structural property — pinned
by a subprocess test here — is that a *default* service never imports
any of it.

:class:`TestDrills` runs seven scripted failure scenarios against
dedicated services and asserts the invariants the serving layer
promises.  Every drill checks the same accounting: no request is lost
(each resolves, with a result or an error), every failure is
structured, and ``submitted`` equals the sum of the terminal counters.
"""

import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import TimeoutError as FutureTimeout
from typing import NamedTuple

import pytest

from repro.faults.plan import FaultPlan
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
from repro.serve.chaos import ChaosState, InjectedWorkerDeath, resolve_chaos
from repro.vgpu.errors import SimulationError
from tests.conftest import make_kernel

pytestmark = [pytest.mark.serve, pytest.mark.chaos]


def _noop_module():
    module = Module("m")
    _, b = make_kernel(module, params=())
    b.ret()
    verify_module(module)
    return module


class TestChaosState:
    def test_die_budget_fires_exactly_n_times(self):
        state = resolve_chaos("worker_die:n=2")
        for _ in range(2):
            with pytest.raises(InjectedWorkerDeath):
                state.on_attempt()
        state.on_attempt()  # budget spent: attempts now survive
        state.on_attempt()
        assert state.deaths == 2

    def test_death_is_not_a_simulation_error(self):
        # Worker death must take the internal-failure path (retry,
        # breaker), never the program-fault (CrashReport) path.
        assert not issubclass(InjectedWorkerDeath, SimulationError)
        exc = InjectedWorkerDeath(3)
        assert exc.attempt_no == 3
        assert "attempt #3" in str(exc)

    def test_stall_and_slow_sleep_and_count(self):
        state = resolve_chaos("compile_stall:ms=1;slow_request:ms=1")
        state.on_compile()
        state.on_request()
        state.on_request()
        assert state.stalls == 1
        assert state.slowed == 2
        assert state.deaths == 0
        state.on_attempt()  # no die site: a no-op

    def test_to_dict_snapshot(self):
        state = resolve_chaos("worker_die:n=1;compile_stall:ms=25")
        with pytest.raises(InjectedWorkerDeath):
            state.on_attempt()
        snap = state.to_dict()
        assert snap["die_budget"] == 1 and snap["deaths"] == 1
        assert snap["stall_ms"] == 25.0 and snap["stalls"] == 0
        assert snap["slow_ms"] == 0.0 and snap["slowed"] == 0

    def test_device_sites_are_rejected(self):
        with pytest.raises(ValueError, match="device site"):
            ChaosState(FaultPlan.parse("malloc_fail:n=1").sites)


class TestResolveChaos:
    def test_none_passthrough(self):
        assert resolve_chaos(None) is None

    def test_state_passthrough(self):
        state = ChaosState(FaultPlan.parse("worker_die:n=1").service_sites())
        assert resolve_chaos(state) is state

    def test_string_and_plan_forms_agree(self):
        from_str = resolve_chaos("worker_die:n=3")
        from_plan = resolve_chaos(FaultPlan.parse("worker_die:n=3"))
        assert from_str.die_budget == from_plan.die_budget == 3

    def test_device_only_plan_is_an_error(self):
        with pytest.raises(ValueError, match="no service-level sites"):
            resolve_chaos("malloc_fail:n=1")

    def test_mixed_plan_rejects_its_device_sites(self):
        # Device sites belong on LaunchSpec.faults even when the plan
        # also carries service sites — mixing is refused loudly.
        with pytest.raises(ValueError, match="device site"):
            resolve_chaos("worker_die:n=1;malloc_fail:n=1")


class TestServiceIntegration:
    def test_worker_death_is_retried_to_success(self):
        chaos = resolve_chaos("worker_die:n=1")
        with SimulationService(chaos=chaos) as svc:
            result = svc.run(LaunchSpec(kernel="kern"), module=_noop_module())
        assert result.ok
        assert result.retried
        assert chaos.deaths == 1
        stats = svc.stats.to_dict()
        assert stats["retried"] == 1 and stats["attempts"] == 2

    def test_chaos_state_appears_in_health(self):
        with SimulationService(chaos="slow_request:ms=1") as svc:
            svc.run(LaunchSpec(kernel="kern"), module=_noop_module())
            health = svc.health()
        assert health["chaos"]["slowed"] == 1


class TestDisabledPathGuard:
    def test_default_service_never_imports_chaos(self):
        """Satellite S6: the chaos module is pay-for-use.  Constructing
        and exercising a default service must not pull it in — checked
        in a subprocess because this test session's own imports pollute
        sys.modules."""
        code = (
            "import sys\n"
            "from repro.serve import LaunchSpec, SimulationService\n"
            "from repro.ir import (Function, FunctionType, IRBuilder,\n"
            "                      Module, VOID, verify_module)\n"
            "module = Module('m')\n"
            "fn = module.add_function(Function('kern', FunctionType(VOID, ())))\n"
            "fn.attrs.add('kernel')\n"
            "IRBuilder(module, fn.add_block('entry')).ret()\n"
            "verify_module(module)\n"
            "with SimulationService() as svc:\n"
            "    result = svc.run(LaunchSpec(kernel='kern'), module=module)\n"
            "assert result.ok\n"
            "assert 'repro.serve.chaos' not in sys.modules, 'chaos imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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

    def test_retry_recovers(self):
        """``worker_die:n=1``: the one killed launch reruns on a fresh
        per-op device and every request still succeeds."""
        with SimulationService(queue_depth=2 * N,
                               chaos="worker_die:n=1") as svc:
            program = _program("retry")
            jobs = [_submit(svc, program, f"retry-{i:03d}")
                    for i in range(N)]
            counts = _accounted(svc, [_settle(job) for job in jobs])
            assert counts["ok"] == N
            assert svc.stats.to_dict()["retried"] == 1
            assert svc._chaos.deaths == 1

    def test_breaker_lifecycle(self):
        """``worker_die:n=8`` with threshold 3: a failed request dies
        twice (its launch and its fallback run), so three failed
        requests open the breaker and the next one is shed fast.  After
        the cooldown the half-open probe dies too (the 7th and 8th
        deaths) and re-opens it; the next probe succeeds and closes the
        circuit."""
        cooldown = 0.15
        outcomes = []
        with SimulationService(
                queue_depth=8, save_reports=True, chaos="worker_die:n=8",
                breaker_policy=BreakerPolicy(threshold=3,
                                             cooldown_s=cooldown)) as svc:
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

    def test_deadline_shed(self):
        """``slow_request`` behind the one worker: queued requests
        outlive their deadline and are shed in the queue, and the shed
        verdicts come well before the backlog would have drained."""
        n, slow_ms = N // 2, 80
        with SimulationService(queue_depth=2 * n + 1,
                               chaos=f"slow_request:ms={slow_ms}") as svc:
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

    def test_compile_stall(self):
        """A ``compile_stall`` longer than the deadline sheds the
        request right after the compile, at the compile stage."""
        with SimulationService(chaos="compile_stall:ms=250") as svc:
            job = _submit(svc, _program("stall"), "stall-000",
                          deadline_s=0.1)
            out = _settle(job)
            _accounted(svc, [out])
            assert svc._chaos.stalls == 1
        assert (out.kind, out.detail) == ("shed_deadline", "compile")

    def test_drain_under_load(self):
        """``close(deadline_s=...)`` mid-load: running work drains,
        queued work is cancelled (not dropped), a late submit is
        refused."""
        n = N // 2
        with SimulationService(queue_depth=2 * n,
                               chaos="slow_request:ms=60") as svc:
            program = _program("drain")
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
