"""Chaos machinery: ChaosState units, service integration, import guard.

The chaos module consumes the *service-level* sites of the
``REPRO_FAULTS`` grammar (``worker_die``, ``compile_stall``,
``slow_request``) and misbehaves inside the serving worker so the
resilience layer can be drilled.  The key structural property — pinned
by a subprocess test here — is that a *default* service never imports
any of it.
"""

import subprocess
import sys

import pytest

from repro.faults.plan import FaultPlan
from repro.ir import Module, verify_module
from repro.serve import LaunchSpec, SimulationService
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
