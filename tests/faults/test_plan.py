"""FaultPlan: the ``REPRO_FAULTS`` grammar and seeded resolution."""

import pytest

from repro.faults import FaultPlan, FaultPlanError
from repro.faults.plan import (
    SITE_BARRIER_SKIP,
    SITE_COMPILE_STALL,
    SITE_MALLOC_FAIL,
    SITE_NAMES,
    SITE_RT_TRAP,
    SITE_SHARED_STACK_EXHAUST,
    SITE_SLOW_REQUEST,
    SITE_WORKER_DIE,
)
from repro.vgpu import LaunchConfig


class TestParsing:
    def test_empty_spec_means_no_plan(self):
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("   ") is None
        assert FaultPlan.parse(None) is None

    def test_single_site_defaults(self):
        plan = FaultPlan.parse("rt_trap")
        assert [s.kind for s in plan.sites] == [SITE_RT_TRAP]
        site = plan.sites[0]
        assert site.n == 1 and site.team is None and site.thread is None
        assert plan.seed is None

    def test_keys_and_seed(self):
        plan = FaultPlan.parse("malloc_fail:n=2:team=1:thread=3;seed=11")
        site = plan.sites[0]
        assert (site.kind, site.n, site.team, site.thread) == (
            SITE_MALLOC_FAIL, 2, 1, 3)
        assert plan.seed == 11

    def test_multiple_sites_and_whitespace(self):
        plan = FaultPlan.parse(" shared_stack_exhaust ; rt_trap : n = 5 ")
        assert [s.kind for s in plan.sites] == [
            SITE_SHARED_STACK_EXHAUST, SITE_RT_TRAP]
        assert plan.sites[1].n == 5

    def test_spec_round_trips_into_to_dict(self):
        plan = FaultPlan.parse("barrier_skip:n=2;seed=3")
        d = plan.to_dict()
        assert d["seed"] == 3
        assert d["sites"] == [
            {"kind": SITE_BARRIER_SKIP, "n": 2, "team": None, "thread": None}]
        assert "barrier_skip" in plan.describe()

    @pytest.mark.parametrize("bad", [
        "frobnicate",                 # unknown site
        "rt_trap;rt_trap",            # duplicate site
        "rt_trap:n=zero",             # non-integer value
        "rt_trap:n=0",                # n is 1-based
        "rt_trap:team=-1",            # negative
        "rt_trap:warp=1",             # unknown key
        "rt_trap:n",                  # missing '='
        "seed=7",                     # seed alone: no sites
        "seed=x",                     # malformed seed
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_every_site_name_parses(self):
        for name in SITE_NAMES:
            assert FaultPlan.parse(name) is not None


class TestResolution:
    LAUNCH = LaunchConfig(4, 32)

    def test_unpinned_without_seed_resolves_to_zero(self):
        plan = FaultPlan.parse("rt_trap:n=1")
        states = [plan.team_state(t, self.LAUNCH) for t in range(4)]
        assert states[0] is not None and states[0].trap_n == 1
        assert states[1] is None and states[2] is None and states[3] is None

    def test_seed_resolution_is_deterministic(self):
        plan_a = FaultPlan.parse("rt_trap:n=5;seed=11")
        plan_b = FaultPlan.parse("rt_trap:n=5;seed=11")
        hits_a = [t for t in range(4) if plan_a.team_state(t, self.LAUNCH)]
        hits_b = [t for t in range(4) if plan_b.team_state(t, self.LAUNCH)]
        assert hits_a == hits_b and len(hits_a) == 1

    def test_pinned_team_wraps_modulo_geometry(self):
        plan = FaultPlan.parse("rt_trap:team=5")  # 5 % 4 == 1
        assert plan.team_state(1, self.LAUNCH) is not None
        assert plan.team_state(0, self.LAUNCH) is None

    def test_exhaust_defaults_to_every_team(self):
        plan = FaultPlan.parse("shared_stack_exhaust")
        for t in range(4):
            state = plan.team_state(t, self.LAUNCH)
            assert state is not None and state.exhaust

    def test_exhaust_pinned_to_one_team(self):
        plan = FaultPlan.parse("shared_stack_exhaust:team=2")
        assert plan.team_state(2, self.LAUNCH).exhaust
        assert plan.team_state(0, self.LAUNCH) is None

    def test_barrier_skip_thread_is_seed_resolved(self):
        plan = FaultPlan.parse("barrier_skip:n=1;seed=3")
        hit = next(t for t in range(4)
                   if plan.team_state(t, self.LAUNCH) is not None)
        state_a = plan.team_state(hit, self.LAUNCH)
        state_b = plan.team_state(hit, self.LAUNCH)
        assert state_a.skip_thread == state_b.skip_thread
        assert 0 <= state_a.skip_thread < self.LAUNCH.threads_per_team

    def test_counters_start_at_zero_every_bind(self):
        """Per-launch counter state: a team fires the same way whichever
        teams ran before it."""
        plan = FaultPlan.parse("malloc_fail:n=3")
        state = plan.team_state(0, self.LAUNCH)
        assert (state.malloc_seen, state.trap_seen, state.skip_seen) == (0, 0, 0)

class TestServiceSites:
    """Host-side grammar extension: worker_die / compile_stall /
    slow_request sites feed the serving layer's chaos drills, not the
    device interpreter."""

    LAUNCH = LaunchConfig(4, 32)

    def test_service_site_grammar_parses(self):
        plan = FaultPlan.parse(
            "worker_die:n=2;compile_stall:ms=50;slow_request:ms=10;seed=1")
        kinds = {s.kind: s for s in plan.sites}
        assert kinds[SITE_WORKER_DIE].n == 2
        assert kinds[SITE_COMPILE_STALL].ms == 50
        assert kinds[SITE_SLOW_REQUEST].ms == 10
        assert plan.seed == 1

    def test_site_partitioning_helpers(self):
        plan = FaultPlan.parse("worker_die:n=1;malloc_fail:n=2")
        assert [s.kind for s in plan.service_sites()] == [SITE_WORKER_DIE]
        assert [s.kind for s in plan.device_sites()] == [SITE_MALLOC_FAIL]
        assert plan.has_service_sites
        assert not FaultPlan.parse("malloc_fail").has_service_sites

    @pytest.mark.parametrize("bad", [
        "worker_die:team=1",        # device keys on a service site
        "worker_die:thread=0",
        "slow_request:team=2",
        "compile_stall:ms=-5",      # negative duration
        "rt_trap:ms=5",             # service key on a device site
    ])
    def test_key_site_mismatches_raise(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_device_binding_ignores_service_sites(self):
        # A mixed plan still resolves device-side: the service sites
        # must be invisible to team_state.
        plan = FaultPlan.parse("worker_die:n=3;rt_trap:team=1")
        assert plan.team_state(1, self.LAUNCH) is not None
        assert plan.team_state(0, self.LAUNCH) is None
        pure = FaultPlan.parse("worker_die:n=3;slow_request:ms=5")
        assert all(pure.team_state(t, self.LAUNCH) is None for t in range(4))

    def test_to_dict_round_trips_ms(self):
        plan = FaultPlan.parse("compile_stall:ms=25")
        (site,) = plan.to_dict()["sites"]
        assert site == {"kind": SITE_COMPILE_STALL, "n": 1,
                        "team": None, "thread": None, "ms": 25}
        # Device sites keep their historical dict shape: no "ms" key.
        (legacy,) = FaultPlan.parse("rt_trap").to_dict()["sites"]
        assert "ms" not in legacy
