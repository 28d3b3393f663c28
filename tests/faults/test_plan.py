"""FaultPlan: the ``REPRO_FAULTS`` grammar and seeded resolution."""

import pytest

from repro.faults import FaultPlan, FaultPlanError
from repro.faults.plan import (
    SITE_BARRIER_SKIP,
    SITE_MALLOC_FAIL,
    SITE_NAMES,
    SITE_RT_TRAP,
    SITE_SHARED_STACK_EXHAUST,
)
from repro.vgpu import LaunchConfig
from repro.vgpu.config import resolve_fault_plan


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
        "rt_trap:n=1:n=2",            # repeated key
        "seed=1;seed=2;rt_trap",      # repeated seed
        "worker_die",                 # the service sites are gone
        "compile_stall:ms=5",
        "slow_request:ms=5",
        "worker_die:team=1",
        "worker_die:thread=0",
        "slow_request:team=2",
        "compile_stall:ms=-5",
        "rt_trap:ms=5",               # ms is no key of any site
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize("site", [
        "worker_die:n=1", "compile_stall:ms=5", "slow_request:ms=5"])
    def test_repro_faults_rejects_service_sites(self, site, monkeypatch):
        # The knob a device reads its default plan from.
        monkeypatch.setenv("REPRO_FAULTS", site)
        with pytest.raises(FaultPlanError):
            resolve_fault_plan()

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
