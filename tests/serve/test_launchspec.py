"""The request-object launch API: LaunchSpec / LaunchResult / run().

Pins the redesign's contract: ``VirtualGPU.run(spec)`` is the one
launch entry point.
"""

import warnings

import numpy as np
import pytest

from repro.ir import I64, PTR_GLOBAL, verify_module
from repro.vgpu import (
    ENGINE_DECODED,
    ENGINE_WARP,
    FALLBACK_FAULT_PLAN,
    FALLBACK_LOW_OCCUPANCY,
    FALLBACK_OLD_RT,
    FALLBACK_SANITIZE,
    LaunchResult,
    LaunchSpec,
    SimulationError,
    VirtualGPU,
)
from tests.conftest import make_kernel


def _store_module(module):
    """kern(out, value): out[global_tid] = value."""
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64),
                          arg_names=["out", "value"])
    tid = b.sext(b.add(b.mul(b.block_id(), b.block_dim()), b.thread_id()), I64)
    b.store(func.args[1], b.array_gep(func.args[0], I64, tid))
    b.ret()
    verify_module(module)
    return module


def _device(module, **kwargs):
    return VirtualGPU(_store_module(module), **kwargs)


class TestLaunchSpecValidation:
    def test_defaults(self):
        spec = LaunchSpec(kernel="kern")
        assert spec.num_teams == 1
        assert spec.threads_per_team == 1
        assert spec.args == ()
        assert spec.engine is None

    def test_args_are_coerced_to_a_tuple(self):
        spec = LaunchSpec(kernel="kern", args=[1, 2, 3])
        assert spec.args == (1, 2, 3)

    @pytest.mark.parametrize("field,value", [
        ("num_teams", 0),
        ("threads_per_team", 0),
        ("dynamic_shared_bytes", -1),
        ("watchdog_s", -0.5),
        ("deadline_s", -0.1),
    ])
    def test_bounds_are_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            LaunchSpec(kernel="kern", **{field: value})

    def test_sim_jobs_is_not_a_launch_option(self):
        """Teams run serially: ``sim_jobs=`` is an unknown keyword on
        every launch entry point that used to take it."""
        from repro.apps.common import run_proxy_app
        from repro.toolchain.service import RunRequest

        with pytest.raises(TypeError, match="sim_jobs"):
            LaunchSpec(kernel="kern", sim_jobs=2)
        with pytest.raises(TypeError, match="sim_jobs"):
            RunRequest(app="testsnap", sim_jobs=2)
        with pytest.raises(TypeError, match="sim_jobs"):
            run_proxy_app("testsnap", None, "kern", None, {}, None, 1, 1,
                          sim_jobs=2)

    def test_engine_is_resolved_at_construction(self):
        assert LaunchSpec(kernel="k", engine=" Warp").engine == ENGINE_WARP
        for name in ("warp9", "legacy"):  # legacy: the deleted tree-walker
            with pytest.raises(ValueError, match="unknown simulation engine"):
                LaunchSpec(kernel="k", engine=name)

    def test_replace_derives_a_new_spec(self):
        spec = LaunchSpec(kernel="kern", num_teams=2)
        other = spec.replace(args=(1,), request_id="r1")
        assert other.args == (1,) and other.request_id == "r1"
        assert other.num_teams == 2
        assert spec.args == () and spec.request_id is None

    def test_specs_are_immutable(self):
        spec = LaunchSpec(kernel="kern")
        with pytest.raises(Exception):
            spec.num_teams = 4

    def test_describe_mentions_kernel_geometry_and_request(self):
        text = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=8,
                          request_id="r7").describe()
        assert "@kern" in text and "2x8" in text and "req=r7" in text

    def test_deadline_defaults_off_and_travels_through_replace(self):
        spec = LaunchSpec(kernel="kern")
        assert spec.deadline_s is None
        assert "deadline" not in spec.describe()
        budgeted = spec.replace(deadline_s=0.25)
        assert budgeted.deadline_s == 0.25
        assert "deadline=0.25s" in budgeted.describe()
        assert LaunchSpec(kernel="kern", deadline_s=0.0).deadline_s == 0.0


class TestRun:
    def test_run_returns_a_timed_launch_result(self, module):
        gpu = _device(module)
        out = gpu.alloc_array(np.zeros(4, dtype=np.int64))
        spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                          args=(out, 9))
        result = gpu.run(spec)
        assert isinstance(result, LaunchResult)
        assert result.ok and result.spec is spec
        assert result.profile.cycles > 0
        assert result.engine == gpu.engine
        assert result.finished_s >= result.started_s
        assert result.duration_s >= 0.0
        assert list(gpu.read_array(out, np.int64, 4)) == [9, 9, 9, 9]

    def test_per_spec_engine_override_is_restored(self, module):
        gpu = _device(module, engine=ENGINE_DECODED)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        spec = LaunchSpec(kernel="kern", args=(out, 1), engine=ENGINE_WARP)
        result = gpu.run(spec)
        assert result.engine == ENGINE_WARP
        assert gpu.engine == ENGINE_DECODED  # restored after the run

    def test_engine_override_matches_dedicated_device(self, module):
        from repro.ir import Module

        gpu_a = _device(module, engine=ENGINE_DECODED)
        gpu_b = _device(Module("m2"), engine=ENGINE_WARP)
        out_a = gpu_a.alloc_array(np.zeros(4, dtype=np.int64))
        out_b = gpu_b.alloc_array(np.zeros(4, dtype=np.int64))
        spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2)
        p_a = gpu_a.run(spec.replace(args=(out_a, 3), engine=ENGINE_WARP))
        p_b = gpu_b.run(spec.replace(args=(out_b, 3)))
        assert p_a.profile.to_dict() == p_b.profile.to_dict()

    @pytest.mark.parametrize("engine", [ENGINE_DECODED, ENGINE_WARP])
    def test_result_says_which_engine_ran(self, module, engine):
        gpu = _device(module, engine=engine)
        out = gpu.alloc_array(np.zeros(4, dtype=np.int64))
        result = gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                                    args=(out, 5)))
        assert result.engine == result.executed_engine == engine
        assert result.fallback is None

    @pytest.mark.parametrize("setup,executed,fallback", [
        ("old_rt", ENGINE_DECODED, FALLBACK_OLD_RT),
        ("sanitize", ENGINE_DECODED, FALLBACK_SANITIZE),
        ("faults_all_teams", ENGINE_DECODED, FALLBACK_FAULT_PLAN),
        ("faults_one_team", ENGINE_WARP, FALLBACK_FAULT_PLAN),
        ("low_occupancy", ENGINE_WARP, FALLBACK_LOW_OCCUPANCY),
    ])
    def test_warp_fallback_is_reported(self, module, monkeypatch, setup,
                                       executed, fallback):
        """A warp request keeps ``engine == "warp"``; the result names the
        engine that ran and why, and the profile is the decoded one."""
        from repro.ir import ArrayType, GlobalVariable
        from repro.runtime.state import GV_OLD_TEAM_CONTEXT
        from repro.vgpu import interpreter

        if setup == "low_occupancy":
            # every lane of this kernel works: gate above full occupancy
            monkeypatch.setattr(interpreter, "_MIN_WARP_OCCUPANCY", 1.5)

        kwargs = {
            "sanitize": {"sanitize": True},
            # nothing in the kernel mallocs or stacks: the plan only arms
            "faults_all_teams": {"faults": "shared_stack_exhaust"},
            "faults_one_team": {"faults": "malloc_fail:n=9:team=1"},
        }.get(setup, {})
        if setup == "old_rt":
            module.add_global(GlobalVariable(GV_OLD_TEAM_CONTEXT, ArrayType(I64, 1)))
        _store_module(module)
        spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2)
        runs = []
        for engine in (ENGINE_WARP, ENGINE_DECODED):
            gpu = VirtualGPU(module, engine=engine, **kwargs)
            out = gpu.alloc_array(np.zeros(4, dtype=np.int64))
            runs.append(gpu.run(spec.replace(args=(out, 7))))
        warp, decoded = runs
        assert warp.engine == ENGINE_WARP
        assert (warp.executed_engine, warp.fallback) == (executed, fallback)
        assert (decoded.executed_engine, decoded.fallback) == (ENGINE_DECODED, None)
        assert warp.profile.to_dict() == decoded.profile.to_dict()

    def test_sanitize_mismatch_raises(self, module):
        gpu = _device(module)  # not sanitized
        spec = LaunchSpec(kernel="kern", args=(0, 0), sanitize=True)
        with pytest.raises(SimulationError, match="sanitize"):
            gpu.run(spec)

    def test_dynamic_shared_travels_in_the_spec(self, module):
        from repro.ir import Module

        gpu = _device(module)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        spec = LaunchSpec(kernel="kern", args=(out, 5),
                          dynamic_shared_bytes=128)
        result = gpu.run(spec)
        assert result.ok
        assert gpu._dynamic_shared_bytes == 128


class TestLegacyShim:
    """The keyword ``launch()`` shim is gone: ``run(spec)`` is the only
    launch, and it never warns."""

    def test_launch_with_a_spec_does_not_warn(self, module):
        gpu = _device(module)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = gpu.run(LaunchSpec(kernel="kern", args=(out, 2))).profile
        assert profile.cycles > 0
        assert not hasattr(gpu, "launch")


class TestWarmReset:
    def test_reset_restores_the_post_load_image(self, module):
        gpu = _device(module)
        assert gpu.resettable
        out = gpu.alloc_array(np.zeros(4, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                           args=(out, 7)))
        brk_before = gpu.memory.global_seg.brk
        gpu.reset_device()
        assert gpu.memory.global_seg.brk < brk_before
        # The device is fully usable again after the rewind.
        out2 = gpu.alloc_array(np.zeros(4, dtype=np.int64))
        result = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                    threads_per_team=2, args=(out2, 5)))
        assert list(gpu.read_array(out2, np.int64, 4)) == [5, 5, 5, 5]
        assert result.ok

    def test_reset_produces_identical_profiles_across_requests(self, module):
        gpu = _device(module)
        profiles = []
        for _ in range(2):
            out = gpu.alloc_array(np.zeros(4, dtype=np.int64))
            result = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                        threads_per_team=2, args=(out, 1)))
            profiles.append(result.profile.to_dict())
            gpu.reset_device()
        assert profiles[0] == profiles[1]

    def test_sanitized_devices_refuse_reset(self, module):
        gpu = _device(module, sanitize=True)
        assert not gpu.resettable
        with pytest.raises(SimulationError, match="sanitized"):
            gpu.reset_device()
