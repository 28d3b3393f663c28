"""End-to-end pipeline properties on the canonical SAXPY kernel."""

import numpy as np
import pytest

from repro.apps import gridmini, rsbench
from repro.bench.builds import NEW_RT_NIGHTLY, OLD_RT_NIGHTLY, build_options
from repro.frontend.driver import compile_program_uncached
from repro.ir import verify_module
from repro.ir.instructions import Call
from repro.ir.printer import print_module
from repro.passes import PassManager, PipelineConfig, run_openmp_opt_pipeline
from repro.passes.remarks import RemarkCollector
from repro.runtime.config import RuntimeConfig
from repro.runtime.interface import NEW_RUNTIME, OLD_RUNTIME
from repro.vgpu import VirtualGPU
from repro.vgpu.resources import shared_memory_usage
from tests.runtime.conftest import (
    add_saxpy_body,
    add_spmd_kernel,
    build_runtime_module,
    run_saxpy,
)


def optimized_saxpy(rt=NEW_RUNTIME, config=None, rt_config=None):
    module = build_runtime_module(rt, rt_config)
    body = add_saxpy_body(module)
    add_spmd_kernel(module, rt, body)
    remarks = RemarkCollector()
    run_openmp_opt_pipeline(module, config or PipelineConfig(verify_each=True), remarks)
    verify_module(module)
    return module, remarks


class TestNearZeroOverhead:
    """The headline result: a fully optimized SPMD kernel is
    indistinguishable from a native GPU kernel."""

    def test_no_runtime_calls_remain(self):
        module, _ = optimized_saxpy()
        kern = module.get_function("kern")
        for inst in kern.instructions():
            if isinstance(inst, Call):
                assert inst.callee is not None
                assert not inst.callee.name.startswith("__kmpc")

    def test_no_shared_memory_remains(self):
        module, _ = optimized_saxpy()
        kern = module.get_function("kern")
        assert shared_memory_usage(kern, module) == 0

    def test_no_barriers_remain(self):
        from repro.passes.barrier_elim import _is_any_barrier

        module, _ = optimized_saxpy()
        kern = module.get_function("kern")
        assert not any(_is_any_barrier(i) for i in kern.instructions())

    def test_runtime_functions_pruned(self):
        module, _ = optimized_saxpy()
        defined = [f.name for f in module.defined_functions()]
        assert defined == ["kern"]

    def test_no_assumes_in_final_binary(self):
        module, _ = optimized_saxpy()
        for func in module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, Call) and inst.callee is not None:
                    assert inst.callee.name != "llvm.assume"

    def test_semantics_preserved(self):
        module, _ = optimized_saxpy()
        _, out, expected = run_saxpy(module, n=200, teams=4, threads=16)
        assert np.allclose(out, expected)


class TestOversubscription:
    def test_loop_removed_with_assumption(self):
        rt_config = RuntimeConfig(assume_threads_oversubscription=True)
        module, _ = optimized_saxpy(rt_config=rt_config)
        kern = module.get_function("kern")
        # No back edges: every block's successors come strictly later.
        order = {blk: i for i, blk in enumerate(kern.blocks)}
        for blk in kern.blocks:
            for succ in blk.successors():
                assert order[succ] > order[blk], "loop survived oversubscription"

    def test_assumption_checked_at_runtime_in_debug(self):
        from repro.runtime.config import DEBUG_ASSERTIONS
        from repro.vgpu import TrapError

        rt_config = RuntimeConfig(
            assume_threads_oversubscription=True, debug_kind=DEBUG_ASSERTIONS
        )
        module, _ = optimized_saxpy(rt_config=rt_config)
        # Launch with fewer threads than iterations: the user's promise
        # is broken and the debug build must catch it (§III-F/G).
        with pytest.raises(TrapError, match="over-subscription"):
            run_saxpy(module, n=500, teams=1, threads=4,
                      env={"DEBUG": DEBUG_ASSERTIONS})

    def test_registers_reduced(self):
        from repro.vgpu.registers import estimate_kernel_registers

        base_module, _ = optimized_saxpy()
        over_module, _ = optimized_saxpy(
            rt_config=RuntimeConfig(assume_threads_oversubscription=True))
        base = estimate_kernel_registers(base_module.get_function("kern"), base_module)
        over = estimate_kernel_registers(over_module.get_function("kern"), over_module)
        assert over < base


class TestLegacyAndNightly:
    def test_legacy_pipeline_keeps_old_rt_state(self):
        module, _ = optimized_saxpy(rt=OLD_RUNTIME, config=PipelineConfig.legacy())
        kern = module.get_function("kern")
        assert shared_memory_usage(kern, module) > 2000

    def test_nightly_pipeline_keeps_new_rt_stack(self):
        module, _ = optimized_saxpy(config=PipelineConfig.nightly())
        kern = module.get_function("kern")
        assert shared_memory_usage(kern, module) > 10000

    def test_o0_pipeline_is_identity(self):
        module = build_runtime_module(NEW_RUNTIME)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, NEW_RUNTIME, body)
        before = sum(1 for f in module.defined_functions()
                     for _ in f.instructions())
        run_openmp_opt_pipeline(module, PipelineConfig.o0())
        after = sum(1 for f in module.defined_functions()
                    for _ in f.instructions())
        assert before == after

    def test_all_configs_compute_same_result(self):
        for config in (PipelineConfig(), PipelineConfig.legacy(),
                       PipelineConfig.nightly(), PipelineConfig.o0()):
            module = build_runtime_module(NEW_RUNTIME)
            body = add_saxpy_body(module)
            add_spmd_kernel(module, NEW_RUNTIME, body)
            run_openmp_opt_pipeline(module, config)
            _, out, expected = run_saxpy(module, n=100, teams=2, threads=16,
                                         debug_checks=False)
            assert np.allclose(out, expected), config


class TestAblationConfigs:
    """Each §IV sub-optimization flag must (a) preserve semantics and
    (b) leave strictly more overhead behind than the full pipeline."""

    @pytest.mark.parametrize("flag", [
        "enable_field_sensitive",
        "enable_reach_dom",
        "enable_assumed_content",
        "enable_invariant_prop",
        "enable_aligned_exec",
        "enable_barrier_elim",
    ])
    def test_semantics_with_flag_disabled(self, flag):
        config = PipelineConfig(verify_each=True)
        setattr(config, flag, False)
        module, _ = optimized_saxpy(config=config)
        _, out, expected = run_saxpy(module, n=100, teams=2, threads=16,
                                     debug_checks=False)
        assert np.allclose(out, expected)

    def test_field_sensitive_off_keeps_state(self):
        config = PipelineConfig(enable_field_sensitive=False)
        module, _ = optimized_saxpy(config=config)
        kern = module.get_function("kern")
        assert shared_memory_usage(kern, module) > 0


class TestPassesReportChangesHonestly:
    """The pass manager skips a cleanup when no pass reported a change
    since the last one.  That is sound only if a pass that returns False
    left the module as it was, and if cleanup is idempotent."""

    @pytest.mark.parametrize("build", [NEW_RT_NIGHTLY, OLD_RT_NIGHTLY])
    @pytest.mark.parametrize("app", [gridmini, rsbench],
                             ids=lambda app: app.__name__.rsplit(".", 1)[-1])
    def test_no_change_reported_means_no_change(self, monkeypatch, app, build):
        run_pass = PassManager._run_pass
        runs = []

        def checked_run_pass(self, p, module):
            before = print_module(module, canonical=True)
            changed = run_pass(self, p, module)
            after = print_module(module, canonical=True)
            if not changed:
                assert after == before, f"{p.name} returned False but changed the module"
            if getattr(p, "idempotent", False):
                assert not type(p)().run(module, self.ctx), f"a second {p.name} changed"
                assert print_module(module, canonical=True) == after
            runs.append(p.name)
            return changed

        monkeypatch.setattr(PassManager, "_run_pass", checked_run_pass)
        compile_program_uncached(app.build_program(app.default_size()),
                                 build_options()[build])
        assert "cleanup" in runs and len(set(runs)) > 5


class _Reports:
    """A stub pass that changes nothing and reports *changed*."""

    def __init__(self, changed):
        self.name = "changed" if changed else "no-op"
        self.changed = changed

    def run(self, module, ctx):
        return self.changed


class TestIdempotentSkip:
    def test_cleanup_skipped_until_a_pass_reports_a_change(self):
        from repro.ir import Module
        from repro.passes import PassContext, PipelineStats
        from repro.passes.cleanup import CleanupPass

        ctx = PassContext(config=PipelineConfig(), stats=PipelineStats())
        PassManager([
            CleanupPass(), CleanupPass(), _Reports(False), CleanupPass(),
            _Reports(True), CleanupPass(), CleanupPass(),
        ], ctx).run(Module("m"))
        assert [t.name for t in ctx.stats.timings] == [
            "cleanup", "no-op", "changed", "cleanup"]

    def test_skip_state_does_not_outlive_a_run(self):
        from repro.ir import Module
        from repro.passes import PassContext, PipelineStats
        from repro.passes.cleanup import CleanupPass

        ctx = PassContext(config=PipelineConfig(), stats=PipelineStats())
        module = Module("m")
        for _ in range(2):
            PassManager([CleanupPass()], ctx).run(module)
        assert [t.name for t in ctx.stats.timings] == ["cleanup", "cleanup"]
