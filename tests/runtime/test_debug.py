"""§III-G: debug builds check, release builds carry zero overhead."""

import numpy as np
import pytest

from repro.ir import I64, PTR, VOID, Function, FunctionType, IRBuilder, verify_module
from repro.runtime.common import RuntimeBuilder
from repro.runtime.config import (
    DEBUG_ASSERTIONS,
    DEBUG_FUNCTION_TRACING,
    RuntimeConfig,
)
from repro.runtime.interface import NEW_RUNTIME
from repro.vgpu import LaunchSpec, TrapError, VirtualGPU
from tests.runtime.conftest import (
    add_saxpy_body,
    add_spmd_kernel,
    build_runtime_module,
    run_saxpy,
)


def assert_kernel(module, config, cond_value: int):
    """Kernel with one runtime assertion comparing its arg to 42."""
    rb = RuntimeBuilder(module, config)
    kern = module.add_function(Function(
        "kern", FunctionType(VOID, (I64,)), arg_names=["x"]))
    kern.attrs.add("kernel")
    b = IRBuilder(module, kern.add_block("entry"))
    rb.emit_assert(b, b.icmp("eq", kern.args[0], b.i64(42)), "x must be 42")
    b.ret()
    verify_module(module)
    return kern


class TestAssertions:
    def test_debug_build_traps_on_failure(self, module):
        config = RuntimeConfig(debug_kind=DEBUG_ASSERTIONS)
        assert_kernel(module, config, 7)
        gpu = VirtualGPU(module, env={"DEBUG": DEBUG_ASSERTIONS})
        with pytest.raises(TrapError, match="x must be 42"):
            gpu.run(LaunchSpec(kernel="kern", args=(7,)))

    def test_debug_build_passes_when_true(self, module):
        config = RuntimeConfig(debug_kind=DEBUG_ASSERTIONS)
        assert_kernel(module, config, 42)
        gpu = VirtualGPU(module, env={"DEBUG": DEBUG_ASSERTIONS})
        gpu.run(LaunchSpec(kernel="kern", args=(42,)))

    def test_debug_build_inactive_without_env(self, module):
        """Compiled in but not activated at runtime (the paper's
        compile-time flag + environment-variable activation)."""
        config = RuntimeConfig(debug_kind=DEBUG_ASSERTIONS)
        assert_kernel(module, config, 7)
        gpu = VirtualGPU(module)  # no DEBUG env
        gpu.run(LaunchSpec(kernel="kern", args=(7,)))  # check skipped

    def test_release_build_never_checks(self, module):
        config = RuntimeConfig(debug_kind=0)
        assert_kernel(module, config, 7)
        gpu = VirtualGPU(module, env={"DEBUG": DEBUG_ASSERTIONS})
        gpu.run(LaunchSpec(kernel="kern", args=(7,)))

    def test_release_assertion_becomes_assumption(self, module):
        """In release the condition is an llvm.assume — visible to the
        optimizer, checkable by the simulator's assumption mode."""
        from repro.vgpu import AssumptionViolation

        config = RuntimeConfig(debug_kind=0)
        assert_kernel(module, config, 7)
        gpu = VirtualGPU(module, debug_checks=True)
        with pytest.raises(AssumptionViolation):
            gpu.run(LaunchSpec(kernel="kern", args=(7,)))


class TestTracing:
    def test_tracing_logs_runtime_calls(self):
        config = RuntimeConfig(debug_kind=DEBUG_FUNCTION_TRACING)
        module = build_runtime_module(NEW_RUNTIME, config)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, NEW_RUNTIME, body)
        verify_module(module)
        gpu = VirtualGPU(module, env={"DEBUG": DEBUG_FUNCTION_TRACING})
        import numpy as np

        x = gpu.alloc_array(np.zeros(8))
        y = gpu.alloc_array(np.zeros(8))
        profile = gpu.run(LaunchSpec(kernel="kern", threads_per_team=4,
                                     args=(x, y, 1.0, 8))).profile
        assert "__kmpc_target_init" in profile.output
        assert "__kmpc_alloc_shared" in profile.output

    def test_tracing_silent_without_env(self):
        config = RuntimeConfig(debug_kind=DEBUG_FUNCTION_TRACING)
        module = build_runtime_module(NEW_RUNTIME, config)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, NEW_RUNTIME, body)
        gpu = VirtualGPU(module)
        import numpy as np

        x = gpu.alloc_array(np.zeros(8))
        y = gpu.alloc_array(np.zeros(8))
        profile = gpu.run(LaunchSpec(kernel="kern", threads_per_team=4,
                                     args=(x, y, 1.0, 8))).profile
        assert profile.output == []

    def test_release_build_has_no_trace_code(self):
        """Release runtime must not even contain tracing call sites."""
        module = build_runtime_module(NEW_RUNTIME, RuntimeConfig(debug_kind=0))
        from repro.ir.instructions import Call

        for func in module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, Call) and inst.callee is not None:
                    assert inst.callee.name != "rt.print_str"


class TestDebugOverheadElimination:
    def test_debug_paths_statically_removed_in_release(self):
        """§III-G: with debug compiled out, optimization removes every
        debug code path from the binary."""
        from repro.passes import PipelineConfig, run_openmp_opt_pipeline

        release = build_runtime_module(NEW_RUNTIME, RuntimeConfig(debug_kind=0))
        body = add_saxpy_body(release)
        add_spmd_kernel(release, NEW_RUNTIME, body)
        run_openmp_opt_pipeline(release, PipelineConfig())
        kern = release.get_function("kern")
        text_insts = sum(1 for _ in kern.instructions())

        debug = build_runtime_module(
            NEW_RUNTIME,
            RuntimeConfig(debug_kind=DEBUG_ASSERTIONS | DEBUG_FUNCTION_TRACING),
        )
        body_d = add_saxpy_body(debug)
        add_spmd_kernel(debug, NEW_RUNTIME, body_d)
        run_openmp_opt_pipeline(debug, PipelineConfig())
        kern_d = debug.get_function("kern")
        debug_insts = sum(1 for _ in kern_d.instructions())

        # The debug build retains its checks; release is strictly leaner.
        assert text_insts < debug_insts

    def test_debug_and_release_compute_same_result(self):
        for kind in (0, DEBUG_ASSERTIONS | DEBUG_FUNCTION_TRACING):
            module = build_runtime_module(NEW_RUNTIME, RuntimeConfig(debug_kind=kind))
            body = add_saxpy_body(module)
            add_spmd_kernel(module, NEW_RUNTIME, body)
            _, out, expected = run_saxpy(module, n=32, teams=1, threads=8,
                                         debug_checks=False)
            assert np.allclose(out, expected)
