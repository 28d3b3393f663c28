"""SPMDzation (§IV-A3) and globalization elimination (§IV-A2)."""

import numpy as np
import pytest

from repro.ir import Constant, I32, I64, PTR, PTR_GLOBAL, verify_module
from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.frontend.lower import lower_program_openmp
from repro.ir.instructions import Call
from repro.passes.cleanup import CleanupPass
from repro.passes.globalization import GlobalizationEliminationPass
from repro.passes.internalize import InternalizePass
from repro.passes.pass_manager import PassContext, PipelineConfig, PassManager
from repro.passes.spmdization import SPMDizationPass, _find_init_call
from repro.runtime.config import RuntimeConfig
from repro.vgpu import LaunchSpec, VirtualGPU


def generic_program(store_to_global=False):
    """A kernel with a sequential preamble (generic lowering)."""
    from repro.ir.types import F64

    body = [A.StoreIdx(A.Arg("out"), A.Var("iv"),
                       A.CastTo(A.Var("iv"), F64) * A.Var("scale"))]
    from repro.ir.types import F64

    preamble = [A.Let("scale", A.Const(2.5, F64), F64)]
    return A.Program("gen", kernels=[A.KernelDef(
        "kern",
        params=[A.Param("out", PTR), A.Param("n", I64)],
        trip_count=A.Arg("n"),
        body=body,
        preamble=preamble,
    )])


def prep(module, **kw):
    ctx = PassContext(config=PipelineConfig(**kw))
    PassManager([InternalizePass(), CleanupPass()], ctx).run(module)
    return ctx


class TestSPMDization:
    def test_generic_kernel_converted(self):
        module, _ = lower_program_openmp(generic_program(), "new", RuntimeConfig())
        ctx = prep(module)
        changed = SPMDizationPass().run(module, ctx)
        assert changed
        init = _find_init_call(module.get_function("kern"))
        assert isinstance(init.args[0], Constant) and init.args[0].value == 1
        assert ctx.remarks.contains("SPMD mode")

    def test_deinit_flipped_too(self):
        module, _ = lower_program_openmp(generic_program(), "new", RuntimeConfig())
        ctx = prep(module)
        SPMDizationPass().run(module, ctx)
        kern = module.get_function("kern")
        for inst in kern.instructions():
            if isinstance(inst, Call) and inst.callee is not None \
                    and inst.callee.name.startswith("__kmpc_target_deinit"):
                assert inst.args[0].value == 1

    def test_disabled_by_flag(self):
        module, _ = lower_program_openmp(generic_program(), "new", RuntimeConfig())
        ctx = prep(module, enable_spmdization=False)
        assert not SPMDizationPass().run(module, ctx)

    def test_semantics_preserved_end_to_end(self):
        compiled = compile_program(generic_program(),
                                   CompileOptions(Target.OPENMP_NEW))
        gpu = VirtualGPU(compiled.module)
        n = 64
        out = gpu.alloc_array(np.zeros(n))
        args = compiled.abi("kern").marshal(gpu, {"out": out, "n": n})
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=32,
                           args=args))
        got = gpu.read_array(out, np.float64, n)
        assert np.allclose(got, np.arange(n) * 2.5)

    def test_external_store_guarded(self):
        """Stores to global memory in the sequential region get a
        single-thread guard plus an aligned barrier."""
        from repro.ir.types import F64

        program = A.Program("gen", kernels=[A.KernelDef(
            "kern",
            params=[A.Param("flag", PTR), A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), A.Var("iv"), A.Const(1.0, F64))],
            preamble=[A.Let("unused", A.Const(1, I64), I64)],
        )])
        program.kernels[0].body = (
            A.StoreIdx(A.Arg("out"), A.Var("iv"), A.Const(1.0, F64)),
        )
        module, _ = lower_program_openmp(program, "new", RuntimeConfig())
        # Manually add a sequential global store into the kernel work
        # block, before the parallel call.
        kern = module.get_function("kern")
        from repro.ir import IRBuilder

        work = kern.blocks[1]
        b = IRBuilder(module, work)
        from repro.ir.instructions import Store
        from repro.ir.values import Constant as C

        store = Store(C(I64, 77), kern.args[0])
        work.insert(0, store)
        verify_module(module)
        ctx = prep(module)
        changed = SPMDizationPass().run(module, ctx)
        assert changed
        assert ctx.remarks.contains("guarded sequential store")
        verify_module(module)
        # Execute: the flag must be written exactly once per team.
        CleanupPass().run(module, ctx)
        gpu = VirtualGPU(module)
        flag = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        out = gpu.alloc_array(np.zeros(64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=32,
                           args=(flag, out, 64)))
        assert gpu.read_array(flag, np.int64, 1)[0] == 77

    @pytest.mark.parametrize("via", ["direct", "pass manager"])
    def test_cleanup_after_a_direct_pass_still_cleans(self, via):
        """prep() ends in a cleanup, and a PassManager may skip a cleanup
        that no change preceded; passes run outside the manager must not
        make the next cleanup look skippable."""
        from repro.passes.inline import InlinePass
        from repro.passes.pass_manager import module_instruction_count

        module, _ = lower_program_openmp(generic_program(), "new", RuntimeConfig())
        ctx = prep(module)
        assert SPMDizationPass().run(module, ctx)
        assert InlinePass().run(module, ctx)  # leaves dead runtime code
        before = module_instruction_count(module)
        if via == "direct":
            assert CleanupPass().run(module, ctx)
        else:
            assert PassManager([CleanupPass()], ctx).run(module)
        assert module_instruction_count(module) < before
        verify_module(module)

    def test_atomic_in_sequential_region_prevents_spmd(self):
        module, _ = lower_program_openmp(generic_program(), "new", RuntimeConfig())
        kern = module.get_function("kern")
        from repro.ir.instructions import AtomicRMW
        from repro.ir.values import Constant as C

        work = kern.blocks[1]
        work.insert(0, AtomicRMW("add", kern.args[0], C(I64, 1)))
        ctx = prep(module)
        assert not SPMDizationPass().run(module, ctx)
        assert ctx.remarks.contains("atomic")


class TestGlobalizationElimination:
    def _spmd_module(self):
        program = A.Program("c", kernels=[A.KernelDef(
            "kern",
            params=[A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), A.Var("iv"),
                             A.CastTo(A.Var("iv"), __import__("repro.ir.types", fromlist=["F64"]).F64))],
        )])
        return lower_program_openmp(program, "new", RuntimeConfig())[0]

    def test_spmd_capture_buffer_demoted(self):
        module = self._spmd_module()
        ctx = prep(module)
        changed = GlobalizationEliminationPass().run(module, ctx)
        assert changed
        assert ctx.remarks.contains("demoted")
        kern = module.get_function("kern")
        from repro.ir.instructions import Alloca

        assert any(isinstance(i, Alloca) for i in kern.instructions())
        assert not any(
            isinstance(i, Call) and i.callee is not None
            and i.callee.name == "__kmpc_alloc_shared"
            for i in kern.instructions()
        )

    def test_generic_kernel_buffer_kept_shared(self):
        module, _ = lower_program_openmp(generic_program(), "new", RuntimeConfig())
        ctx = prep(module)
        GlobalizationEliminationPass().run(module, ctx)
        kern = module.get_function("kern")
        assert any(
            isinstance(i, Call) and i.callee is not None
            and i.callee.name == "__kmpc_alloc_shared"
            for i in kern.instructions()
        )
        assert ctx.remarks.contains("generic-mode")

    def test_disabled_by_flag(self):
        module = self._spmd_module()
        ctx = prep(module, enable_globalization_elim=False)
        assert not GlobalizationEliminationPass().run(module, ctx)

    def test_escaping_allocation_not_demoted(self, module):
        """Allocation address passed to a non-runtime call stays shared
        (the MiniFMM recursion pattern)."""
        from repro.ir import Function, FunctionType, VOID
        from repro.runtime.interface import NEW_RUNTIME

        NEW_RUNTIME.populate(module, RuntimeConfig())
        sink = module.add_function(Function("sink", FunctionType(VOID, (PTR,)),
                                            linkage="internal"))
        from repro.ir import IRBuilder

        sb = IRBuilder(module, sink.add_block("entry"))
        sb.ret()
        from tests.conftest import make_kernel

        kern, b = make_kernel(module, params=())
        r = b.call(module.get_function("__kmpc_target_init"), [b.i32(1)])
        buf = b.call(module.get_function("__kmpc_alloc_shared"), [b.i64(16)])
        b.call(sink, [buf])
        b.call(module.get_function("__kmpc_free_shared"), [buf, b.i64(16)])
        b.call(module.get_function("__kmpc_target_deinit"), [b.i32(1)])
        b.ret()
        ctx = prep(module)
        GlobalizationEliminationPass().run(module, ctx)
        assert ctx.remarks.contains("escapes analysis")
