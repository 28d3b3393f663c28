"""§VII — remaining challenges, and the ones this implementation already
covers beyond the paper's prototype."""

import pytest

from repro.apps.common import run_app
from repro.memory.addrspace import AddressSpace
from repro.ir import GlobalVariable, I64, PTR_GLOBAL
from repro.passes.barrier_elim import BarrierEliminationPass, _is_any_barrier
from repro.passes.pass_manager import PassContext, PipelineConfig
from tests.conftest import make_kernel


class TestLoopBoundsFromMemory:
    """Paper §VII: 'if a work-shared loop uses bounds loaded from memory
    … their side-effect will currently cause barrier elimination to
    consider the barrier as essential when it is in fact not.'

    Our barrier eliminator classifies loads as non-effects, so the
    paper's future-work item is already handled; this test pins that.
    """

    def test_loads_between_barriers_do_not_block_elimination(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["bounds"])
        b.store(b.i64(1), func.args[0])
        b.aligned_barrier()
        bound = b.load(I64, func.args[0], "n")  # bound loaded from memory
        b.aligned_barrier()
        b.store(bound, b.ptradd(func.args[0], 8))
        b.ret()
        BarrierEliminationPass().run(module, PassContext(config=PipelineConfig()))
        barriers = sum(1 for i in func.instructions() if _is_any_barrier(i))
        assert barriers == 1  # the redundant one is gone


class TestByReferenceAggregates:
    """Paper §VII: aggregates reach OpenMP kernels by reference, costing
    an extra load; LICM bounds it to one load per field per kernel."""

    def test_struct_field_loads_hoisted_out_of_loop(self):
        from repro.apps import xsbench
        from repro.frontend.driver import CompileOptions, Target

        result = run_app(xsbench, CompileOptions(Target.OPENMP_NEW))
        kern = result.compiled.kernel("xs_lookup")
        # Count loads through the conf pointer (the third-from-last arg).
        conf = kern.args[-1]
        from repro.ir.instructions import Load
        from repro.passes.cleanup import resolve_pointer_base
        from repro.ir.cfg import DominatorTree, predecessors

        dom = DominatorTree(kern)
        loop_headers = {
            succ
            for block in kern.blocks
            for succ in block.successors()
            if dom.dominates_block(succ, block)
        }
        conf_loads_in_loops = 0
        for block in kern.blocks:
            in_loop = any(dom.dominates_block(h, block) and h is not block
                          for h in loop_headers)
            for inst in block.instructions:
                if isinstance(inst, Load):
                    base, _ = resolve_pointer_base(inst.pointer)
                    if base is conf and in_loop:
                        conf_loads_in_loops += 1
        # The binary-search While loop is inside the kernel; conf field
        # loads must have been hoisted out of every loop.
        assert conf_loads_in_loops == 0

    def test_cuda_has_no_conf_loads_at_all(self):
        from repro.apps import xsbench
        from repro.frontend.driver import CompileOptions, Target

        result = run_app(xsbench, CompileOptions(Target.CUDA))
        kern = result.compiled.kernel("xs_lookup")
        # CUDA receives fields by value: no pointer-typed conf at all.
        from repro.ir.types import PointerType

        pointer_args = [a for a in kern.args if isinstance(a.type, PointerType)]
        assert len(pointer_args) == 5  # the data arrays only
