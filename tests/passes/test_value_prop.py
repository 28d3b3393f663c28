"""Inter-procedural conditional value propagation (§IV-B)."""

import pytest

from repro.memory.addrspace import AddressSpace
from repro.ir import (
    ArrayType,
    Constant,
    GlobalVariable,
    I32,
    I64,
    PTR,
    PTR_GLOBAL,
    verify_module,
)
from repro.passes.cleanup import CleanupPass
from repro.passes.pass_manager import PassContext, PipelineConfig
from repro.passes.value_prop import (
    DeadStateStoreElimination,
    ValuePropagationPass,
)
from tests.conftest import make_function, make_kernel


def ctx(**kw):
    return PassContext(config=PipelineConfig(**kw))


def run_vp(module, **kw):
    context = ctx(**kw)
    ValuePropagationPass().run(module, context)
    CleanupPass().run(module, context)
    return context


def returned_constant(func):
    term = None
    for block in func.blocks:
        t = block.terminator
        if t is not None and t.opcode == "ret" and t.return_value is not None:
            term = t
    assert term is not None
    return term.return_value


class TestZeroPage:
    def test_unknown_offset_load_of_zero_object_folds(self, module):
        """The thread-states array deduction: a zero-initialized array
        whose writes all store zero reads as zero at ANY offset."""
        gv = module.add_global(GlobalVariable(
            "slots", ArrayType(I64, 16), addrspace=AddressSpace.SHARED))
        func, b = make_function(module, ret=I64, params=(I64,), arg_names=["i"])
        b.store(b.i64(0), b.ptradd(gv, 8))  # zero store: harmless
        addr = b.ptradd(gv, b.mul(func.args[0], b.i64(8)))
        v = b.load(I64, addr)
        b.ret(v)
        run_vp(module)
        rv = returned_constant(func)
        assert isinstance(rv, Constant) and rv.value == 0

    def test_nonzero_store_blocks_zero_page(self, module):
        gv = module.add_global(GlobalVariable(
            "slots", ArrayType(I64, 16), addrspace=AddressSpace.SHARED))
        func, b = make_function(module, ret=I64, params=(I64,))
        b.store(b.i64(5), b.ptradd(gv, 8))
        v = b.load(I64, b.ptradd(gv, b.mul(func.args[0], b.i64(8))))
        b.ret(v)
        run_vp(module)
        assert not isinstance(returned_constant(func), Constant)

    def test_initializer_blocks_zero_page(self, module):
        gv = module.add_global(GlobalVariable(
            "init", I64, addrspace=AddressSpace.SHARED,
            initializer=[Constant(I64, 9)]))
        func, b = make_function(module, ret=I64, params=(I64,))
        v = b.load(I64, gv)
        b.ret(v)
        run_vp(module)
        assert not isinstance(returned_constant(func), Constant)

    def test_atomic_blocks_zero_page(self, module):
        gv = module.add_global(GlobalVariable("ctr", I64, addrspace=AddressSpace.SHARED))
        func, b = make_function(module, ret=I64, params=(I64,))
        b.atomic_rmw("add", gv, b.i64(0))
        v = b.load(I64, gv)
        b.ret(v)
        run_vp(module)
        assert not isinstance(returned_constant(func), Constant)


class TestFlowSensitiveFacts:
    def test_unconditional_store_forwarded(self, module):
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        b.store(b.i32(7), gv)
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module)
        assert not any(
            i.opcode == "load" and i.type == I32 for i in func.instructions()
        )

    def test_store_of_ssa_value_forwarded(self, module):
        gv = module.add_global(GlobalVariable("x", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL, I64), arg_names=["out", "v"])
        b.store(func.args[1], gv)
        v = b.load(I64, gv)
        b.store(v, func.args[0])
        b.ret()
        run_vp(module)
        stores = [i for i in func.instructions() if i.opcode == "store"]
        # The store to out now uses the argument directly.
        assert stores[-1].value is func.args[1]

    def test_intervening_clobber_blocks_forwarding(self, module):
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL, I32), arg_names=["out", "v"])
        b.store(b.i32(7), gv)
        b.store(func.args[1], gv)  # unknown value overwrites
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        context = run_vp(module)
        # load folds to the argument (ssa), which is correct forwarding —
        # but never to the constant 7.
        stores = [i for i in func.instructions() if i.opcode == "store"]
        assert all(
            not (isinstance(s.value, Constant) and s.value.value == 7)
            for s in stores
            if s.pointer is func.args[0]
        )

    def test_conditional_write_not_a_fact(self, module):
        """Fig. 7b: a select-pointer store alone cannot establish content."""
        state = module.add_global(GlobalVariable("state", I32, addrspace=AddressSpace.SHARED))
        dummy = module.add_global(GlobalVariable("dummy", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        cond = b.icmp("eq", b.thread_id(), b.i32(0))
        b.store(b.i32(9), b.select(cond, state, dummy))
        v = b.load(I32, state)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module)
        assert any(i.opcode == "load" for i in func.instructions())

    def test_assume_after_conditional_write_establishes_fact(self, module):
        """Fig. 8b: the assumption after the broadcast barrier is what
        lets later loads fold (§IV-B3)."""
        state = module.add_global(GlobalVariable("state", I32, addrspace=AddressSpace.SHARED))
        dummy = module.add_global(GlobalVariable("dummy", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        cond = b.icmp("eq", b.thread_id(), b.i32(0))
        b.store(b.i32(9), b.select(cond, state, dummy))
        b.aligned_barrier()
        anchor = b.load(I32, state)
        b.assume(b.icmp("eq", anchor, b.i32(9)))
        v = b.load(I32, state)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module)
        stores = [i for i in func.instructions()
                  if i.opcode == "store" and i.pointer is func.args[0]]
        from repro.ir.instructions import Cast

        val = stores[0].value
        assert isinstance(val, Constant) or (
            isinstance(val, Cast) and isinstance(val.source, Constant)
        )

    def test_assume_disabled_by_flag(self, module):
        state = module.add_global(GlobalVariable("state", I32, addrspace=AddressSpace.SHARED))
        dummy = module.add_global(GlobalVariable("dummy", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        cond = b.icmp("eq", b.thread_id(), b.i32(0))
        b.store(b.i32(9), b.select(cond, state, dummy))
        anchor = b.load(I32, state)
        b.assume(b.icmp("eq", anchor, b.i32(9)))
        v = b.load(I32, state)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module, enable_assumed_content=False)
        loads = [i for i in func.instructions() if i.opcode == "load"]
        assert len(loads) >= 2  # nothing folded

    def test_kernel_entry_shared_state_is_zero(self, module):
        """Shared memory is freshly zeroed per team at kernel entry."""
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.store(b.i32(5), gv)  # later write must not affect the first load
        b.ret()
        run_vp(module)
        stores = [i for i in func.instructions()
                  if i.opcode == "store" and i.pointer is func.args[0]]
        from repro.ir.instructions import Cast

        val = stores[0].value
        if isinstance(val, Cast):
            val = val.source
        assert isinstance(val, Constant) and val.value == 0

    def test_non_kernel_entry_state_unknown(self, module):
        """Device functions can be entered mid-kernel: no entry facts —
        the MiniFMM residual-overhead mechanism."""
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        func, b = make_function(module, "helper", ret=I32, params=())
        func.linkage = "internal"
        v = b.load(I32, gv)
        b.ret(v)
        # Keep helper alive via a kernel caller that also writes gv.
        kern, kb = make_kernel(module, params=(PTR_GLOBAL,))
        r = kb.call(func, [])
        kb.store(kb.sext(r, I64), kern.args[0])
        kb.store(kb.i32(3), gv)
        kb.ret()
        run_vp(module)
        assert any(i.opcode == "load" for i in func.instructions())

    def test_invariant_store_forwarded_as_intrinsic(self, module):
        """§IV-B4: values recomputable from grid geometry."""
        gv = module.add_global(GlobalVariable("ts", I32, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        b.store(b.block_dim(), gv)
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module)
        # No remaining i32 loads; a block_dim call feeds the store.
        assert not any(i.opcode == "load" for i in func.instructions())

    def test_invariant_prop_flag_off(self, module):
        gv = module.add_global(GlobalVariable("ts", I32, addrspace=AddressSpace.SHARED))
        dummy = module.add_global(GlobalVariable("dummy", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        # Conditional broadcast write kills the entry-zero fact; only the
        # invariant-valued assume could re-establish content.
        cond = b.icmp("eq", b.thread_id(), b.i32(0))
        b.store(b.block_dim(), b.select(cond, gv, dummy))
        b.aligned_barrier()
        anchor = b.load(I32, gv)
        b.assume(b.icmp("eq", anchor, b.block_dim()))
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module, enable_invariant_prop=False)
        loads = [i for i in func.instructions() if i.opcode == "load"]
        assert len(loads) >= 2

    def test_invariant_assume_folds_with_flag_on(self, module):
        gv = module.add_global(GlobalVariable("ts", I32, addrspace=AddressSpace.SHARED))
        dummy = module.add_global(GlobalVariable("dummy", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        cond = b.icmp("eq", b.thread_id(), b.i32(0))
        b.store(b.block_dim(), b.select(cond, gv, dummy))
        b.aligned_barrier()
        anchor = b.load(I32, gv)
        b.assume(b.icmp("eq", anchor, b.block_dim()))
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module)
        # The consumer load folds to a recomputed block_dim call; only
        # the assume's own anchor load may remain.
        loads = [i for i in func.instructions() if i.opcode == "load"]
        assert len(loads) == 1


class TestCallEffects:
    def test_call_to_writer_kills_facts(self, module):
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        writer, wb = make_function(module, "writer", ret=I32, params=())
        writer.linkage = "internal"
        writer.attrs.add("noinline")
        wb.store(wb.i32(5), gv)
        wb.ret(wb.i32(0))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        b.store(b.i32(7), gv)
        b.call(writer, [])
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module)
        assert any(i.opcode == "load" and i.type == I32 for i in func.instructions())

    def test_call_to_nonwriter_preserves_facts(self, module):
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        idle, ib = make_function(module, "idle", ret=I32, params=())
        idle.linkage = "internal"
        idle.attrs.add("noinline")
        ib.ret(ib.i32(0))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        b.store(b.i32(7), gv)
        b.call(idle, [])
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        run_vp(module)
        assert not any(
            i.opcode == "load" and i.type == I32 for i in func.instructions()
        )

    def test_indirect_call_kills_writes_of_a_cast_address(self, module):
        """A function whose address escapes only through a cast may be
        the target of an indirect call, which then overwrites x."""
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        writer, wb = make_function(module, "writer", ret=I32, params=())
        writer.linkage = "internal"
        wb.store(wb.i32(5), gv)
        wb.ret(wb.i32(0))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        b.store(b.i32(7), gv)
        target = b.cast("inttoptr", b.cast("ptrtoint", writer, I64), PTR)
        b.call_indirect(target, [], I32)
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        verify_module(module)
        run_vp(module)
        assert any(i.opcode == "load" and i.type == I32 for i in func.instructions())


class TestDeadStateStoreElimination:
    def test_unread_state_stores_removed(self, module):
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=())
        b.store(b.i32(7), gv)
        b.store(b.i32(8), gv)
        b.ret()
        context = ctx()
        DeadStateStoreElimination().run(module, context)
        CleanupPass().run(module, context)
        assert not any(i.opcode == "store" for i in func.instructions())
        assert "x" not in module.globals  # the SMem -> 0 effect

    def test_read_state_stores_kept(self, module):
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,))
        b.store(b.i32(7), gv)
        v = b.load(I32, gv, volatile=True)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        DeadStateStoreElimination().run(module, ctx())
        assert sum(1 for i in func.instructions() if i.opcode == "store") == 2

    def test_conditional_store_removed_when_all_targets_dead(self, module):
        state = module.add_global(GlobalVariable("state", I32, addrspace=AddressSpace.SHARED))
        dummy = module.add_global(GlobalVariable("dummy", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=())
        cond = b.icmp("eq", b.thread_id(), b.i32(0))
        b.store(b.i32(9), b.select(cond, state, dummy))
        b.ret()
        context = ctx()
        DeadStateStoreElimination().run(module, context)
        CleanupPass().run(module, context)
        assert not any(i.opcode == "store" for i in func.instructions())
        assert not module.globals

    def test_conditional_store_kept_when_one_target_read(self, module):
        state = module.add_global(GlobalVariable("state", I32, addrspace=AddressSpace.SHARED))
        dummy = module.add_global(GlobalVariable("dummy", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,))
        cond = b.icmp("eq", b.thread_id(), b.i32(0))
        b.store(b.i32(9), b.select(cond, state, dummy))
        v = b.load(I32, state, volatile=True)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        DeadStateStoreElimination().run(module, ctx())
        assert sum(1 for i in func.instructions() if i.opcode == "store") == 2

    def test_store_to_external_memory_never_removed(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,))
        b.store(b.i64(1), func.args[0])
        b.ret()
        DeadStateStoreElimination().run(module, ctx())
        assert any(i.opcode == "store" for i in func.instructions())

    def test_disabled_with_field_sensitive_off(self, module):
        gv = module.add_global(GlobalVariable("x", I32, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=())
        b.store(b.i32(7), gv)
        b.ret()
        DeadStateStoreElimination().run(module, ctx(enable_field_sensitive=False))
        assert any(i.opcode == "store" for i in func.instructions())
