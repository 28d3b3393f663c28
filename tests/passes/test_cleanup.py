"""Cleanup passes: fold/DCE worklist, CFG simplification, dead globals."""

import pytest

from repro.memory.addrspace import AddressSpace
from repro.ir import (
    Constant,
    GlobalVariable,
    I1,
    I32,
    I64,
    PTR,
    verify_module,
)
from repro.passes.cleanup import (
    CleanupPass,
    remove_dead_functions,
    remove_dead_globals,
    resolve_pointer_base,
    run_fold_dce,
    run_simplify_cfg,
)
from repro.passes.pass_manager import PassContext, PipelineConfig
from tests.conftest import make_function, make_kernel


def ctx():
    return PassContext(config=PipelineConfig())


class TestResolvePointerBase:
    def test_ptradd_chain(self, module):
        func, b = make_function(module, params=(PTR,))
        p = b.ptradd(b.ptradd(func.args[0], 8), 16)
        base, off = resolve_pointer_base(p)
        assert base is func.args[0] and off == 24

    def test_inttoptr_roundtrip(self, module):
        func, b = make_function(module, params=(PTR,))
        v = b.cast("ptrtoint", func.args[0], I64)
        p = b.cast("inttoptr", v, PTR)
        base, off = resolve_pointer_base(p)
        assert base is func.args[0] and off == 0

    def test_dynamic_offset_unresolved(self, module):
        func, b = make_function(module, params=(PTR, I64), arg_names=["p", "i"])
        p = b.ptradd(func.args[0], func.args[1])
        base, off = resolve_pointer_base(p)
        assert base is None and off is None


class TestInstCombine:
    def test_folds_through_dependent_chain(self, module):
        func, b = make_function(module)
        # (x * 0) + 5 -> 5 ; then icmp 5 == 5 -> true
        v = b.mul(func.args[0], 0)
        w = b.add(v, 5) if not isinstance(v, Constant) else b.i32(5)
        cmp = b.icmp("eq", w, b.i32(5))
        b.ret(b.zext(cmp, I32))
        run_fold_dce(func)
        assert sum(1 for _ in func.instructions()) <= 2  # zext+ret at most

    def test_constant_global_load_folds(self, module):
        gv = module.add_global(GlobalVariable(
            "flag", I32, addrspace=AddressSpace.CONSTANT,
            initializer=[Constant(I32, 1)], is_constant=True))
        func, b = make_function(module)
        v = b.load(I32, gv)
        b.ret(v)
        run_fold_dce(func)
        ret = func.entry.instructions[-1]
        assert isinstance(ret.return_value, Constant)
        assert ret.return_value.value == 1

    def test_mutable_global_load_not_folded(self, module):
        gv = module.add_global(GlobalVariable("state", I32))
        func, b = make_function(module)
        v = b.load(I32, gv)
        b.ret(v)
        run_fold_dce(func)
        assert any(i.opcode == "load" for i in func.instructions())

    def test_ptradd_chain_combines(self, module):
        func, b = make_function(module, params=(PTR,))
        from repro.ir.instructions import PtrAdd, Load

        p1 = PtrAdd(func.args[0], Constant(I64, 8))
        b.block.append(p1)
        p2 = PtrAdd(p1, Constant(I64, 16))
        b.block.append(p2)
        ld = Load(I32, p2)
        b.block.append(ld)
        b.ret(ld)
        run_fold_dce(func)
        loads = [i for i in func.instructions() if i.opcode == "load"]
        base, off = resolve_pointer_base(loads[0].pointer)
        assert off == 24

    def test_same_base_pointer_compare_folds(self, module):
        """The free_shared in-range check pattern."""
        gv = module.add_global(GlobalVariable("stack", I64, addrspace=AddressSpace.SHARED))
        func, b = make_function(module)
        lo = b.cast("ptrtoint", gv, I64)
        p = b.add(lo, b.i64(32))
        hi = b.add(lo, b.i64(128))
        in_lo = b.icmp("uge", p, lo)
        in_hi = b.icmp("ult", p, hi)
        both = b.and_(in_lo, in_hi)
        b.ret(b.zext(both, I32))
        run_fold_dce(func)
        ret = func.entry.instructions[-1]
        assert isinstance(ret.return_value, Constant)
        assert ret.return_value.value == 1


class TestDCE:
    def test_dead_pure_chain_removed(self, module):
        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        b.mul(v, 2)  # dead
        b.ret(func.args[0])
        run_fold_dce(func)
        assert sum(1 for _ in func.instructions()) == 1  # just ret

    def test_stores_never_removed_by_dce(self, module):
        func, b = make_function(module, params=(PTR,))
        b.store(b.function.args[0], func.args[0])
        b.ret(b.i32(0))
        run_fold_dce(func)
        assert any(i.opcode == "store" for i in func.instructions())

    def test_assumes_survive_dce(self, module):
        func, b = make_function(module)
        b.assume(b.icmp("eq", func.args[0], b.i32(1)))
        b.ret(func.args[0])
        run_fold_dce(func)
        from repro.ir.instructions import Call

        assert any(
            isinstance(i, Call) and i.callee.name == "llvm.assume"
            for i in func.instructions()
        )


class TestFoldDCEWorklist:
    """Changes after the first sweep are found through the worklist."""

    def test_fold_enables_an_earlier_loop_header_phi(self, module):
        from repro.ir.instructions import BinOp, Phi

        func, b = make_function(module, params=(I32, I32), arg_names=["x", "n"])
        header = func.add_block("header")
        latch = func.add_block("latch")
        exit_ = func.add_block("exit")
        b.br(header)
        b.set_insert_point(header)
        phi = b.phi(I32, "p")
        b.cond_br(b.icmp("slt", phi, func.args[1]), latch, exit_)
        b.set_insert_point(latch)
        # x * 1 folds to x after the sweep passed the phi, which then
        # sees [x, x] and folds too.
        nxt = BinOp("mul", func.args[0], Constant(I32, 1))
        latch.append(nxt)
        b.br(header)
        phi.add_incoming(func.args[0], func.entry)
        phi.add_incoming(nxt, latch)
        b.set_insert_point(exit_)
        b.ret(phi)
        assert run_fold_dce(func)
        verify_module(module)
        assert not any(isinstance(i, Phi) for i in func.instructions())
        assert exit_.instructions[-1].return_value is func.args[0]

    def test_dead_operand_chain_removed_through_operand_push(self, module):
        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        w = b.mul(v, 3)
        b.xor(w, 5)  # dead; erasing it leaves w, then v, dead
        b.ret(func.args[0])
        assert run_fold_dce(func)
        assert [i.opcode for i in func.instructions()] == ["ret"]

    def test_ptradd_chain_of_three_combines(self, module):
        """The last link sits earlier in layout, so it combines with an
        uncombined middle link first and the combined ptradd must be
        revisited."""
        from repro.ir.instructions import Load, PtrAdd

        func, b = make_function(module, params=(PTR,))
        use = func.add_block("use")
        base = func.add_block("base")
        b.br(base)
        p1 = PtrAdd(func.args[0], Constant(I64, 8))
        p2 = PtrAdd(p1, Constant(I64, 16))
        for inst in (p1, p2):
            base.append(inst)
        b.set_insert_point(base)
        b.br(use)
        p3 = PtrAdd(p2, Constant(I64, 32))
        ld = Load(I32, p3)
        for inst in (p3, ld):
            use.append(inst)
        b.set_insert_point(use)
        b.ret(ld)
        assert run_fold_dce(func)
        verify_module(module)
        ptradds = [i for i in func.instructions() if isinstance(i, PtrAdd)]
        assert len(ptradds) == 1
        assert ptradds[0].pointer is func.args[0]
        assert ptradds[0].offset.value == 56

    def test_fold_below_a_pointer_chain_revisits_the_load_above(self, module):
        """The load sits earlier in layout than the offset that folds, so
        only the chain-link push brings it back."""
        from repro.ir.instructions import BinOp, Load, PtrAdd

        gv = module.add_global(GlobalVariable(
            "table", I32, addrspace=AddressSpace.CONSTANT,
            initializer=[Constant(I32, v) for v in (10, 20, 30)],
            is_constant=True))
        func, b = make_function(module)
        use = func.add_block("use")
        base = func.add_block("base")
        b.br(base)
        off = BinOp("add", Constant(I64, 2), Constant(I64, 2))
        p1 = PtrAdd(gv, off)
        for inst in (off, p1):
            base.append(inst)
        b.set_insert_point(base)
        b.br(use)
        p2 = PtrAdd(p1, Constant(I64, 4))
        ld = Load(I32, p2)
        for inst in (p2, ld):
            use.append(inst)
        b.set_insert_point(use)
        b.ret(ld)
        assert run_fold_dce(func)
        verify_module(module)
        ret = use.instructions[-1]
        assert isinstance(ret.return_value, Constant)
        assert ret.return_value.value == 30

    def test_constant_condbr_fold_leaves_a_single_incoming_phi(self, module):
        """fold -> simplifycfg -> fold: the icmp folds, the branch folds
        and drops one phi edge, and the phi left with one incoming value
        folds in the next worklist run."""
        from repro.ir.instructions import ICmp, Phi, Ret

        func, b = make_function(module, params=(I32, I1), arg_names=["x", "c"])
        then = func.add_block("then")
        merge = func.add_block("merge")
        other = func.add_block("other")
        cond = ICmp("eq", func.args[0], func.args[0])  # always true
        func.entry.append(cond)
        b.cond_br(cond, then, merge)
        b.set_insert_point(then)
        b.cond_br(func.args[1], merge, other)  # keeps merge from merging
        b.set_insert_point(merge)
        phi = b.phi(I32, "p")
        phi.add_incoming(b.i32(1), then)
        phi.add_incoming(b.i32(2), func.entry)
        b.ret(phi)
        b.set_insert_point(other)
        b.ret(b.i32(3))
        assert CleanupPass().run(module, ctx())
        verify_module(module)
        assert not any(isinstance(i, Phi) for i in func.instructions())
        rets = [i.return_value for i in func.instructions() if isinstance(i, Ret)]
        assert sorted(r.value for r in rets) == [1, 3]
        assert not CleanupPass().run(module, ctx())  # already at its fixpoint

    def test_block_merge_revisits_the_users_of_its_phi(self, module):
        """The branch fold leaves the phi one edge and the merge in the
        same round replaces it; only the merge can requeue the icmp."""
        func, b = make_function(module)
        side = func.add_block("side")
        join = func.add_block("join")
        b.cond_br(b.i1(True), join, side)
        b.set_insert_point(side)
        b.br(join)
        b.set_insert_point(join)
        phi = b.phi(I32, "p")
        phi.add_incoming(b.i32(5), func.entry)
        phi.add_incoming(b.i32(7), side)
        b.ret(b.zext(b.icmp("eq", phi, b.i32(5)), I32))
        assert CleanupPass().run(module, ctx())
        verify_module(module)
        assert [i.opcode for i in func.instructions()] == ["ret"]
        assert func.entry.instructions[-1].return_value.value == 1

    def test_removed_block_releases_its_live_operands(self, module):
        from repro.ir.instructions import BinOp

        func, b = make_function(module)
        then = func.add_block("then")
        dead = func.add_block("dead")
        v = BinOp("add", func.args[0], Constant(I32, 1))  # only used in dead
        func.entry.append(v)
        b.cond_br(b.i1(True), then, dead)
        b.set_insert_point(then)
        b.ret(func.args[0])
        b.set_insert_point(dead)
        b.ret(v)
        assert CleanupPass().run(module, ctx())
        verify_module(module)
        assert [i.opcode for i in func.instructions()] == ["ret"]


class TestSimplifyCFG:
    def test_constant_branch_folds_and_removes_dead_block(self, module):
        func, b = make_function(module)
        then = func.add_block("then")
        els = func.add_block("els")
        b.cond_br(b.i1(True), then, els)
        b.set_insert_point(then)
        b.ret(b.i32(1))
        b.set_insert_point(els)
        b.ret(b.i32(2))
        run_simplify_cfg(func)
        assert len(func.blocks) == 1  # merged into entry
        verify_module(module)

    def test_phi_updated_when_edge_removed(self, module):
        func, b = make_function(module)
        then = func.add_block("then")
        merge = func.add_block("merge")
        b.cond_br(b.i1(True), then, merge)
        b.set_insert_point(then)
        b.br(merge)
        b.set_insert_point(merge)
        phi = b.phi(I32, "p")
        phi.add_incoming(b.i32(7), then)
        phi.add_incoming(b.i32(9), func.entry)
        b.ret(phi)
        run_simplify_cfg(func)
        run_fold_dce(func)
        verify_module(module)
        ret = func.blocks[-1].instructions[-1]
        assert isinstance(ret.return_value, Constant)
        assert ret.return_value.value == 7

    def test_straightline_blocks_merge(self, module):
        func, b = make_function(module)
        b2 = func.add_block("b2")
        b3 = func.add_block("b3")
        b.br(b2)
        b.set_insert_point(b2)
        b.br(b3)
        b.set_insert_point(b3)
        b.ret(func.args[0])
        run_simplify_cfg(func)
        assert len(func.blocks) == 1

    def test_loops_preserved(self, module):
        func, b = make_function(module)
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        b.br(header)
        b.set_insert_point(header)
        iv = b.phi(I32, "iv")
        iv.add_incoming(b.i32(0), func.entry)
        b.cond_br(b.icmp("slt", iv, func.args[0]), body, exit_)
        b.set_insert_point(body)
        nxt = b.add(iv, 1)
        iv.add_incoming(nxt, body)
        b.br(header)
        b.set_insert_point(exit_)
        b.ret(iv)
        before = len(func.blocks)
        run_simplify_cfg(func)
        verify_module(module)
        assert any(len(blk.successors()) == 2 for blk in func.blocks)


class TestDeadGlobalsAndFunctions:
    def test_unreferenced_global_removed(self, module):
        module.add_global(GlobalVariable("dead", I32))
        func, b = make_kernel(module, params=())
        b.ret()
        remove_dead_globals(module)
        assert "dead" not in module.globals

    def test_referenced_global_kept(self, module):
        gv = module.add_global(GlobalVariable("live", I32))
        func, b = make_kernel(module, params=())
        b.load(I32, gv, volatile=True)
        b.ret()
        remove_dead_globals(module)
        assert "live" in module.globals

    def test_unreferenced_internal_function_removed(self, module):
        dead, db = make_function(module, "dead")
        dead.linkage = "internal"
        db.ret(dead.args[0])
        func, b = make_kernel(module, params=())
        b.ret()
        remove_dead_functions(module)
        assert "dead" not in module.functions

    def test_kernel_never_removed(self, module):
        func, b = make_kernel(module, params=())
        b.ret()
        remove_dead_functions(module)
        assert "kern" in module.functions

    def test_transitively_dead_chain_removed(self, module):
        inner, ib = make_function(module, "inner")
        inner.linkage = "internal"
        ib.ret(inner.args[0])
        outer, ob = make_function(module, "outer")
        outer.linkage = "internal"
        ob.ret(ob.call(inner, [outer.args[0]]))
        kern, kb = make_kernel(module, params=())
        kb.ret()
        cleanup = CleanupPass()
        cleanup.run(module, ctx())
        assert "inner" not in module.functions
        assert "outer" not in module.functions
