"""Module/Function/BasicBlock container behavior."""

import pytest

from repro.ir import (
    Br,
    Function,
    FunctionType,
    GlobalVariable,
    I32,
    Module,
    Phi,
    Ret,
    StructType,
    VOID,
    verify_module,
)
from tests.conftest import make_function


class TestBasicBlock:
    def test_append_past_terminator_rejected(self, module):
        func, b = make_function(module)
        b.ret(func.args[0])
        with pytest.raises(ValueError):
            b.ret(func.args[0])

    def test_successors(self, module):
        func, b = make_function(module)
        t1 = func.add_block("t1")
        t2 = func.add_block("t2")
        cond = b.icmp("eq", func.args[0], b.i32(0))
        b.cond_br(cond, t1, t2)
        assert func.entry.successors() == [t1, t2]

    def test_condbr_same_target_single_successor(self, module):
        func, b = make_function(module)
        t1 = func.add_block("t1")
        cond = b.icmp("eq", func.args[0], b.i32(0))
        b.cond_br(cond, t1, t1)
        assert func.entry.successors() == [t1]

    def test_phis_and_first_non_phi(self, module):
        func, b = make_function(module)
        bb = func.add_block("bb")
        phi = Phi(I32)
        bb.insert(0, phi)
        assert bb.phis() == [phi]
        assert bb.first_non_phi_index() == 1

    def test_unique_block_names(self, module):
        func, _ = make_function(module)
        a = func.add_block("loop")
        b2 = func.add_block("loop")
        assert a.name != b2.name


class TestBulkErasure:
    """``detach`` erases without touching the list; ``compact`` then
    rebuilds it once."""

    def _adds(self, module, n=6):
        func, b = make_function(module)
        x = func.args[0]
        adds = [b.add(x, i) for i in range(1, n + 1)]
        ret = b.ret(x)
        return func.entry, x, adds, ret

    def test_compact_keeps_survivors_in_order(self, module):
        block, _, adds, ret = self._adds(module)
        insts = block.instructions
        for inst in adds[::2]:
            block.detach(inst)
        assert block.instructions == [*adds, ret]  # still listed until compact
        assert all(inst.parent is None for inst in adds[::2])
        block.compact()
        assert block.instructions == [*adds[1::2], ret]
        assert block.instructions is insts  # in place
        verify_module(module)

    def test_operand_use_lists_lose_exactly_the_detached_uses(self, module):
        block, x, adds, ret = self._adds(module)
        consts = [inst.rhs for inst in adds]
        for inst in adds[::2]:
            block.detach(inst)
        assert [(u.user, u.index) for u in x.uses] == [
            *((inst, 0) for inst in adds[1::2]), (ret, 0)]
        for inst, const in zip(adds, consts):
            gone = inst.parent is None
            assert inst.operands == ([] if gone else [x, const])
            assert [(u.user, u.index) for u in const.uses] == ([] if gone else [(inst, 1)])

    def test_detach_of_a_used_instruction_raises(self, module):
        func, b = make_function(module)
        x = func.args[0]
        v = b.add(x, 1)
        b.ret(b.add(v, 2))
        with pytest.raises(ValueError):
            func.entry.detach(v)
        assert v.parent is func.entry and v.operands[0] is x
        assert any(u.user is v for u in x.uses)
        verify_module(module)

    def test_erase_from_parent_is_detach_plus_removal(self, module):
        block, x, adds, ret = self._adds(module, n=2)
        adds[0].erase_from_parent()
        assert block.instructions == [adds[1], ret]
        assert adds[0].parent is None and adds[0].operands == []
        assert [u.user for u in x.uses] == [adds[1], ret]


class TestFunction:
    def test_declaration_has_no_entry(self, module):
        func = module.declare("ext", FunctionType(VOID, ()))
        assert func.is_declaration
        with pytest.raises(ValueError):
            _ = func.entry

    def test_args_match_signature(self, module):
        func = Function("g", FunctionType(I32, (I32, I32)), arg_names=["a", "b"])
        assert [a.name for a in func.args] == ["a", "b"]
        assert all(a.parent is func for a in func.args)

    def test_kernel_flag(self, module):
        func, _ = make_function(module)
        assert not func.is_kernel
        func.attrs.add("kernel")
        assert func.is_kernel

    def test_add_block_after(self, module):
        func, _ = make_function(module)
        a = func.add_block("a")
        mid = func.add_block("mid", after=func.entry)
        assert func.blocks.index(mid) == 1
        assert func.blocks.index(a) == 2


class TestModule:
    def test_duplicate_function_rejected(self, module):
        make_function(module, "f")
        with pytest.raises(ValueError):
            module.add_function(Function("f", FunctionType(VOID, ())))

    def test_declare_idempotent(self, module):
        a = module.declare("x", FunctionType(VOID, ()))
        b = module.declare("x", FunctionType(VOID, ()))
        assert a is b

    def test_declare_conflicting_type_rejected(self, module):
        module.declare("x", FunctionType(VOID, ()))
        with pytest.raises(TypeError):
            module.declare("x", FunctionType(I32, ()))

    def test_remove_function_with_uses_refuses(self, module):
        callee, cb = make_function(module, "callee", ret=VOID, params=())
        cb.ret()
        caller, b = make_function(module, "caller", ret=VOID, params=())
        b.call(callee, [])
        b.ret()
        with pytest.raises(ValueError):
            module.remove_function(callee)

    def test_globals(self, module):
        gv = module.add_global(GlobalVariable("g", I32))
        assert module.get_global("g") is gv
        with pytest.raises(ValueError):
            module.add_global(GlobalVariable("g", I32))
        module.remove_global(gv)
        assert "g" not in module.globals

    def test_struct_types(self, module):
        ty = StructType("S", (("a", I32),))
        module.add_struct_type(ty)
        module.add_struct_type(ty)  # idempotent
        with pytest.raises(ValueError):
            module.add_struct_type(StructType("S", ()))

    def test_kernels_and_defined(self, module):
        func, b = make_function(module)
        b.ret(func.args[0])
        module.declare("d", FunctionType(VOID, ()))
        assert list(module.defined_functions()) == [func]
        assert module.kernels() == []
        func.attrs.add("kernel")
        assert module.kernels() == [func]
