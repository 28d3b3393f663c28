"""Instruction constructors, classification and cloning."""

import pytest

from repro.ir import (
    Alloca,
    AtomicRMW,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    Constant,
    F64,
    FCmp,
    Function,
    FunctionType,
    I1,
    I32,
    I64,
    ICmp,
    Load,
    Module,
    Phi,
    PTR,
    PtrAdd,
    Ret,
    Select,
    Store,
    Unreachable,
    VOID,
)
from repro.ir.instructions import clone_instruction
from repro.ir.module import BasicBlock
from repro.ir.values import const_float, const_int, null_pointer


def c32(v):
    return const_int(v, I32)


class TestConstruction:
    def test_binop_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            BinOp("add", c32(1), Constant(I64, 1))

    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp("frobnicate", c32(1), c32(1))

    def test_icmp_result_is_i1(self):
        assert ICmp("slt", c32(1), c32(2)).type == I1

    def test_unknown_icmp_predicate(self):
        with pytest.raises(ValueError):
            ICmp("wat", c32(1), c32(2))

    def test_fcmp(self):
        inst = FCmp("olt", const_float(1.0), const_float(2.0))
        assert inst.type == I1 and inst.predicate == "olt"

    def test_select_requires_i1(self):
        with pytest.raises(TypeError):
            Select(c32(1), c32(1), c32(2))

    def test_select_arm_mismatch(self):
        from repro.ir.values import const_i1

        with pytest.raises(TypeError):
            Select(const_i1(True), c32(1), Constant(I64, 2))

    def test_load_requires_pointer(self):
        with pytest.raises(TypeError):
            Load(I32, c32(0))

    def test_store_requires_pointer(self):
        with pytest.raises(TypeError):
            Store(c32(1), c32(0))

    def test_ptradd_offset_must_be_int(self):
        with pytest.raises(TypeError):
            PtrAdd(null_pointer(), const_float(1.0))

    def test_condbr_requires_i1(self):
        b1, b2 = BasicBlock("a"), BasicBlock("b")
        with pytest.raises(TypeError):
            CondBr(c32(1), b1, b2)

    def test_atomicrmw_ops(self):
        inst = AtomicRMW("add", null_pointer(), c32(1))
        assert inst.operation == "add"
        with pytest.raises(ValueError):
            AtomicRMW("nand", null_pointer(), c32(1))


class TestClassification:
    def test_terminators(self):
        target = BasicBlock("bb")
        assert Br(target).is_terminator
        assert Ret().is_terminator
        assert Unreachable().is_terminator
        assert not BinOp("add", c32(1), c32(1)).is_terminator

    def test_side_effects(self):
        assert Store(c32(1), null_pointer()).may_have_side_effects()
        assert AtomicRMW("add", null_pointer(), c32(1)).may_have_side_effects()
        assert not BinOp("add", c32(1), c32(1)).may_have_side_effects()

    def test_call_side_effects_depend_on_callee(self):
        m = Module()
        pure = m.add_function(Function("p", FunctionType(I32, ())))
        pure.attrs.add("readnone")
        impure = m.add_function(Function("q", FunctionType(I32, ())))
        assert not Call(pure, [], I32).may_have_side_effects()
        assert Call(impure, [], I32).may_have_side_effects()

    def test_trivially_dead(self):
        dead = BinOp("add", c32(1), c32(1))
        assert dead.is_trivially_dead()
        live = BinOp("add", c32(1), c32(1))
        BinOp("mul", live, live)  # creates uses
        assert not live.is_trivially_dead()


class TestPhi:
    def test_incoming_bookkeeping(self):
        b1, b2 = BasicBlock("a"), BasicBlock("b")
        phi = Phi(I32)
        phi.add_incoming(c32(1), b1)
        phi.add_incoming(c32(2), b2)
        assert phi.incoming_value_for(b1).value == 1
        phi.remove_incoming(b1)
        assert len(phi.operands) == 1
        assert phi.incoming_blocks == [b2]
        with pytest.raises(KeyError):
            phi.incoming_value_for(b1)

    def test_remove_incoming_fixes_use_indices(self):
        b1, b2, b3 = BasicBlock("a"), BasicBlock("b"), BasicBlock("c")
        phi = Phi(I32)
        x, y, z = c32(1), c32(2), c32(3)
        phi.add_incoming(x, b1)
        phi.add_incoming(y, b2)
        phi.add_incoming(z, b3)
        phi.remove_incoming(b1)
        # y and z uses must have shifted down consistently.
        assert [u.index for u in y.uses] == [0]
        assert [u.index for u in z.uses] == [1]

    def test_type_mismatch_rejected(self):
        phi = Phi(I32)
        with pytest.raises(TypeError):
            phi.add_incoming(Constant(I64, 1), BasicBlock("a"))


class TestErase:
    def test_erase_with_uses_refuses(self, module):
        from tests.conftest import make_function

        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        b.ret(v)
        inst = v  # used by ret
        with pytest.raises(ValueError):
            inst.erase_from_parent()

    def test_erase_removes_operand_uses(self, module):
        from tests.conftest import make_function

        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        b.ret(func.args[0])
        v.erase_from_parent()
        assert all(u.user is not v for u in func.args[0].uses)


class TestClone:
    def test_clone_remaps_operands(self):
        a, b = c32(1), c32(2)
        inst = BinOp("add", a, b)
        c = c32(10)
        clone = clone_instruction(inst, {a: c})
        assert clone.lhs is c and clone.rhs is b
        assert clone is not inst

    def test_clone_every_kind(self, module):
        from tests.conftest import make_function

        func, b = make_function(module, params=(I32, PTR))
        x, p = func.args
        values = [
            b.add(x, 1),
            b.icmp("slt", x, c32(3)),
            b.fcmp("olt", const_float(1.0), const_float(2.0)),
            b.select(b.icmp("eq", x, c32(0)), x, c32(9)),
            b.sext(x, I64),
            b.alloca(I32),
            b.load(I32, p),
            b.ptradd(p, 8),
            b.atomic_rmw("add", p, x),
        ]
        b.store(x, p)
        b.ret(x)
        for inst in list(func.instructions()):
            clone = clone_instruction(inst, {})
            assert clone.opcode == inst.opcode
