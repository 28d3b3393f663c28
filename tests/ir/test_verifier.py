"""The structural verifier must catch each class of broken IR."""

import pytest

from repro.ir import (
    BinOp,
    Br,
    Call,
    Constant,
    Function,
    FunctionType,
    I32,
    Module,
    Phi,
    Ret,
    VerificationError,
    verify_module,
)
from repro.ir.values import const_int
from tests.conftest import make_function


def expect_error(module, fragment):
    with pytest.raises(VerificationError) as exc:
        verify_module(module)
    assert fragment in str(exc.value)


class TestVerifier:
    def test_accepts_valid_module(self, module):
        func, b = make_function(module)
        b.ret(b.add(func.args[0], 1))
        verify_module(module)

    def test_missing_terminator(self, module):
        func, b = make_function(module)
        b.add(func.args[0], 1)
        expect_error(module, "lacks a terminator")

    def test_empty_block(self, module):
        func, b = make_function(module)
        b.ret(func.args[0])
        func.add_block("empty")
        expect_error(module, "is empty")

    def test_phi_incoming_mismatch(self, module):
        func, b = make_function(module)
        bb = func.add_block("bb")
        b.br(bb)
        b.set_insert_point(bb)
        phi = b.phi(I32)
        # No incoming for the entry edge.
        b.ret(phi)
        expect_error(module, "incoming")

    def test_use_before_def_across_blocks(self, module):
        func, b = make_function(module)
        late = func.add_block("late")
        early = func.add_block("early")
        # entry branches to early, which branches to late; late defines
        # a value used in early -> dominance violation.
        b.br(early)
        b.set_insert_point(late)
        v = b.add(func.args[0], 1)
        b.ret(v)
        b.set_insert_point(early)
        use = BinOp("add", v, const_int(1, I32))
        early.instructions.insert(0, use)
        use.parent = early
        b.br(late)
        expect_error(module, "does not dominate")

    def test_use_before_def_in_same_block(self, module):
        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        w = b.add(v, 2)
        b.ret(w)
        insts = func.entry.instructions
        insts[0], insts[1] = insts[1], insts[0]  # w now precedes v
        expect_error(module, "def of operand 0 of add in entry does not dominate use")

    def test_call_arity_checked(self, module):
        callee, cb = make_function(module, "callee", params=(I32, I32))
        cb.ret(callee.args[0])
        caller, b = make_function(module, "caller")
        call = Call(callee, [caller.args[0]], I32)
        b.block.append(call)
        b.ret(call)
        expect_error(module, "expected 2")

    def test_use_list_consistency(self, module):
        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        b.ret(v)
        # Corrupt the use list.
        v.uses.clear()
        expect_error(module, "missing use-list entry")

    def test_foreign_operand(self, module):
        func_a, ba = make_function(module, "a")
        va = ba.add(func_a.args[0], 1)
        ba.ret(va)
        func_b, bb = make_function(module, "b")
        inst = BinOp("add", va, const_int(1, I32))
        bb.block.append(inst)
        bb.ret(inst)
        expect_error(module, "foreign operand")

    def test_error_includes_function_name(self, module):
        func, b = make_function(module, name="broken")
        b.add(func.args[0], 1)
        with pytest.raises(VerificationError) as exc:
            verify_module(module)
        assert "@broken" in str(exc.value)
