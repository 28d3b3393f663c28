"""The structural verifier must catch each class of broken IR.

Every message the verifier can emit is pinned by exact text: one test
per message, each checking the whole error list, so a rewrite of the
verifier that drops, rewords or reorders a message fails here.
"""

import pytest

from repro.ir import (
    BinOp,
    Call,
    GlobalVariable,
    I32,
    Phi,
    Ret,
    VerificationError,
    verify_module,
)
from repro.ir.values import const_int
from tests.conftest import make_function


def expect_errors(module, errors):
    with pytest.raises(VerificationError) as exc:
        verify_module(module)
    assert exc.value.errors == errors


class TestVerifier:
    def test_accepts_valid_module(self, module):
        func, b = make_function(module)
        b.ret(b.add(func.args[0], 1))
        verify_module(module)

    def test_block_with_wrong_parent(self, module):
        func, b = make_function(module)
        b.ret(func.args[0])
        func.entry.parent = None
        expect_errors(module, ["@f: block entry has wrong parent"])

    def test_missing_terminator(self, module):
        func, b = make_function(module)
        b.add(func.args[0], 1)
        expect_errors(module, ["@f: block entry lacks a terminator"])

    def test_empty_block(self, module):
        func, b = make_function(module)
        b.ret(func.args[0])
        func.add_block("empty")
        expect_errors(module, ["@f: block empty is empty"])

    def test_instruction_with_wrong_parent(self, module):
        func, b = make_function(module)
        other = func.add_block("other")
        v = b.add(func.args[0], 1)
        b.ret(v)
        b.set_insert_point(other)
        b.ret(func.args[0])
        v.parent = other
        expect_errors(module, ["@f: instruction in entry has wrong parent"])

    def test_terminator_mid_block(self, module):
        func, b = make_function(module)
        b.ret(b.add(func.args[0], 1))
        func.entry.insert(0, Ret(func.args[0]))
        expect_errors(module, ["@f: terminator mid-block in entry"])

    def test_phi_after_non_phi(self, module):
        func, b = make_function(module)
        bb = func.add_block("bb")
        b.br(bb)
        b.set_insert_point(bb)
        v = b.add(func.args[0], 1)
        b.ret(v)
        phi = Phi(I32)
        phi.add_incoming(func.args[0], func.entry)
        bb.insert(1, phi)
        expect_errors(module, ["@f: phi after non-phi in bb"])

    def test_phi_incoming_mismatch(self, module):
        func, b = make_function(module)
        bb = func.add_block("bb")
        b.br(bb)
        b.set_insert_point(bb)
        phi = b.phi(I32)
        # No incoming for the entry edge.
        b.ret(phi)
        expect_errors(module, ["@f: phi in bb incoming [] != preds ['entry']"])

    def test_phi_operand_must_dominate_its_incoming_edge(self, module):
        func, b = make_function(module)
        left = func.add_block("left")
        right = func.add_block("right")
        join = func.add_block("join")
        b.cond_br(b.icmp("eq", func.args[0], b.i32(0)), left, right)
        b.set_insert_point(left)
        v = b.add(func.args[0], 1)
        b.br(join)
        b.set_insert_point(right)
        b.br(join)
        b.set_insert_point(join)
        phi = b.phi(I32)
        # The right edge carries a value only the left arm defines.
        phi.add_incoming(v, right)
        phi.add_incoming(v, left)
        b.ret(phi)
        expect_errors(module, [
            "@f: phi operand 0 does not dominate incoming edge from right",
        ])

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
        expect_errors(module, [
            "@f: def of operand 0 of add in early does not dominate use",
        ])

    def test_use_before_def_in_same_block(self, module):
        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        w = b.add(v, 2)
        b.ret(w)
        insts = func.entry.instructions
        insts[0], insts[1] = insts[1], insts[0]  # w now precedes v
        expect_errors(module, [
            "@f: def of operand 0 of add in entry does not dominate use",
        ])

    def test_call_arity_checked(self, module):
        callee, cb = make_function(module, "callee", params=(I32, I32))
        cb.ret(callee.args[0])
        caller, b = make_function(module, "caller")
        call = Call(callee, [caller.args[0]], I32)
        b.block.append(call)
        b.ret(call)
        expect_errors(module, ["@caller: call to @callee with 1 args, expected 2"])

    def test_use_list_consistency(self, module):
        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        b.ret(v)
        # Corrupt the use list.
        v.uses.clear()
        expect_errors(module, [
            "@f: missing use-list entry for operand 0 of ret in entry",
        ])

    def test_foreign_operand(self, module):
        func_a, ba = make_function(module, "a")
        va = ba.add(func_a.args[0], 1, name="va")
        ba.ret(va)
        func_b, bb = make_function(module, "b")
        inst = BinOp("add", va, const_int(1, I32))
        bb.block.append(inst)
        bb.ret(inst)
        expect_errors(module, ["@b: foreign operand <BinOp %va : i32> in add (entry)"])

    def test_global_with_wrong_parent(self, module):
        func, b = make_function(module)
        b.ret(func.args[0])
        module.globals["g"] = GlobalVariable("g", I32)
        expect_errors(module, ["global @g has wrong parent"])

    def test_messages_keep_their_order_across_checks(self, module):
        # Structure first, then phi edges, then operands, then
        # dominance, function by function, and globals last.
        func, b = make_function(module)
        bb = func.add_block("bb")
        b.br(bb)
        b.set_insert_point(bb)
        phi = b.phi(I32)
        v = b.add(func.args[0], 1)
        w = b.add(v, 2)
        b.ret(w)
        bb.instructions[1], bb.instructions[2] = w, v
        func.entry.insert(0, Ret(func.args[0]))
        func.args[0].uses.clear()
        module.globals["g"] = GlobalVariable("g", I32)
        expect_errors(module, [
            "@f: terminator mid-block in entry",
            "@f: phi in bb incoming [] != preds ['entry']",
            "@f: missing use-list entry for operand 0 of ret in entry",
            "@f: missing use-list entry for operand 0 of add in bb",
            "@f: def of operand 0 of add in bb does not dominate use",
            "global @g has wrong parent",
        ])

    def test_error_includes_function_name(self, module):
        func, b = make_function(module, name="broken")
        b.add(func.args[0], 1)
        with pytest.raises(VerificationError) as exc:
            verify_module(module)
        assert "@broken" in str(exc.value)
