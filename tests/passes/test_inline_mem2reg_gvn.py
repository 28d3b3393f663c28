"""Inliner, mem2reg and GVN/LICM."""

import numpy as np
import pytest

from repro.ir import (
    Alloca,
    Constant,
    F64,
    Function,
    FunctionType,
    I32,
    I64,
    Instruction,
    PTR,
    PTR_GLOBAL,
    VOID,
    verify_module,
)
from repro.passes.cleanup import CleanupPass
from repro.passes.gvn import GVNPass, LICMPass
from repro.passes.inline import InlinePass, inline_call
from repro.passes.mem2reg import PromoteAllocasPass
from repro.passes.pass_manager import PassContext, PipelineConfig
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.conftest import make_function, make_kernel


def ctx(**kw):
    return PassContext(config=PipelineConfig(**kw))


class TestInliner:
    def test_simple_inline_preserves_semantics(self, module):
        callee, cb = make_function(module, "sq", ret=I32, params=(I32,))
        callee.linkage = "internal"
        cb.ret(cb.mul(callee.args[0], callee.args[0]))
        kern, b = make_kernel(module, params=(PTR_GLOBAL, I32), arg_names=["out", "x"])
        v = b.call(callee, [kern.args[1]])
        b.store(b.sext(v, I64), kern.args[0])
        b.ret()
        verify_module(module)

        InlinePass().run(module, ctx())
        CleanupPass().run(module, ctx())
        verify_module(module)
        assert not any(i.opcode == "call" for i in kern.instructions())

        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out, 9)))
        assert gpu.read_array(out, np.int64, 1)[0] == 81

    def test_multi_return_callee(self, module):
        callee, cb = make_function(module, "absish", ret=I32, params=(I32,))
        callee.linkage = "internal"
        neg = callee.add_block("neg")
        pos = callee.add_block("pos")
        cb.cond_br(cb.icmp("slt", callee.args[0], cb.i32(0)), neg, pos)
        cb.set_insert_point(neg)
        cb.ret(cb.sub(cb.i32(0), callee.args[0]))
        cb.set_insert_point(pos)
        cb.ret(callee.args[0])
        kern, b = make_kernel(module, params=(PTR_GLOBAL, I32), arg_names=["out", "x"])
        v = b.call(callee, [kern.args[1]])
        b.store(b.sext(v, I64), kern.args[0])
        b.ret()
        InlinePass().run(module, ctx())
        verify_module(module)
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out, Constant(I32, -5).value)))
        assert gpu.read_array(out, np.int64, 1)[0] == 5

    def test_recursive_function_not_inlined(self, module):
        rec, rb = make_function(module, "rec", ret=I32, params=(I32,))
        rec.linkage = "internal"
        base = rec.add_block("base")
        step = rec.add_block("step")
        rb.cond_br(rb.icmp("sle", rec.args[0], rb.i32(0)), base, step)
        rb.set_insert_point(base)
        rb.ret(rb.i32(0))
        rb.set_insert_point(step)
        sub = rb.call(rec, [rb.sub(rec.args[0], rb.i32(1))])
        rb.ret(rb.add(sub, rb.i32(1)))
        kern, b = make_kernel(module, params=(I32,))
        b.call(rec, [kern.args[0]])
        b.ret()
        context = ctx()
        InlinePass().run(module, context)
        verify_module(module)
        assert "rec" in module.functions
        assert not module.get_function("rec").is_declaration
        assert context.remarks.contains("recursive")

    def test_function_pointer_argument_becomes_direct_call(self, module):
        """Inlining the worksharing wrapper devirtualizes the body call."""
        body, bb = make_function(module, "body", ret=VOID, params=(I64,))
        body.linkage = "internal"
        bb.ret()
        wrapper, wb = make_function(module, "wrapper", ret=VOID, params=(PTR, I64),
                                    arg_names=["fn", "iv"])
        wrapper.linkage = "internal"
        wrapper.attrs.add("alwaysinline")
        wb.call_indirect(wrapper.args[0], [wrapper.args[1]], VOID)
        wb.ret()
        kern, b = make_kernel(module, params=(I64,))
        b.call(wrapper, [body, kern.args[0]])
        b.ret()
        InlinePass().run(module, ctx())
        CleanupPass().run(module, ctx())
        verify_module(module)
        # After inlining the wrapper, the indirect call's callee operand
        # is the function itself -> further inlined or direct.
        from repro.ir.instructions import Call

        for inst in kern.instructions():
            if isinstance(inst, Call):
                assert inst.callee is not None

    def test_alloca_hoisted_to_caller_entry(self, module):
        helper, hb = make_function(module, "helper", ret=I32, params=(I32,))
        helper.linkage = "internal"
        slot = hb.alloca(I32)
        hb.store(helper.args[0], slot)
        hb.ret(hb.load(I32, slot))
        kern, b = make_kernel(module, params=(I32,))
        loop = kern.add_block("loop")
        done = kern.add_block("done")
        b.br(loop)
        b.set_insert_point(loop)
        v = b.call(helper, [kern.args[0]])
        b.cond_br(b.icmp("eq", v, b.i32(0)), done, loop)
        b.set_insert_point(done)
        b.ret()
        InlinePass().run(module, ctx())
        verify_module(module)
        allocas = [i for i in kern.instructions() if isinstance(i, Alloca)]
        assert all(a.parent is kern.entry for a in allocas)


class TestMem2Reg:
    def test_scalar_slot_promoted(self, module):
        func, b = make_function(module)
        slot = b.alloca(I32)
        b.store(func.args[0], slot)
        v = b.load(I32, slot)
        b.ret(v)
        PromoteAllocasPass().run(module, ctx())
        verify_module(module)
        assert not any(isinstance(i, Alloca) for i in func.instructions())
        assert not any(i.opcode in ("load", "store") for i in func.instructions())

    def test_loop_variable_becomes_phi(self, module):
        func, b = make_function(module)
        slot = b.alloca(I32, "i")
        b.store(b.i32(0), slot)
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        b.br(header)
        b.set_insert_point(header)
        iv = b.load(I32, slot)
        b.cond_br(b.icmp("slt", iv, func.args[0]), body, exit_)
        b.set_insert_point(body)
        iv2 = b.load(I32, slot)
        b.store(b.add(iv2, 1), slot)
        b.br(header)
        b.set_insert_point(exit_)
        b.ret(b.load(I32, slot))
        verify_module(module)
        PromoteAllocasPass().run(module, ctx())
        verify_module(module)
        assert not any(isinstance(i, Alloca) for i in func.instructions())
        assert any(i.opcode == "phi" for i in func.instructions())

    def test_promotion_preserves_execution(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL, I64), arg_names=["out", "n"])
        slot = b.alloca(I64, "acc")
        b.store(b.i64(0), slot)
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        ivslot = b.alloca(I64, "i")
        b.store(b.i64(0), ivslot)
        b.br(header)
        b.set_insert_point(header)
        iv = b.load(I64, ivslot)
        b.cond_br(b.icmp("slt", iv, func.args[1]), body, exit_)
        b.set_insert_point(body)
        acc = b.load(I64, slot)
        b.store(b.add(acc, b.load(I64, ivslot)), slot)
        b.store(b.add(b.load(I64, ivslot), b.i64(1)), ivslot)
        b.br(header)
        b.set_insert_point(exit_)
        b.store(b.load(I64, slot), func.args[0])
        b.ret()
        verify_module(module)

        gpu_ref = VirtualGPU(module)
        out_ref = gpu_ref.alloc_array(np.zeros(1, dtype=np.int64))
        gpu_ref.run(LaunchSpec(kernel="kern", args=(out_ref, 10)))
        expected = gpu_ref.read_array(out_ref, np.int64, 1)[0]

        PromoteAllocasPass().run(module, ctx())
        CleanupPass().run(module, ctx())
        verify_module(module)
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out, 10)))
        assert gpu.read_array(out, np.int64, 1)[0] == expected == 45

    def test_address_taken_alloca_not_promoted(self, module):
        func, b = make_function(module, params=(PTR,))
        slot = b.alloca(I32)
        b.store(b.i32(1), slot)
        b.ptradd(slot, 0)  # harmless, elided
        escaped = b.ptradd(slot, 4)  # offset use -> not promotable
        b.load(I32, escaped, volatile=True)
        b.ret(b.load(I32, slot))
        PromoteAllocasPass().run(module, ctx())
        assert any(isinstance(i, Alloca) for i in func.instructions())


class TestLongBlocks:
    """Inlining the runtime three times over makes blocks of hundreds of
    instructions; mem2reg and GVN erase from them in bulk (detach, then
    one compact per block), never one ``list.remove`` at a time."""

    def test_one_long_block_is_promoted_and_numbered_in_bulk(self, module, monkeypatch):
        func, b = make_function(module)
        x = func.args[0]
        slots = [b.alloca(I32, f"s{i}") for i in range(250)]
        for slot in slots:
            b.store(x, slot)
        acc = x
        for round_ in range(1, 4):
            for slot in slots:
                acc = b.add(acc, b.load(I32, slot))
                b.store(b.add(x, round_), slot)  # one expression per round
        b.ret(acc)
        dead = func.add_block("dead")  # unreachable uses take the sweep
        b.set_insert_point(dead)
        b.store(b.load(I32, slots[0]), slots[1])
        b.ret(x)
        assert sum(i.opcode in ("alloca", "load", "store") for i in func.instructions()) == 2002
        verify_module(module)

        erased = []
        erase = Instruction.erase_from_parent
        monkeypatch.setattr(Instruction, "erase_from_parent",
                            lambda inst: (erased.append(inst), erase(inst)))
        assert PromoteAllocasPass().run(module, ctx())
        verify_module(module)
        assert not any(i.opcode in ("alloca", "load", "store") for i in func.instructions())
        assert GVNPass().run(module, ctx())
        verify_module(module)
        assert erased == []

        entry = func.entry.instructions
        per_round = [i for i in entry if i.opcode == "add" and isinstance(i.rhs, Constant)]
        assert [i.rhs.value for i in per_round] == [1, 2, 3]
        assert len(entry) == 750 + 3 + 1


class TestGVN:
    def test_redundant_expression_removed(self, module):
        func, b = make_function(module)
        a1 = b.add(func.args[0], 5)
        a2 = b.add(func.args[0], 5)
        b.ret(b.mul(a1, a2))
        GVNPass().run(module, ctx())
        adds = [i for i in func.instructions() if i.opcode == "add"]
        assert len(adds) == 1

    def test_commutative_normalization(self, module):
        func, b = make_function(module, params=(I32, I32), arg_names=["a", "b"])
        x, y = func.args
        v1 = b.add(x, y)
        v2 = b.add(y, x)
        b.ret(b.mul(v1, v2))
        GVNPass().run(module, ctx())
        adds = [i for i in func.instructions() if i.opcode == "add"]
        assert len(adds) == 1

    def test_readonly_noalias_load_cse(self, module):
        func, b = make_function(module, params=(PTR, PTR), arg_names=["ro", "out"])
        func.param_attrs[0] = {"readonly", "noalias"}
        v1 = b.load(I32, func.args[0])
        b.store(v1, func.args[1])
        v2 = b.load(I32, func.args[0])
        b.ret(v2)
        GVNPass().run(module, ctx())
        loads = [i for i in func.instructions() if i.opcode == "load"]
        assert len(loads) == 1

    def test_plain_load_not_cse(self, module):
        func, b = make_function(module, params=(PTR,))
        v1 = b.load(I32, func.args[0])
        v2 = b.load(I32, func.args[0])
        b.ret(b.add(v1, v2))
        GVNPass().run(module, ctx())
        loads = [i for i in func.instructions() if i.opcode == "load"]
        assert len(loads) == 2

    def test_sibling_scopes_do_not_leak(self, module):
        func, b = make_function(module)
        then = func.add_block("then")
        els = func.add_block("els")
        b.cond_br(b.icmp("eq", func.args[0], b.i32(0)), then, els)
        b.set_insert_point(then)
        v1 = b.add(func.args[0], 7)
        b.ret(v1)
        b.set_insert_point(els)
        v2 = b.add(func.args[0], 7)  # not dominated by v1: must stay
        b.ret(v2)
        GVNPass().run(module, ctx())
        verify_module(module)
        adds = [i for i in func.instructions() if i.opcode == "add"]
        assert len(adds) == 2


class TestLICM:
    def test_readonly_load_hoisted(self, module):
        func, b = make_function(module, params=(PTR, I32), arg_names=["conf", "n"])
        func.param_attrs[0] = {"readonly", "noalias"}
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        b.br(header)
        b.set_insert_point(header)
        iv = b.phi(I32, "iv")
        iv.add_incoming(b.i32(0), func.entry)
        b.cond_br(b.icmp("slt", iv, func.args[1]), body, exit_)
        b.set_insert_point(body)
        bound = b.load(I32, func.args[0], "bound")  # loop-invariant
        nxt = b.add(iv, bound)
        iv.add_incoming(nxt, body)
        b.br(header)
        b.set_insert_point(exit_)
        b.ret(iv)
        verify_module(module)
        LICMPass().run(module, ctx())
        verify_module(module)
        # The load must have moved to the preheader (entry block).
        assert any(i.opcode == "load" for i in func.entry.instructions)
        assert not any(i.opcode == "load" for i in body.instructions)

    def test_variant_load_not_hoisted(self, module):
        func, b = make_function(module, params=(PTR, I32), arg_names=["data", "n"])
        func.param_attrs[0] = {"readonly", "noalias"}
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        b.br(header)
        b.set_insert_point(header)
        iv = b.phi(I32, "iv")
        iv.add_incoming(b.i32(0), func.entry)
        b.cond_br(b.icmp("slt", iv, func.args[1]), body, exit_)
        b.set_insert_point(body)
        addr = b.array_gep(func.args[0], I32, iv)  # iv-dependent
        b.load(I32, addr, volatile=True)
        nxt = b.add(iv, 1)
        iv.add_incoming(nxt, body)
        b.br(header)
        b.set_insert_point(exit_)
        b.ret(iv)
        LICMPass().run(module, ctx())
        assert any(i.opcode == "load" for i in body.instructions)

    def test_store_never_hoisted(self, module):
        func, b = make_function(module, params=(PTR, I32), arg_names=["p", "n"])
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        b.br(header)
        b.set_insert_point(header)
        iv = b.phi(I32, "iv")
        iv.add_incoming(b.i32(0), func.entry)
        b.cond_br(b.icmp("slt", iv, func.args[1]), body, exit_)
        b.set_insert_point(body)
        b.store(iv, func.args[0])
        nxt = b.add(iv, 1)
        iv.add_incoming(nxt, body)
        b.br(header)
        b.set_insert_point(exit_)
        b.ret(iv)
        LICMPass().run(module, ctx())
        assert any(i.opcode == "store" for i in body.instructions)
