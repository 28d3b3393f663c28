"""Interpreter: arithmetic, control flow, calls, recursion."""

import numpy as np
import pytest

from repro.ir import (
    F64,
    Function,
    FunctionType,
    I1,
    I32,
    I64,
    IRBuilder,
    Module,
    PTR_GLOBAL,
    VOID,
    verify_module,
)
from repro.vgpu import LaunchSpec, SimulationError, TrapError, VirtualGPU
from tests.conftest import make_function, make_kernel


def run_scalar_kernel(module, build, args=(), teams=1, threads=1, result_ty=I64):
    """Build a kernel writing one scalar result to out[tid]; run it."""
    func, b = make_kernel(module, params=(PTR_GLOBAL,) + tuple(a[1] for a in args),
                          arg_names=["out"] + [a[0] for a in args])
    value = build(b, func)
    tid = b.thread_id()
    bid = b.block_id()
    bdim = b.block_dim()
    idx = b.sext(b.add(b.mul(bid, bdim), tid), I64)
    b.store(value, b.array_gep(func.args[0], result_ty, idx))
    b.ret()
    verify_module(module)
    gpu = VirtualGPU(module)
    n = teams * threads
    import numpy as np

    dtype = np.float64 if result_ty == F64 else np.int64
    out = gpu.alloc_array(np.zeros(n, dtype=dtype))
    gpu.run(LaunchSpec(kernel=func.name, num_teams=teams,
                       threads_per_team=threads,
                       args=[out] + [a[2] for a in args]))
    return gpu.read_array(out, dtype, n)


class TestArithmetic:
    def test_signed_division_truncates_toward_zero(self, module):
        out = run_scalar_kernel(
            module, lambda b, f: b.sdiv(b.i64(-7), b.i64(2)))
        assert out[0] == -3

    def test_srem_sign_follows_dividend(self, module):
        out = run_scalar_kernel(
            module, lambda b, f: b.srem(b.i64(-7), b.i64(2)))
        assert out[0] == -1

    def test_unsigned_division(self, module):
        out = run_scalar_kernel(
            module, lambda b, f: b.udiv(b.i64(7), b.i64(2)))
        assert out[0] == 3

    def test_division_by_zero_traps(self, module):
        func, b = make_kernel(module, params=(I64,), arg_names=["d"])
        b.sdiv(b.i64(1), func.args[0])
        b.ret()
        gpu = VirtualGPU(module)
        with pytest.raises(TrapError):
            gpu.run(LaunchSpec(kernel="kern", args=(0,)))

    def test_wrapping_add(self, module):
        def build(b, f):
            big = b.i64((1 << 63) - 1)
            return b.add(big, b.i64(1))

        out = run_scalar_kernel(module, build)
        assert out[0] == -(1 << 63)  # wrapped

    def test_shift_masks_amount(self, module):
        out = run_scalar_kernel(module, lambda b, f: b.shl(b.i64(1), b.i64(65)))
        assert out[0] == 2

    def test_float_division_by_zero_is_inf(self, module):
        out = run_scalar_kernel(
            module, lambda b, f: b.fdiv(b.f64(1.0), b.f64(0.0)), result_ty=F64)
        assert np.isinf(out[0])


class TestControlFlow:
    def test_loop_sums(self, module):
        def build(b, f):
            func = b.function
            entry = b.block
            loop = func.add_block("loop")
            done = func.add_block("done")
            b.br(loop)
            b.set_insert_point(loop)
            iv = b.phi(I64, "iv")
            acc = b.phi(I64, "acc")
            iv.add_incoming(b.i64(0), entry)
            acc.add_incoming(b.i64(0), entry)
            nxt = b.add(iv, b.i64(1))
            total = b.add(acc, iv)
            iv.add_incoming(nxt, loop)
            acc.add_incoming(total, loop)
            b.cond_br(b.icmp("slt", nxt, b.i64(10)), loop, done)
            b.set_insert_point(done)
            result = b.phi(I64, "res")
            result.add_incoming(total, loop)
            return result

        out = run_scalar_kernel(module, build)
        assert out[0] == sum(range(10))

    def test_phi_parallel_copy_semantics(self, module):
        """Swapping phis must read all incomings before writing."""
        def build(b, f):
            func = b.function
            entry = b.block
            loop = func.add_block("loop")
            done = func.add_block("done")
            b.br(loop)
            b.set_insert_point(loop)
            x = b.phi(I64, "x")
            y = b.phi(I64, "y")
            n = b.phi(I64, "n")
            x.add_incoming(b.i64(1), entry)
            y.add_incoming(b.i64(2), entry)
            n.add_incoming(b.i64(0), entry)
            # swap x and y each iteration
            x.add_incoming(y, loop)
            y.add_incoming(x, loop)
            nxt = b.add(n, b.i64(1))
            n.add_incoming(nxt, loop)
            b.cond_br(b.icmp("slt", nxt, b.i64(3)), loop, done)
            b.set_insert_point(done)
            res = b.phi(I64)
            res.add_incoming(x, loop)
            return res

        out = run_scalar_kernel(module, build)
        # x per loop entry: 1, 2, 1 — the exit edge reads iteration 3's x.
        # A sequential (non-parallel) phi copy would collapse x == y.
        assert out[0] == 1

    def test_unreachable_traps(self, module):
        func, b = make_kernel(module, params=())
        b.unreachable()
        gpu = VirtualGPU(module)
        with pytest.raises(TrapError):
            gpu.run(LaunchSpec(kernel="kern"))


class TestCalls:
    def test_direct_call_and_return(self, module):
        callee, cb = make_function(module, "sq", ret=I64, params=(I64,))
        cb.ret(cb.mul(callee.args[0], callee.args[0]))

        out = run_scalar_kernel(module, lambda b, f: b.call(callee, [b.i64(7)]))
        assert out[0] == 49

    def test_recursion(self, module):
        fact = module.add_function(Function("fact", FunctionType(I64, (I64,)), arg_names=["n"]))
        b = IRBuilder(module, fact.add_block("entry"))
        base = fact.add_block("base")
        rec = fact.add_block("rec")
        b.cond_br(b.icmp("sle", fact.args[0], b.i64(1)), base, rec)
        b.set_insert_point(base)
        b.ret(b.i64(1))
        b.set_insert_point(rec)
        sub = b.call(fact, [b.sub(fact.args[0], b.i64(1))])
        b.ret(b.mul(fact.args[0], sub))

        out = run_scalar_kernel(module, lambda b, f: b.call(fact, [b.i64(10)]))
        assert out[0] == 3628800

    def test_indirect_call_through_function_address(self, module):
        callee, cb = make_function(module, "callee", ret=I64, params=())
        cb.ret(cb.i64(42))

        def build(b, f):
            addr = b.cast("ptrtoint", callee, I64)
            return b.call_indirect(addr, [], I64)

        out = run_scalar_kernel(module, build)
        assert out[0] == 42

    def test_call_stack_overflow_detected(self, module):
        f = module.add_function(Function("inf", FunctionType(VOID, ())))
        b = IRBuilder(module, f.add_block("entry"))
        b.call(f, [])
        b.ret()
        kern, kb = make_kernel(module, params=())
        kb.call(f, [])
        kb.ret()
        gpu = VirtualGPU(module)
        with pytest.raises(SimulationError):
            gpu.run(LaunchSpec(kernel="kern"))

    def test_undefined_function_rejected(self, module):
        from repro.ir import FunctionType

        decl = module.declare("nowhere", FunctionType(VOID, ()))
        kern, kb = make_kernel(module, params=())
        kb.call(decl, [])
        kb.ret()
        gpu = VirtualGPU(module)
        with pytest.raises(SimulationError):
            gpu.run(LaunchSpec(kernel="kern"))


class TestLaunchValidation:
    def test_wrong_arg_count(self, module):
        func, b = make_kernel(module, params=(I64,))
        b.ret()
        gpu = VirtualGPU(module)
        with pytest.raises(SimulationError):
            gpu.run(LaunchSpec(kernel="kern"))

    def test_too_many_threads(self, module):
        func, b = make_kernel(module, params=())
        b.ret()
        gpu = VirtualGPU(module)
        with pytest.raises(SimulationError):
            gpu.run(LaunchSpec(kernel="kern", threads_per_team=100000))

    def test_kernel_needs_body(self, module):
        from repro.ir import FunctionType

        module.declare("ghost", FunctionType(VOID, ()))
        gpu = VirtualGPU(module)
        with pytest.raises(SimulationError):
            gpu.run(LaunchSpec(kernel="ghost"))
