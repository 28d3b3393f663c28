"""Interpreter cast semantics and type-width behaviors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import F32, F64, I8, I16, I32, I64, PTR_GLOBAL, verify_module
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.conftest import make_kernel


def run_value(module, build, result_ty=I64):
    func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
    v = build(b)
    b.store(v, func.args[0])
    b.ret()
    verify_module(module)
    gpu = VirtualGPU(module)
    dtype = np.float64 if result_ty == F64 else np.int64
    out = gpu.alloc_array(np.zeros(1, dtype=dtype))
    gpu.run(LaunchSpec(kernel="kern", args=(out,)))
    return gpu.read_array(out, dtype, 1)[0]


class TestCasts:
    def test_sext_preserves_sign(self, module):
        from repro.ir.values import Constant

        v = run_value(module, lambda b: b.sext(Constant(I8, -5), I64))
        assert v == -5

    def test_zext_ignores_sign(self, module):
        from repro.ir.values import Constant

        # Block create-time folding by routing through an instruction.
        def build(b):
            x = b.add(Constant(I8, 0), Constant(I8, 0))
            y = b.or_(x, Constant(I8, 0xFB))
            return b.zext(y, I64)

        assert run_value(module, build) == 0xFB

    def test_trunc_wraps(self, module):
        def build(b):
            big = b.add(b.i64(0x1_0000_0005), b.i64(0))
            return b.sext(b.trunc(big, I32), I64)

        assert run_value(module, build) == 5

    def test_sitofp_negative(self, module):
        def build(b):
            x = b.add(b.i64(-3), b.i64(0))
            return b.sitofp(x, F64)

        assert run_value(module, build, F64) == -3.0

    def test_uitofp_treats_bits_unsigned(self, module):
        from repro.ir.values import Constant

        def build(b):
            x = b.add(Constant(I8, 0), Constant(I8, 0))
            y = b.or_(x, Constant(I8, 0xFF))
            return b.uitofp(y, F64)

        assert run_value(module, build, F64) == 255.0

    def test_fptosi_truncates(self, module):
        def build(b):
            x = b.fadd(b.f64(2.9), b.f64(0.0))
            return b.fptosi(x, I64)

        assert run_value(module, build) == 2

    def test_fpext_fptrunc_roundtrip_loses_precision(self, module):
        def build(b):
            x = b.fadd(b.f64(0.1), b.f64(0.0))
            small = b.cast("fptrunc", x, F32)
            return b.cast("fpext", small, F64)

        v = run_value(module, build, F64)
        assert v == pytest.approx(0.1, rel=1e-6)

    def test_ptrtoint_inttoptr_roundtrip(self, module):
        from repro.ir import PTR

        func, b = make_kernel(module, params=(PTR_GLOBAL, PTR_GLOBAL),
                              arg_names=["out", "data"])
        addr = b.cast("ptrtoint", func.args[1], I64)
        back = b.cast("inttoptr", b.add(addr, b.i64(8)), PTR)
        b.store(b.i64(99), back)
        b.ret()
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        data = gpu.alloc_array(np.zeros(4, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out, data)))
        assert gpu.read_array(data, np.int64, 4)[1] == 99


class TestNarrowWidthArithmetic:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(-300, 300), st.integers(-300, 300))
    def test_i16_add_wraps_like_hardware(self, a, b_val):
        from repro.ir import Module
        from repro.ir.values import Constant

        module = Module("w")

        def build(b):
            x = b.add(Constant(I16, a), Constant(I16, 0))
            y = b.add(x, Constant(I16, b_val))
            return b.sext(y, I64)

        got = run_value(module, build)
        expected = I16.to_signed(I16.wrap(a + b_val))
        assert got == expected
