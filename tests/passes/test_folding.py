"""Scalar constant folding vs Python reference semantics (property tests)."""

import itertools
import math
import struct

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.ir import Constant, F64, I1, I32, I64
from repro.ir.intrinsics import all_intrinsics, intrinsic_info, math_function
from repro.passes.folding import (
    fold_binop,
    fold_cast,
    fold_fcmp,
    fold_icmp,
    fold_math_intrinsic,
)

i32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
f64s = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestIntFolding:
    @given(i32s, i32s)
    def test_add_matches_wrapping(self, a, b):
        out = fold_binop("add", Constant(I32, a), Constant(I32, b))
        assert out.value == (a + b) % (1 << 32)

    @given(i32s, i32s)
    def test_sdiv_truncates_toward_zero(self, a, b):
        assume(b != 0)
        out = fold_binop("sdiv", Constant(I32, a), Constant(I32, b))
        assert out.signed() == int(a / b)

    @given(i32s, i32s)
    def test_srem_sign_matches_c(self, a, b):
        assume(b != 0)
        out = fold_binop("srem", Constant(I32, a), Constant(I32, b))
        assert out.signed() == a - int(a / b) * b

    def test_division_by_zero_not_folded(self):
        assert fold_binop("sdiv", Constant(I32, 1), Constant(I32, 0)) is None
        assert fold_binop("udiv", Constant(I32, 1), Constant(I32, 0)) is None

    @given(i32s, st.integers(min_value=0, max_value=63))
    def test_shl_masks_shift_amount(self, a, s):
        out = fold_binop("shl", Constant(I32, a), Constant(I32, s))
        assert out.value == (Constant(I32, a).value << (s % 32)) % (1 << 32)

    @given(i32s)
    def test_ashr_preserves_sign(self, a):
        out = fold_binop("ashr", Constant(I32, a), Constant(I32, 1))
        assert out.signed() == a >> 1

    @given(i32s, i32s)
    def test_bitwise(self, a, b):
        ca, cb = Constant(I32, a), Constant(I32, b)
        assert fold_binop("and", ca, cb).value == ca.value & cb.value
        assert fold_binop("or", ca, cb).value == ca.value | cb.value
        assert fold_binop("xor", ca, cb).value == ca.value ^ cb.value


class TestFloatFolding:
    @given(f64s, f64s)
    def test_fadd(self, a, b):
        out = fold_binop("fadd", Constant(F64, a), Constant(F64, b))
        assert out.value == a + b or (math.isnan(out.value) and math.isnan(a + b))

    @given(f64s)
    def test_fdiv_by_zero_not_folded(self, a):
        assert fold_binop("fdiv", Constant(F64, a), Constant(F64, 0.0)) is None


class TestCmpFolding:
    @given(i32s, i32s)
    def test_signed_predicates(self, a, b):
        ca, cb = Constant(I32, a), Constant(I32, b)
        assert fold_icmp("slt", ca, cb).value == (1 if a < b else 0)
        assert fold_icmp("sge", ca, cb).value == (1 if a >= b else 0)
        assert fold_icmp("eq", ca, cb).value == (1 if a == b else 0)

    @given(i32s, i32s)
    def test_unsigned_predicates(self, a, b):
        ca, cb = Constant(I32, a), Constant(I32, b)
        ua, ub = ca.value, cb.value
        assert fold_icmp("ult", ca, cb).value == (1 if ua < ub else 0)
        assert fold_icmp("uge", ca, cb).value == (1 if ua >= ub else 0)

    @given(f64s, f64s)
    def test_ordered_float_predicates(self, a, b):
        ca, cb = Constant(F64, a), Constant(F64, b)
        assert fold_fcmp("olt", ca, cb).value == (1 if a < b else 0)

    def test_nan_ordered_is_false(self):
        nan = Constant(F64, float("nan"))
        one = Constant(F64, 1.0)
        assert fold_fcmp("oeq", nan, one).value == 0
        assert fold_fcmp("olt", nan, one).value == 0


class TestCastFolding:
    @given(st.integers(min_value=-128, max_value=127))
    def test_sext_i8_to_i64(self, v):
        from repro.ir.types import I8

        out = fold_cast("sext", Constant(I8, v), I64)
        assert out.signed() == v

    @given(st.integers(min_value=0, max_value=255))
    def test_zext_i8_to_i64(self, v):
        from repro.ir.types import I8

        out = fold_cast("zext", Constant(I8, v), I64)
        assert out.value == v

    @given(i32s)
    def test_sitofp_fptosi_roundtrip(self, v):
        f = fold_cast("sitofp", Constant(I32, v), F64)
        back = fold_cast("fptosi", f, I32)
        assert back.signed() == v

    @given(st.integers())
    def test_trunc(self, v):
        out = fold_cast("trunc", Constant(I64, v), I32)
        assert out.value == Constant(I64, v).value % (1 << 32)


class TestMathFolding:
    """The folder and the engines evaluate math intrinsics with the same
    function, so -O0 and optimized builds compute the same value."""

    EDGES = (0.0, -0.0, 0.5, -0.5, 2.5, -2.5, 100.0, 1000.0, math.inf,
             -math.inf, math.nan)

    @pytest.mark.parametrize("name", sorted(
        info.name for info in all_intrinsics() if math_function(info.name)))
    def test_folds_exactly_the_finite_engine_results(self, name):
        fn = math_function(name)
        signature = intrinsic_info(name).function_type
        ty = signature.return_type
        for args in itertools.product(self.EDGES, repeat=len(signature.params)):
            folded = fold_math_intrinsic(name, [Constant(ty, a) for a in args])
            value = fn(*args)
            if math.isfinite(value):
                assert folded.type == ty
                assert struct.pack("<d", folded.value) == struct.pack("<d", value)
            else:
                assert folded is None, (name, args)

    def test_non_constant_or_non_math_calls_do_not_fold(self):
        assert fold_math_intrinsic("llvm.memset", []) is None
        assert fold_math_intrinsic("llvm.sqrt.f64", [object()]) is None
