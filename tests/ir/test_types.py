"""Unit and property tests for the IR type system."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.addrspace import AddressSpace
from repro.ir.types import (
    ArrayType,
    F32,
    F64,
    FunctionType,
    I1,
    I8,
    I16,
    I32,
    I64,
    IntType,
    PointerType,
    StructType,
    VOID,
    pointer_to,
)

WIDTHS = [1, 8, 16, 32, 64]


class TestIntType:
    def test_interned_singletons_compare_equal(self):
        assert I32 == IntType(32)
        assert I32 != I64

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            IntType(7)

    def test_bounds(self):
        assert I8.max_unsigned == 255
        assert I8.max_signed == 127
        assert I8.min_signed == -128
        assert I1.max_unsigned == 1

    @given(st.sampled_from(WIDTHS), st.integers())
    def test_wrap_stays_in_range(self, bits, value):
        ty = IntType(bits)
        wrapped = ty.wrap(value)
        assert 0 <= wrapped <= ty.max_unsigned

    @given(st.sampled_from(WIDTHS), st.integers())
    def test_wrap_is_mod_2n(self, bits, value):
        ty = IntType(bits)
        assert ty.wrap(value) == value % (1 << bits)

    @given(st.sampled_from([8, 16, 32, 64]), st.integers())
    def test_signed_roundtrip(self, bits, value):
        ty = IntType(bits)
        signed = ty.to_signed(ty.wrap(value))
        assert ty.min_signed <= signed <= ty.max_signed
        assert ty.wrap(signed) == ty.wrap(value)

    def test_to_signed_negative(self):
        assert I8.to_signed(0xFF) == -1
        assert I8.to_signed(0x80) == -128
        assert I8.to_signed(0x7F) == 127

    @given(st.sampled_from(WIDTHS), st.integers())
    def test_to_signed_of_any_int_matches_the_definition(self, bits, value):
        ty = IntType(bits)
        u = value % (1 << bits)
        expected = u - (1 << bits) if bits > 1 and u >= 1 << (bits - 1) else u
        assert ty.to_signed(value) == expected

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_precomputed_constants_leave_identity_unchanged(self, bits):
        """``mask``/``half`` are cached per instance but are not fields:
        equality, hashing, repr and pickling still see only ``bits``."""
        import dataclasses
        import pickle

        ty = IntType(bits)
        assert ty.mask == (1 << bits) - 1
        assert [f.name for f in dataclasses.fields(ty)] == ["bits"]
        assert repr(ty) == f"IntType(bits={bits})"
        assert ty == IntType(bits) and hash(ty) == hash(IntType(bits))
        assert {ty: 1}[IntType(bits)] == 1
        back = pickle.loads(pickle.dumps(ty))
        assert back == ty and hash(back) == hash(ty)
        assert (back.mask, back.half) == (ty.mask, ty.half)
        # A pickle from before the cached constants carries bits only.
        legacy = IntType.__new__(IntType)
        legacy.__setstate__({"bits": bits})
        assert legacy == ty and legacy.wrap(-1) == ty.mask


class TestFloatType:
    def test_names(self):
        assert str(F32) == "float"
        assert str(F64) == "double"

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            from repro.ir.types import FloatType

            FloatType(16)


class TestPointerType:
    def test_default_addrspace_is_generic(self):
        assert PointerType().addrspace is AddressSpace.GENERIC

    def test_pointer_to_interned(self):
        assert pointer_to(AddressSpace.SHARED) is pointer_to(AddressSpace.SHARED)

    def test_rendering(self):
        assert str(PointerType()) == "ptr"
        assert "addrspace(3)" in str(pointer_to(AddressSpace.SHARED))


class TestAggregates:
    def test_array_type(self):
        ty = ArrayType(I32, 10)
        assert str(ty) == "[10 x i32]"
        with pytest.raises(ValueError):
            ArrayType(I32, -1)

    def test_struct_field_lookup(self):
        ty = StructType("S", (("a", I32), ("b", F64)))
        assert ty.field_type("b") == F64
        assert ty.field_index("a") == 0
        with pytest.raises(KeyError):
            ty.field_type("missing")

    def test_struct_equality_by_value(self):
        a = StructType("S", (("a", I32),))
        b = StructType("S", (("a", I32),))
        assert a == b
        assert a != StructType("S", (("a", I64),))


class TestFunctionType:
    def test_rendering(self):
        ft = FunctionType(VOID, (I32, F64))
        assert str(ft) == "void (i32, double)"

    def test_classification(self):
        assert I32.is_integer and not I32.is_float
        assert F64.is_float and not F64.is_pointer
        assert PointerType().is_pointer
        assert VOID.is_void
        assert ArrayType(I8, 4).is_aggregate
        assert StructType("T", ()).is_aggregate
