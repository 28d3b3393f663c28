"""Scalar constant folding helpers shared by the builder and passes."""

from __future__ import annotations

import math
from typing import Optional

from repro.ir.intrinsics import math_function
from repro.ir.types import F32, F64, FloatType, I1, IntType, PointerType, Type
from repro.ir.values import Constant


def fold_binop(op: str, lhs: Constant, rhs: Constant) -> Optional[Constant]:
    """Fold a binary operation over two constants; None if not foldable."""
    ty = lhs.type
    if isinstance(ty, IntType):
        a, b = int(lhs.value), int(rhs.value)
        sa, sb = ty.to_signed(a), ty.to_signed(b)
        if op == "add":
            return Constant(ty, a + b)
        if op == "sub":
            return Constant(ty, a - b)
        if op == "mul":
            return Constant(ty, a * b)
        if op == "and":
            return Constant(ty, a & b)
        if op == "or":
            return Constant(ty, a | b)
        if op == "xor":
            return Constant(ty, a ^ b)
        if op == "shl":
            return Constant(ty, a << (b % ty.bits))
        if op == "lshr":
            return Constant(ty, a >> (b % ty.bits))
        if op == "ashr":
            return Constant(ty, sa >> (b % ty.bits))
        if op in ("sdiv", "srem"):
            if sb == 0:
                return None
            q = int(sa / sb)  # C-style truncating division
            return Constant(ty, q if op == "sdiv" else sa - q * sb)
        if op in ("udiv", "urem"):
            if b == 0:
                return None
            return Constant(ty, a // b if op == "udiv" else a % b)
        return None
    if isinstance(ty, FloatType):
        a, b = float(lhs.value), float(rhs.value)
        try:
            if op == "fadd":
                return Constant(ty, a + b)
            if op == "fsub":
                return Constant(ty, a - b)
            if op == "fmul":
                return Constant(ty, a * b)
            if op == "fdiv":
                return Constant(ty, a / b) if b != 0.0 else None
            if op == "frem":
                return Constant(ty, math.fmod(a, b)) if b != 0.0 else None
        except OverflowError:
            return None
    return None


def fold_icmp(pred: str, lhs: Constant, rhs: Constant) -> Optional[Constant]:
    ty = lhs.type
    if isinstance(ty, IntType):
        a, b = int(lhs.value), int(rhs.value)
        sa, sb = ty.to_signed(a), ty.to_signed(b)
    elif isinstance(ty, PointerType):
        a, b = int(lhs.value), int(rhs.value)
        sa, sb = a, b
    else:
        return None
    result = {
        "eq": a == b, "ne": a != b,
        "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
        "slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb, "sge": sa >= sb,
    }[pred]
    return Constant(I1, 1 if result else 0)


def fold_fcmp(pred: str, lhs: Constant, rhs: Constant) -> Optional[Constant]:
    a, b = float(lhs.value), float(rhs.value)
    if math.isnan(a) or math.isnan(b):
        return Constant(I1, 0)  # ordered comparisons are false on NaN
    result = {
        "oeq": a == b, "one": a != b,
        "olt": a < b, "ole": a <= b, "ogt": a > b, "oge": a >= b,
    }[pred]
    return Constant(I1, 1 if result else 0)


def fold_cast(op: str, value: Constant, to_type: Type) -> Optional[Constant]:
    src_ty = value.type
    if op == "zext" and isinstance(to_type, IntType):
        return Constant(to_type, int(value.value))
    if op == "sext" and isinstance(src_ty, IntType) and isinstance(to_type, IntType):
        return Constant(to_type, src_ty.to_signed(int(value.value)))
    if op == "trunc" and isinstance(to_type, IntType):
        return Constant(to_type, int(value.value))
    if op == "sitofp" and isinstance(src_ty, IntType) and isinstance(to_type, FloatType):
        return Constant(to_type, float(src_ty.to_signed(int(value.value))))
    if op == "uitofp" and isinstance(to_type, FloatType):
        return Constant(to_type, float(int(value.value)))
    if op == "fptosi" and isinstance(to_type, IntType):
        return Constant(to_type, int(float(value.value)))
    if op in ("fpext", "fptrunc") and isinstance(to_type, FloatType):
        return Constant(to_type, float(value.value))
    if op == "ptrtoint" and isinstance(to_type, IntType):
        return Constant(to_type, int(value.value))
    if op == "inttoptr" and isinstance(to_type, PointerType):
        return Constant(to_type, int(value.value))
    if op == "bitcast" and to_type == src_ty:
        return value
    return None


def fold_math_intrinsic(name: str, args: list) -> Optional[Constant]:
    """Fold a readnone math intrinsic call over constant arguments with
    the engines' own function (:func:`repro.ir.intrinsics.math_function`).
    Only finite results fold; a NaN or infinite one stays a call, which
    evaluates to the same value at run time."""
    fn = math_function(name)
    if fn is None or not all(isinstance(a, Constant) for a in args):
        return None
    value = fn(*(float(a.value) for a in args))
    if not math.isfinite(value):
        return None
    return Constant(F64 if name.endswith(".f64") else F32, value)
