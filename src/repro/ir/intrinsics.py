"""Intrinsic registry.

Intrinsics are ordinary declared functions with well-known names; the
interpreter gives them semantics and the passes consult this registry
for their properties (readnone, barrier kind, launch invariance).
Modeling barriers as calls with attributes mirrors how the paper's
runtime annotates its inline-assembly barriers via ``omp assumes``
(Fig. 6): the aligned barrier carries ``ext_aligned_barrier`` and
``ext_no_call_asm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.ir.module import Function, Module
from repro.ir.types import (
    F32,
    F64,
    FunctionType,
    I1,
    I8,
    I32,
    I64,
    PTR,
    PTR_GLOBAL,
    Type,
    VOID,
)


@dataclass(frozen=True)
class IntrinsicInfo:
    """Static semantics of one intrinsic."""

    name: str
    function_type: FunctionType
    #: No memory read/write; result depends only on arguments + context.
    readnone: bool = False
    #: Observable effect beyond the result (trap, print, barrier...).
    side_effects: bool = False
    #: Synchronizes the team.
    is_barrier: bool = False
    #: All threads of the team reach the *same* barrier instruction
    #: (paper §IV-C/§IV-D: only aligned barriers are trivially removable).
    aligned: bool = False
    #: Launch invariance class: "grid" values are fixed for the whole
    #: launch (grid/block dims), "team" for the team (block id), "thread"
    #: varies per thread (thread id).  Used by invariant propagation
    #: (paper §IV-B4).
    invariance: Optional[str] = None
    #: Cycle cost charged by the virtual GPU.
    cost: int = 1
    #: If set, the intrinsic folds to this constant at compile time.
    constant_result: Optional[int] = None


def _ft(ret: Type, *params: Type) -> FunctionType:
    return FunctionType(ret, tuple(params))


_REGISTRY: Dict[str, IntrinsicInfo] = {}


def _register(info: IntrinsicInfo) -> IntrinsicInfo:
    _REGISTRY[info.name] = info
    return info


# --- GPU identity / geometry -------------------------------------------------

THREAD_ID = _register(IntrinsicInfo(
    "gpu.thread_id", _ft(I32), readnone=True, invariance="thread", cost=1))
BLOCK_ID = _register(IntrinsicInfo(
    "gpu.block_id", _ft(I32), readnone=True, invariance="team", cost=1))
BLOCK_DIM = _register(IntrinsicInfo(
    "gpu.block_dim", _ft(I32), readnone=True, invariance="grid", cost=1))
GRID_DIM = _register(IntrinsicInfo(
    "gpu.grid_dim", _ft(I32), readnone=True, invariance="grid", cost=1))
WARP_SIZE = _register(IntrinsicInfo(
    "gpu.warp_size", _ft(I32), readnone=True, invariance="grid", cost=1,
    constant_result=32))
LANE_ID = _register(IntrinsicInfo(
    "gpu.lane_id", _ft(I32), readnone=True, invariance="thread", cost=1))

# --- synchronization ----------------------------------------------------------

BARRIER_ALIGNED = _register(IntrinsicInfo(
    "gpu.barrier.aligned", _ft(VOID), side_effects=True, is_barrier=True,
    aligned=True, cost=16))
BARRIER = _register(IntrinsicInfo(
    "gpu.barrier", _ft(VOID), side_effects=True, is_barrier=True,
    aligned=False, cost=24))

DYNAMIC_SHARED = _register(IntrinsicInfo(
    "gpu.dynamic_shared", _ft(PTR), readnone=True, invariance="team", cost=1))

# --- assumptions & diagnostics -------------------------------------------------

ASSUME = _register(IntrinsicInfo(
    "llvm.assume", _ft(VOID, I1), readnone=True, cost=0))
EXPECT = _register(IntrinsicInfo(
    "llvm.expect", _ft(I1, I1, I1), readnone=True, cost=0))
TRAP = _register(IntrinsicInfo(
    "llvm.trap", _ft(VOID), side_effects=True, cost=1))
PRINT_I64 = _register(IntrinsicInfo(
    "rt.print_i64", _ft(VOID, I64), side_effects=True, cost=8))
PRINT_F64 = _register(IntrinsicInfo(
    "rt.print_f64", _ft(VOID, F64), side_effects=True, cost=8))
PRINT_STR = _register(IntrinsicInfo(
    "rt.print_str", _ft(VOID, I64), side_effects=True, cost=8))

# --- memory management ----------------------------------------------------------

MALLOC = _register(IntrinsicInfo(
    "malloc", _ft(PTR_GLOBAL, I64), side_effects=True, cost=80))
FREE = _register(IntrinsicInfo(
    "free", _ft(VOID, PTR_GLOBAL), side_effects=True, cost=40))
MEMSET = _register(IntrinsicInfo(
    "llvm.memset", _ft(VOID, PTR, I8, I64), side_effects=True, cost=4))
MEMCPY = _register(IntrinsicInfo(
    "llvm.memcpy", _ft(VOID, PTR, PTR, I64), side_effects=True, cost=4))

# --- math ------------------------------------------------------------------------
#
# The IEEE semantics of ``llvm.<op>.f32/f64`` over Python floats, defined
# once: the engines evaluate these functions and the constant folder
# folds with them, so -O0 and optimized builds compute the same value.
# Where ``math`` raises or departs from IEEE 754 (domain and range
# errors, infinities, NaN operands, the sign of a zero), the functions
# return the IEEE result instead; the f32 store rounds an out-of-range
# result to +-inf (``repro.memory.memmodel.pack_f32_into``).

_INF = math.inf
_NAN = math.nan


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0 else _NAN


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _log(x: float) -> float:
    if x > 0:
        return math.log(x)
    return -_INF if x == 0 else _NAN


def _sin(x: float) -> float:
    return _NAN if math.isinf(x) else math.sin(x)


def _cos(x: float) -> float:
    return _NAN if math.isinf(x) else math.cos(x)


def _floor(x: float) -> float:
    if not math.isfinite(x):
        return x
    r = float(math.floor(x))
    return math.copysign(r, x) if r == 0 else r  # floor(-0.0) is -0.0


def _odd_integer(y: float) -> bool:
    return y.is_integer() and y % 2 == 1


def _pow(x: float, y: float) -> float:
    try:
        return math.pow(x, y)
    except OverflowError:
        return -_INF if x < 0 and _odd_integer(y) else _INF
    except ValueError:
        if x == 0:  # pole: a zero base to a negative power
            return math.copysign(_INF, x) if _odd_integer(y) else _INF
        return _NAN  # a negative base to a non-integer power


def _fmin(x: float, y: float) -> float:
    """LLVM ``minnum``: a NaN operand yields the other one."""
    return y if x != x else x if y != y else min(x, y)


def _fmax(x: float, y: float) -> float:
    """LLVM ``maxnum``: a NaN operand yields the other one."""
    return y if x != x else x if y != y else max(x, y)


#: Unary math intrinsics: ``llvm.<op>.<f32|f64>`` -> IEEE function.
MATH_UNARY: Dict[str, Callable[[float], float]] = {
    "sqrt": _sqrt,
    "exp": _exp,
    "log": _log,
    "sin": _sin,
    "cos": _cos,
    "fabs": abs,
    "floor": _floor,
}

#: Binary math intrinsics.
MATH_BINARY: Dict[str, Callable[[float, float], float]] = {
    "pow": _pow,
    "fmin": _fmin,
    "fmax": _fmax,
}

_MATH_COST = {"pow": 20, "fmin": 2, "fmax": 2}

for _op in MATH_UNARY:
    for _ty, _sfx in ((F64, "f64"), (F32, "f32")):
        _register(IntrinsicInfo(
            f"llvm.{_op}.{_sfx}", _ft(_ty, _ty), readnone=True, cost=12))
for _ty, _sfx in ((F64, "f64"), (F32, "f32")):
    for _op in MATH_BINARY:
        _register(IntrinsicInfo(
            f"llvm.{_op}.{_sfx}", _ft(_ty, _ty, _ty), readnone=True,
            cost=_MATH_COST[_op]))


def math_function(name: str) -> Optional[Callable[..., float]]:
    """The IEEE function of math intrinsic *name*, or None."""
    parts = name.split(".")
    if len(parts) != 3 or parts[0] != "llvm" or parts[2] not in ("f32", "f64"):
        return None
    return MATH_UNARY.get(parts[1]) or MATH_BINARY.get(parts[1])


def intrinsic_info(name: str) -> Optional[IntrinsicInfo]:
    """Look up intrinsic metadata by function name."""
    return _REGISTRY.get(name)


def is_intrinsic(name: str) -> bool:
    return name in _REGISTRY


def all_intrinsics() -> Tuple[IntrinsicInfo, ...]:
    return tuple(_REGISTRY.values())


def declare_intrinsic(module: Module, name: str) -> Function:
    """Get-or-create the declaration of intrinsic *name* in *module*."""
    info = _REGISTRY.get(name)
    if info is None:
        raise KeyError(f"unknown intrinsic: {name}")
    func = module.declare(name, info.function_type)
    if info.readnone:
        func.attrs.add("readnone")
    if info.is_barrier:
        func.attrs.add("convergent")
        func.assumptions.add("ext_no_call_asm")
        if info.aligned:
            func.assumptions.add("ext_aligned_barrier")
    return func
