"""Kernel DSL — the input language of the simulated Clang.

Applications are written once against these nodes and lowered two ways:

* :mod:`repro.frontend.lower` produces the OpenMP offload form (runtime
  calls, capture buffers, generic or SPMD mode) against either device
  runtime;
* :mod:`repro.frontend.cuda` produces the CUDA-style baseline (direct
  grid-stride loops, no runtime).

The node set intentionally covers exactly what the paper's proxy apps
need: scalar/struct/pointer parameters, loops, conditionals, math
calls, atomics, user-managed shared memory, device functions (including
recursion), OpenMP API queries, and user assumptions/assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.ir.types import F64, I64, Type

Number = Union[int, float]


# --------------------------------------------------------------------- exprs --


class Expr:
    """Base class of DSL expressions."""

    def __add__(self, other):  # noqa: D105
        return Bin("+", self, _wrap(other))

    def __radd__(self, other):
        return Bin("+", _wrap(other), self)

    def __sub__(self, other):
        return Bin("-", self, _wrap(other))

    def __rsub__(self, other):
        return Bin("-", _wrap(other), self)

    def __mul__(self, other):
        return Bin("*", self, _wrap(other))

    def __rmul__(self, other):
        return Bin("*", _wrap(other), self)

    def __truediv__(self, other):
        return Bin("/", self, _wrap(other))

    def __rtruediv__(self, other):
        return Bin("/", _wrap(other), self)

    def __mod__(self, other):
        return Bin("%", self, _wrap(other))

    def __and__(self, other):
        return Bin("&", self, _wrap(other))

    def __or__(self, other):
        return Bin("|", self, _wrap(other))

    def __xor__(self, other):
        return Bin("^", self, _wrap(other))

    def __lshift__(self, other):
        return Bin("<<", self, _wrap(other))

    def __rshift__(self, other):
        return Bin(">>", self, _wrap(other))


def _wrap(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        from repro.ir.types import I1

        return Const(int(value), I1)
    if isinstance(value, int):
        return Const(value, I64)
    if isinstance(value, float):
        return Const(value, F64)
    raise TypeError(f"cannot use {value!r} in a DSL expression")


@dataclass
class Const(Expr):
    value: Number
    ty: Type


@dataclass
class Arg(Expr):
    """Reference to a kernel/function parameter."""

    name: str


@dataclass
class Var(Expr):
    """Read of a mutable local declared by Let."""

    name: str


@dataclass
class Bin(Expr):
    op: str  # + - * / % & | ^ << >>
    lhs: Expr
    rhs: Expr


@dataclass
class Cmp(Expr):
    op: str  # == != < <= > >=
    lhs: Expr
    rhs: Expr


@dataclass
class Not(Expr):
    operand: Expr


@dataclass
class SelectExpr(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass
class CastTo(Expr):
    """Type conversion; kind chosen from source/target types."""

    operand: Expr
    ty: Type


@dataclass
class Index(Expr):
    """Load ``base[index]`` where base is a pointer-valued expression."""

    base: Expr
    index: Expr
    elem_ty: Type = F64


@dataclass
class Field(Expr):
    """Read a field of a by-reference aggregate parameter.

    In the OpenMP lowering this is a load through the struct pointer
    (the §VII by-reference cost); in the CUDA lowering the field is a
    flattened by-value kernel argument.
    """

    param: str
    field_name: str


@dataclass
class SharedRef(Expr):
    """Address of a user-declared per-team shared array."""

    name: str


@dataclass
class LocalRef(Expr):
    """Address of a local array declared with DeclLocalArray."""

    name: str


@dataclass
class MathCall(Expr):
    name: str  # sqrt exp log sin cos fabs floor pow fmin fmax
    args: Tuple[Expr, ...]

    def __init__(self, name: str, *args: Expr) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(_wrap(a) for a in args))


@dataclass
class OmpCall(Expr):
    """OpenMP API query: thread_num, num_threads, team_num, num_teams, level."""

    what: str


@dataclass
class FuncCall(Expr):
    """Call of a device function defined in the same program."""

    name: str
    args: Tuple[Expr, ...]

    def __init__(self, name: str, *args) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(_wrap(a) for a in args))


# --------------------------------------------------------------------- stmts --


class Stmt:
    """Base class of DSL statements."""


@dataclass
class Let(Stmt):
    """Declare a mutable local and initialize it."""

    name: str
    init: Expr
    ty: Optional[Type] = None


@dataclass
class Assign(Stmt):
    name: str
    value: Expr


@dataclass
class StoreIdx(Stmt):
    base: Expr
    index: Expr
    value: Expr
    elem_ty: Type = F64


@dataclass
class Atomic(Stmt):
    """Atomic read-modify-write on ``base[index]``."""

    op: str  # add sub max min
    base: Expr
    index: Expr
    value: Expr
    elem_ty: Type = F64


@dataclass
class If(Stmt):
    cond: Expr
    then: Tuple[Stmt, ...]
    els: Tuple[Stmt, ...] = ()

    def __init__(self, cond: Expr, then: Sequence[Stmt], els: Sequence[Stmt] = ()) -> None:
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "then", tuple(then))
        object.__setattr__(self, "els", tuple(els))


@dataclass
class While(Stmt):
    cond: Expr
    body: Tuple[Stmt, ...]

    def __init__(self, cond: Expr, body: Sequence[Stmt]) -> None:
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "body", tuple(body))


@dataclass
class ForRange(Stmt):
    """``for var in range(start, stop)`` over i64."""

    var: str
    start: Expr
    stop: Expr
    body: Tuple[Stmt, ...]
    step: Expr = None  # type: ignore[assignment]

    def __init__(self, var: str, start, stop, body: Sequence[Stmt], step=1) -> None:
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "start", _wrap(start))
        object.__setattr__(self, "stop", _wrap(stop))
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "step", _wrap(step))


@dataclass
class CallStmt(Stmt):
    call: FuncCall


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class BarrierStmt(Stmt):
    """``#pragma omp barrier`` / ``__syncthreads()``."""


@dataclass
class AssertStmt(Stmt):
    """User assertion: checked in debug builds, assumption in release."""

    cond: Expr
    message: str


@dataclass
class AssumeStmt(Stmt):
    """``omp assumes`` style user assumption."""

    cond: Expr


@dataclass
class DeclLocalArray(Stmt):
    """Declare a local array whose address may be taken.

    OpenMP must assume such memory can be shared with other threads and
    *globalizes* it through the shared-memory stack (§IV-A2); when its
    address escapes analysis — e.g. into a recursive call, as in
    MiniFMM's traversal — the allocation cannot be demoted and the
    runtime churn stays.  The CUDA lowering just uses the thread stack.
    """

    name: str
    elem_ty: Type
    count: int


# ---------------------------------------------------------------- declarations --


@dataclass(frozen=True)
class Param:
    """Scalar or pointer parameter, passed by value in both lowerings."""

    name: str
    ty: Type


@dataclass(frozen=True)
class StructParam:
    """Aggregate parameter.

    OpenMP can only pass aggregates to kernels by reference (§VII), so
    the OpenMP lowering receives a global-memory pointer and ``Field``
    reads are loads; the CUDA lowering flattens the fields into by-value
    kernel arguments.
    """

    name: str
    fields: Tuple[Tuple[str, Type], ...]

    def field_type(self, name: str) -> Type:
        for fname, fty in self.fields:
            if fname == name:
                return fty
        raise KeyError(f"struct param {self.name} has no field {name}")

    def field_index(self, name: str) -> int:
        for i, (fname, _) in enumerate(self.fields):
            if fname == name:
                return i
        raise KeyError(f"struct param {self.name} has no field {name}")


AnyParam = Union[Param, StructParam]


@dataclass(frozen=True)
class SharedArray:
    """User-declared static per-team shared memory."""

    name: str
    elem_ty: Type
    count: int


@dataclass
class DeviceFunction:
    """A callable device function; recursion is allowed (and, as in the
    paper's MiniFMM, blocks inlining-based optimization)."""

    name: str
    params: Tuple[Param, ...]
    ret_ty: Type
    body: Tuple[Stmt, ...]

    def __init__(self, name: str, params: Sequence[Param], ret_ty: Type, body: Sequence[Stmt]) -> None:
        self.name = name
        self.params = tuple(params)
        self.ret_ty = ret_ty
        self.body = tuple(body)


@dataclass
class KernelDef:
    """One target region.

    ``preamble`` holds sequential statements executed once per team
    before the parallel loop (forcing generic-mode lowering, like
    XSBench's setup code); an empty preamble lowers straight to SPMD
    (the combined ``target teams distribute parallel for``).  The
    parallel loop body sees the i64 induction variable ``iv``.
    """

    name: str
    params: Tuple[AnyParam, ...]
    trip_count: Expr
    body: Tuple[Stmt, ...]
    preamble: Tuple[Let, ...] = ()
    shared: Tuple[SharedArray, ...] = ()
    #: Shape of the CUDA port: False = exact-coverage launch with an
    #: ``if (i < n)`` guard (the common hand-written style); True =
    #: grid-stride loop.
    cuda_grid_stride: bool = False

    def __init__(
        self,
        name: str,
        params: Sequence[AnyParam],
        trip_count,
        body: Sequence[Stmt],
        preamble: Sequence[Let] = (),
        shared: Sequence[SharedArray] = (),
        cuda_grid_stride: bool = False,
    ) -> None:
        self.name = name
        self.params = tuple(params)
        self.trip_count = _wrap(trip_count)
        self.body = tuple(body)
        self.preamble = tuple(preamble)
        self.shared = tuple(shared)
        self.cuda_grid_stride = cuda_grid_stride

    @property
    def is_generic(self) -> bool:
        return bool(self.preamble)


@dataclass
class Program:
    """A translation unit of kernels plus device functions."""

    name: str
    kernels: Tuple[KernelDef, ...]
    device_functions: Tuple[DeviceFunction, ...] = ()

    def __init__(
        self,
        name: str,
        kernels: Sequence[KernelDef],
        device_functions: Sequence[DeviceFunction] = (),
    ) -> None:
        self.name = name
        self.kernels = tuple(kernels)
        self.device_functions = tuple(device_functions)

    def kernel(self, name: str) -> KernelDef:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel {name}")
