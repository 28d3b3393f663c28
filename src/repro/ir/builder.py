"""IRBuilder: convenience layer for constructing IR.

Follows the LLVM ``IRBuilder`` idiom: it holds an insertion point and
offers one method per instruction, returning the created value.
It also performs *trivial* constant folding on creation so the runtime
libraries and frontend produce reasonably clean IR before the real
optimization pipeline runs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.memory import layout
from repro.memory.addrspace import AddressSpace
from repro.ir.folding import fold_binop, fold_cast, fold_icmp
from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.intrinsics import declare_intrinsic
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    F64,
    FloatType,
    I1,
    I32,
    I64,
    IntType,
    Type,
    VOID,
)
from repro.ir.values import Constant, UndefValue, Value

ValueOrInt = Union[Value, int]
ValueOrNum = Union[Value, int, float]


class IRBuilder:
    """Builds instructions at an insertion point inside a module."""

    def __init__(self, module: Module, block: Optional[BasicBlock] = None) -> None:
        self.module = module
        self.block: Optional[BasicBlock] = block

    # -- positioning -------------------------------------------------------------

    def set_insert_point(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self) -> Function:
        assert self.block is not None and self.block.parent is not None
        return self.block.parent

    def _insert(self, inst: Instruction) -> Instruction:
        assert self.block is not None, "no insertion point set"
        return self.block.append(inst)

    # -- constants ----------------------------------------------------------------

    def const(self, value: ValueOrNum, ty: Type) -> Value:
        if isinstance(value, Value):
            return value
        return Constant(ty, value)

    def i32(self, value: ValueOrInt) -> Value:
        return self.const(value, I32)

    def i64(self, value: ValueOrInt) -> Value:
        return self.const(value, I64)

    def i1(self, value: Union[Value, bool, int]) -> Value:
        if isinstance(value, Value):
            return value
        return Constant(I1, 1 if value else 0)

    def f64(self, value: ValueOrNum) -> Value:
        return self.const(value, F64)

    def undef(self, ty: Type) -> Value:
        return UndefValue(ty)

    # -- arithmetic ---------------------------------------------------------------

    def _binop(self, op: str, lhs: Value, rhs: Value, name: str) -> Value:
        folded = _fold_binop(op, lhs, rhs)
        if folded is not None:
            return folded
        return self._insert(BinOp(op, lhs, rhs, name))

    def add(self, lhs: ValueOrInt, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("add", lhs, rhs, name)

    def sub(self, lhs: ValueOrInt, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("sub", lhs, rhs, name)

    def mul(self, lhs: ValueOrInt, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("sdiv", lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("udiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("srem", lhs, rhs, name)

    def urem(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("urem", lhs, rhs, name)

    def and_(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("lshr", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._binop("ashr", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: ValueOrNum, name: str = "") -> Value:
        return self._binop("fadd", lhs, self.const(rhs, lhs.type), name)

    def fsub(self, lhs: Value, rhs: ValueOrNum, name: str = "") -> Value:
        return self._binop("fsub", lhs, self.const(rhs, lhs.type), name)

    def fmul(self, lhs: Value, rhs: ValueOrNum, name: str = "") -> Value:
        return self._binop("fmul", lhs, self.const(rhs, lhs.type), name)

    def fdiv(self, lhs: Value, rhs: ValueOrNum, name: str = "") -> Value:
        return self._binop("fdiv", lhs, self.const(rhs, lhs.type), name)

    def _coerce_pair(self, lhs: ValueOrInt, rhs: ValueOrInt):
        if isinstance(lhs, Value) and not isinstance(rhs, Value):
            rhs = self.const(rhs, lhs.type)
        elif isinstance(rhs, Value) and not isinstance(lhs, Value):
            lhs = self.const(lhs, rhs.type)
        elif not isinstance(lhs, Value) and not isinstance(rhs, Value):
            lhs, rhs = self.i32(lhs), self.i32(rhs)
        return lhs, rhs

    # -- comparisons -----------------------------------------------------------------

    def icmp(self, pred: str, lhs: ValueOrInt, rhs: ValueOrInt, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            folded = fold_icmp(pred, lhs, rhs)
            if folded is not None:
                return folded
        return self._insert(ICmp(pred, lhs, rhs, name))

    def fcmp(self, pred: str, lhs: Value, rhs: ValueOrNum, name: str = "") -> Value:
        return self._insert(FCmp(pred, lhs, self.const(rhs, lhs.type), name))

    def select(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> Value:
        if isinstance(cond, Constant):
            return if_true if cond.value else if_false
        return self._insert(Select(cond, if_true, if_false, name))

    # -- casts --------------------------------------------------------------------------

    def cast(self, op: str, value: Value, to_type: Type, name: str = "") -> Value:
        if value.type == to_type and op in ("zext", "sext", "trunc", "bitcast"):
            return value
        if isinstance(value, Constant):
            folded = fold_cast(op, value, to_type)
            if folded is not None:
                return folded
        return self._insert(Cast(op, value, to_type, name))

    def zext(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("zext", value, to_type, name)

    def sext(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("sext", value, to_type, name)

    def trunc(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("trunc", value, to_type, name)

    def sitofp(self, value: Value, to_type: Type = F64, name: str = "") -> Value:
        return self.cast("sitofp", value, to_type, name)

    def uitofp(self, value: Value, to_type: Type = F64, name: str = "") -> Value:
        return self.cast("uitofp", value, to_type, name)

    def fptosi(self, value: Value, to_type: Type = I64, name: str = "") -> Value:
        return self.cast("fptosi", value, to_type, name)

    # -- memory --------------------------------------------------------------------------

    def alloca(self, ty: Type, name: str = "") -> Value:
        return self._insert(Alloca(ty, name))

    def load(self, ty: Type, ptr: Value, name: str = "", volatile: bool = False) -> Value:
        return self._insert(Load(ty, ptr, name, volatile))

    def store(self, value: ValueOrNum, ptr: Value, volatile: bool = False) -> Instruction:
        if not isinstance(value, Value):
            raise TypeError("store value must be a Value; wrap constants explicitly")
        return self._insert(Store(value, ptr, volatile))

    def ptradd(self, ptr: Value, offset: ValueOrInt, name: str = "") -> Value:
        off = self.i64(offset) if not isinstance(offset, Value) else offset
        if isinstance(off, Constant) and off.value == 0:
            return ptr
        return self._insert(PtrAdd(ptr, off, name))

    def gep(self, ptr: Value, struct_ty, field_name: str, name: str = "") -> Value:
        """Field address: ``ptradd`` by the DataLayout offset of the field."""
        offset = layout.DATA_LAYOUT.field_offset(struct_ty, field_name)
        return self.ptradd(ptr, offset, name or f"{field_name}.addr")

    def array_gep(self, ptr: Value, element_ty: Type, index: ValueOrInt, name: str = "") -> Value:
        """Element address: base + index * sizeof(element)."""
        size = layout.DATA_LAYOUT.size_of(element_ty)
        if isinstance(index, int):
            return self.ptradd(ptr, index * size, name)
        idx64 = self.sext(index, I64) if isinstance(index.type, IntType) and index.type.bits < 64 else index
        byte_off = self.mul(idx64, self.i64(size))
        return self.ptradd(ptr, byte_off, name)

    def atomic_rmw(self, op: str, ptr: Value, value: Value, name: str = "") -> Value:
        return self._insert(AtomicRMW(op, ptr, value, name))

    # -- control flow --------------------------------------------------------------------

    def br(self, target: BasicBlock) -> Instruction:
        return self._insert(Br(target))

    def cond_br(self, cond: Value, true_target: BasicBlock, false_target: BasicBlock) -> Instruction:
        return self._insert(CondBr(cond, true_target, false_target))

    def ret(self, value: Optional[Value] = None) -> Instruction:
        return self._insert(Ret(value))

    def unreachable(self) -> Instruction:
        return self._insert(Unreachable())

    def phi(self, ty: Type, name: str = "") -> Phi:
        assert self.block is not None
        node = Phi(ty, name)
        self.block.insert(self.block.first_non_phi_index(), node)
        return node

    # -- calls --------------------------------------------------------------------------

    def call(self, callee: Union[Function, Value], args: Sequence[Value], name: str = "") -> Value:
        if isinstance(callee, Function):
            ret_ty = callee.return_type
        else:
            ret_ty = I64  # indirect calls through opaque pointers default to i64
        return self._insert(Call(callee, list(args), ret_ty, name))

    def call_indirect(self, callee: Value, args: Sequence[Value], ret_ty: Type = VOID, name: str = "") -> Value:
        return self._insert(Call(callee, list(args), ret_ty, name))

    def intrinsic(self, name: str, args: Sequence[Value] = (), value_name: str = "") -> Value:
        func = declare_intrinsic(self.module, name)
        return self.call(func, args, value_name)

    def assume(self, cond: Value) -> Value:
        return self.intrinsic("llvm.assume", [self.i1(cond)])

    def aligned_barrier(self) -> Value:
        return self.intrinsic("gpu.barrier.aligned")

    def barrier(self) -> Value:
        return self.intrinsic("gpu.barrier")

    def thread_id(self, name: str = "tid") -> Value:
        return self.intrinsic("gpu.thread_id", value_name=name)

    def block_id(self, name: str = "bid") -> Value:
        return self.intrinsic("gpu.block_id", value_name=name)

    def block_dim(self, name: str = "bdim") -> Value:
        return self.intrinsic("gpu.block_dim", value_name=name)

    def grid_dim(self, name: str = "gdim") -> Value:
        return self.intrinsic("gpu.grid_dim", value_name=name)


def _fold_binop(op: str, lhs: Value, rhs: Value) -> Optional[Value]:
    """Create-time folding for constant operands and trivial identities."""
    if isinstance(lhs, Constant) and isinstance(rhs, Constant):
        return fold_binop(op, lhs, rhs)
    if isinstance(rhs, Constant) and rhs.value == 0 and op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
        return lhs
    if isinstance(lhs, Constant) and lhs.value == 0 and op in ("add", "or", "xor"):
        return rhs
    if isinstance(rhs, Constant) and rhs.value == 1 and op in ("mul", "sdiv", "udiv"):
        return lhs
    if isinstance(lhs, Constant) and lhs.value == 1 and op == "mul":
        return rhs
    if isinstance(rhs, Constant) and rhs.value == 0 and op == "mul":
        return rhs
    if isinstance(lhs, Constant) and lhs.value == 0 and op == "mul":
        return lhs
    return None
