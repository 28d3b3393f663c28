"""Instruction set of the miniature SSA IR.

The set mirrors the subset of LLVM-IR the paper's optimizations care
about: loads/stores with explicit access types, raw byte-offset pointer
arithmetic (``ptradd`` — the opaque-pointer equivalent of GEP, which is
what makes the field-sensitive access analysis of §IV-B1 operate on
(offset, size) bins), phis, calls (direct and indirect), and barriers
expressed as calls to known intrinsics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.ir.types import (
    I1,
    FloatType,
    IntType,
    PointerType,
    Type,
    VOID,
)
from repro.ir.values import Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import BasicBlock, Function


INT_BINOPS = {
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "frem"}
BINOPS = INT_BINOPS | FLOAT_BINOPS

ICMP_PREDICATES = {"eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge"}
FCMP_PREDICATES = {"oeq", "one", "olt", "ole", "ogt", "oge"}

CAST_OPS = {
    "zext", "sext", "trunc", "sitofp", "uitofp", "fptosi",
    "fpext", "fptrunc", "ptrtoint", "inttoptr", "bitcast",
}

ATOMIC_OPS = {"add", "sub", "max", "min", "exchange"}

#: Every opcode an instruction can carry.
OPCODES = tuple(sorted(BINOPS | CAST_OPS | {
    "icmp", "fcmp", "select", "alloca", "load", "store", "ptradd", "phi",
    "br", "condbr", "ret", "unreachable", "call", "atomicrmw",
}))


class Instruction(Value):
    """Base class.  An instruction is itself a value (its result)."""

    __slots__ = ("opcode", "operands", "parent", "attrs")

    def __init__(
        self,
        opcode: str,
        ty: Type,
        operands: Sequence[Value],
        name: str = "",
    ) -> None:
        super().__init__(ty, name)
        self.opcode = opcode
        self.operands: List[Value] = []
        self.parent: Optional["BasicBlock"] = None
        self.attrs: Set[str] = set()
        for op in operands:
            self._append_operand(op)

    # -- operand management ---------------------------------------------------

    def _append_operand(self, value: Value) -> None:
        index = len(self.operands)
        self.operands.append(value)
        value.add_use(self, index)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.remove_use(self, index)
        self.operands[index] = value
        value.add_use(self, index)

    def drop_all_references(self) -> None:
        """Remove this instruction's uses of its operands."""
        for index, op in enumerate(self.operands):
            op.remove_use(self, index)
        self.operands = []

    def erase_from_parent(self) -> None:
        """Unlink from the parent block and drop operand uses."""
        assert self.parent is not None, "instruction not in a block"
        if self.uses:
            raise ValueError(f"erasing {self!r} which still has uses")
        self.parent.instructions.remove(self)
        self.drop_all_references()
        self.parent = None

    # -- classification ---------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Br, CondBr, Ret, Unreachable))

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    def may_read_memory(self) -> bool:
        if isinstance(self, (Load, AtomicRMW)):
            return True
        if isinstance(self, Call):
            return not self.is_readnone_callee()
        return False

    def may_have_side_effects(self) -> bool:
        """Conservative: anything observable beyond producing a value."""
        if isinstance(self, (Store, AtomicRMW)):
            return True
        if isinstance(self, Call):
            return not self.is_readnone_callee()
        return False

    def is_trivially_dead(self) -> bool:
        return (
            not self.uses
            and not self.is_terminator
            and not self.may_have_side_effects()
        )

    def is_readnone_callee(self) -> bool:  # overridden by Call
        return False

    def short(self) -> str:
        return f"%{self.name}" if self.name else f"%t{id(self) & 0xFFFF:x}"


class BinOp(Instruction):
    __slots__ = ()

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if op not in BINOPS:
            raise ValueError(f"unknown binop: {op}")
        if lhs.type != rhs.type:
            raise TypeError(f"binop operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(op, lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ICmp(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if pred not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {pred}")
        if lhs.type != rhs.type:
            raise TypeError(f"icmp operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__("icmp", I1, [lhs, rhs], name)
        self.predicate = pred

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class FCmp(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if pred not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate: {pred}")
        if lhs.type != rhs.type:
            raise TypeError("fcmp operand type mismatch")
        super().__init__("fcmp", I1, [lhs, rhs], name)
        self.predicate = pred


class Select(Instruction):
    __slots__ = ()

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> None:
        if cond.type != I1:
            raise TypeError("select condition must be i1")
        if if_true.type != if_false.type:
            raise TypeError("select arm type mismatch")
        super().__init__("select", if_true.type, [cond, if_true, if_false], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


class Cast(Instruction):
    __slots__ = ()

    def __init__(self, op: str, value: Value, to_type: Type, name: str = "") -> None:
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast: {op}")
        super().__init__(op, to_type, [value], name)

    @property
    def source(self) -> Value:
        return self.operands[0]


class Alloca(Instruction):
    """Stack allocation in the per-thread local address space."""

    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        from repro.memory.addrspace import AddressSpace
        from repro.ir.types import pointer_to

        super().__init__("alloca", pointer_to(AddressSpace.LOCAL), [], name)
        self.allocated_type = allocated_type


class Load(Instruction):
    __slots__ = ("is_volatile",)

    def __init__(self, ty: Type, ptr: Value, name: str = "", volatile: bool = False) -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"load pointer operand is {ptr.type}")
        super().__init__("load", ty, [ptr], name)
        self.is_volatile = volatile

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    __slots__ = ("is_volatile",)

    def __init__(self, value: Value, ptr: Value, volatile: bool = False) -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"store pointer operand is {ptr.type}")
        super().__init__("store", VOID, [value, ptr])
        self.is_volatile = volatile

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class PtrAdd(Instruction):
    """``ptradd ptr, offset`` — byte-granular pointer arithmetic.

    This is the opaque-pointer form of GEP; all field and array indexing
    is lowered to it, so access offsets are explicit byte values.
    """

    __slots__ = ()

    def __init__(self, ptr: Value, offset: Value, name: str = "") -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"ptradd base is {ptr.type}")
        if not isinstance(offset.type, IntType):
            raise TypeError(f"ptradd offset is {offset.type}")
        super().__init__("ptradd", ptr.type, [ptr, offset], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def offset(self) -> Value:
        return self.operands[1]


class Phi(Instruction):
    __slots__ = ("incoming_blocks",)

    def __init__(self, ty: Type, name: str = "") -> None:
        super().__init__("phi", ty, [], name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(f"phi incoming type {value.type} != {self.type}")
        self._append_operand(value)
        self.incoming_blocks.append(block)

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for v, b in zip(self.operands, self.incoming_blocks):
            if b is block:
                return v
        raise KeyError(f"no incoming value from {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, b in enumerate(self.incoming_blocks):
            if b is block:
                # Shift operands down, fixing use indices.
                self.operands[i].remove_use(self, i)
                for j in range(i + 1, len(self.operands)):
                    op = self.operands[j]
                    op.remove_use(self, j)
                    op.add_use(self, j - 1)
                del self.operands[i]
                del self.incoming_blocks[i]
                return
        raise KeyError(f"no incoming edge from {block.name}")


class Br(Instruction):
    __slots__ = ("target",)

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__("br", VOID, [])
        self.target = target


class CondBr(Instruction):
    __slots__ = ("true_target", "false_target")

    def __init__(self, cond: Value, true_target: "BasicBlock", false_target: "BasicBlock") -> None:
        if cond.type != I1:
            raise TypeError("condbr condition must be i1")
        super().__init__("condbr", VOID, [cond])
        self.true_target = true_target
        self.false_target = false_target

    @property
    def condition(self) -> Value:
        return self.operands[0]


class Ret(Instruction):
    __slots__ = ()

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__("ret", VOID, [value] if value is not None else [])

    @property
    def return_value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Unreachable(Instruction):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("unreachable", VOID, [])


class Call(Instruction):
    """Direct or indirect call.  Operand 0 is the callee."""

    __slots__ = ()

    def __init__(self, callee: Value, args: Sequence[Value], ty: Type, name: str = "") -> None:
        super().__init__("call", ty, [callee, *args], name)

    @property
    def callee_operand(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]

    @property
    def callee(self) -> Optional["Function"]:
        """The statically known callee, if this is a direct call."""
        from repro.ir.module import Function

        cv = self.callee_operand
        return cv if isinstance(cv, Function) else None

    def is_readnone_callee(self) -> bool:
        callee = self.callee
        return callee is not None and "readnone" in callee.attrs


class AtomicRMW(Instruction):
    __slots__ = ("operation",)

    def __init__(self, op: str, ptr: Value, value: Value, name: str = "") -> None:
        if op not in ATOMIC_OPS:
            raise ValueError(f"unknown atomic op: {op}")
        if not isinstance(ptr.type, PointerType):
            raise TypeError("atomicrmw pointer operand must be a pointer")
        super().__init__("atomicrmw", value.type, [ptr, value], name)
        self.operation = op

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]


def clone_instruction(inst: Instruction, operand_map: Dict[Value, Value]) -> Instruction:
    """Clone *inst*, remapping operands through *operand_map*.

    Block targets of terminators and phi incoming blocks are *not*
    remapped here; callers (the inliner) fix those up afterwards.
    """

    def m(v: Value) -> Value:
        return operand_map.get(v, v)

    if isinstance(inst, BinOp):
        new: Instruction = BinOp(inst.opcode, m(inst.lhs), m(inst.rhs), inst.name)
    elif isinstance(inst, ICmp):
        new = ICmp(inst.predicate, m(inst.lhs), m(inst.rhs), inst.name)
    elif isinstance(inst, FCmp):
        new = FCmp(inst.predicate, m(inst.operands[0]), m(inst.operands[1]), inst.name)
    elif isinstance(inst, Select):
        new = Select(m(inst.condition), m(inst.true_value), m(inst.false_value), inst.name)
    elif isinstance(inst, Cast):
        new = Cast(inst.opcode, m(inst.source), inst.type, inst.name)
    elif isinstance(inst, Alloca):
        new = Alloca(inst.allocated_type, inst.name)
    elif isinstance(inst, Load):
        new = Load(inst.type, m(inst.pointer), inst.name, inst.is_volatile)
    elif isinstance(inst, Store):
        new = Store(m(inst.value), m(inst.pointer), inst.is_volatile)
    elif isinstance(inst, PtrAdd):
        new = PtrAdd(m(inst.pointer), m(inst.offset), inst.name)
    elif isinstance(inst, Phi):
        new = Phi(inst.type, inst.name)
        # Incoming values/blocks are fixed up by the caller.
    elif isinstance(inst, Br):
        new = Br(inst.target)
    elif isinstance(inst, CondBr):
        new = CondBr(m(inst.condition), inst.true_target, inst.false_target)
    elif isinstance(inst, Ret):
        rv = inst.return_value
        new = Ret(m(rv) if rv is not None else None)
    elif isinstance(inst, Unreachable):
        new = Unreachable()
    elif isinstance(inst, Call):
        new = Call(m(inst.callee_operand), [m(a) for a in inst.args], inst.type, inst.name)
    elif isinstance(inst, AtomicRMW):
        new = AtomicRMW(inst.operation, m(inst.pointer), m(inst.value), inst.name)
    else:  # pragma: no cover - future instruction kinds
        raise TypeError(f"cannot clone {type(inst).__name__}")
    new.attrs = set(inst.attrs)
    return new
