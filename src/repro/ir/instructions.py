"""Instruction set of the miniature SSA IR.

The set mirrors the subset of LLVM-IR the paper's optimizations care
about: loads/stores with explicit access types, raw byte-offset pointer
arithmetic (``ptradd`` — the opaque-pointer equivalent of GEP, which is
what makes the field-sensitive access analysis of §IV-B1 operate on
(offset, size) bins), phis, calls (direct and indirect), and barriers
expressed as calls to known intrinsics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.memory.addrspace import AddressSpace
from repro.ir.types import (
    I1,
    IntType,
    PointerType,
    Type,
    VOID,
    pointer_to,
)
from repro.ir.values import Use, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import BasicBlock


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

    __slots__ = ("opcode", "operands", "parent")

    #: Whether the instruction ends its block (true for ``br``,
    #: ``condbr``, ``ret`` and ``unreachable``).
    is_terminator = False

    def __init__(
        self,
        opcode: str,
        ty: Type,
        operands: Sequence[Value],
        name: str = "",
    ) -> None:
        # The Value fields and the operand uses are set inline: every
        # instruction the frontend and the passes build comes through here.
        self.type = ty
        self.name = name
        self.uses = []
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None
        self.operands: List[Value] = list(operands)
        for index, op in enumerate(self.operands):
            op.uses.append(Use(self, index))

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

    def _clone_type(self, operands: List[Value]) -> Type:
        """The result type of a clone over the mapped *operands*, after
        the checks the constructor makes (see :func:`clone_instruction`)."""
        return self.type

    def short(self) -> str:
        return f"%{self.name}" if self.name else f"%t{id(self) & 0xFFFF:x}"


class BinOp(Instruction):
    __slots__ = ()

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = "") -> None:
        super().__init__(op, _binop_type(op, lhs, rhs), [lhs, rhs], name)

    def _clone_type(self, operands: List[Value]) -> Type:
        return _binop_type(self.opcode, *operands)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


def _binop_type(op: str, lhs: Value, rhs: Value) -> Type:
    if op not in BINOPS:
        raise ValueError(f"unknown binop: {op}")
    if lhs.type != rhs.type:
        raise TypeError(f"binop operand type mismatch: {lhs.type} vs {rhs.type}")
    return lhs.type


class ICmp(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        _check_icmp(pred, lhs, rhs)
        super().__init__("icmp", I1, [lhs, rhs], name)
        self.predicate = pred

    def _clone_type(self, operands: List[Value]) -> Type:
        _check_icmp(self.predicate, *operands)
        return I1

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


def _check_icmp(pred: str, lhs: Value, rhs: Value) -> None:
    if pred not in ICMP_PREDICATES:
        raise ValueError(f"unknown icmp predicate: {pred}")
    if lhs.type != rhs.type:
        raise TypeError(f"icmp operand type mismatch: {lhs.type} vs {rhs.type}")


class FCmp(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        _check_fcmp(pred, lhs, rhs)
        super().__init__("fcmp", I1, [lhs, rhs], name)
        self.predicate = pred

    def _clone_type(self, operands: List[Value]) -> Type:
        _check_fcmp(self.predicate, *operands)
        return I1


def _check_fcmp(pred: str, lhs: Value, rhs: Value) -> None:
    if pred not in FCMP_PREDICATES:
        raise ValueError(f"unknown fcmp predicate: {pred}")
    if lhs.type != rhs.type:
        raise TypeError("fcmp operand type mismatch")


class Select(Instruction):
    __slots__ = ()

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> None:
        super().__init__("select", _select_type(cond, if_true, if_false),
                         [cond, if_true, if_false], name)

    def _clone_type(self, operands: List[Value]) -> Type:
        return _select_type(*operands)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


def _select_type(cond: Value, if_true: Value, if_false: Value) -> Type:
    if cond.type != I1:
        raise TypeError("select condition must be i1")
    if if_true.type != if_false.type:
        raise TypeError("select arm type mismatch")
    return if_true.type


class Cast(Instruction):
    __slots__ = ()

    def __init__(self, op: str, value: Value, to_type: Type, name: str = "") -> None:
        _check_cast(op)
        super().__init__(op, to_type, [value], name)

    def _clone_type(self, operands: List[Value]) -> Type:
        _check_cast(self.opcode)
        return self.type

    @property
    def source(self) -> Value:
        return self.operands[0]


def _check_cast(op: str) -> None:
    if op not in CAST_OPS:
        raise ValueError(f"unknown cast: {op}")


#: The type of every ``alloca``: a pointer into per-thread local memory.
_ALLOCA_TYPE = pointer_to(AddressSpace.LOCAL)


class Alloca(Instruction):
    """Stack allocation in the per-thread local address space."""

    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        super().__init__("alloca", _ALLOCA_TYPE, [], name)
        self.allocated_type = allocated_type

    def _clone_type(self, operands: List[Value]) -> Type:
        return _ALLOCA_TYPE


class Load(Instruction):
    __slots__ = ("is_volatile",)

    def __init__(self, ty: Type, ptr: Value, name: str = "", volatile: bool = False) -> None:
        _check_pointer("load pointer operand", ptr)
        super().__init__("load", ty, [ptr], name)
        self.is_volatile = volatile

    def _clone_type(self, operands: List[Value]) -> Type:
        _check_pointer("load pointer operand", operands[0])
        return self.type

    @property
    def pointer(self) -> Value:
        return self.operands[0]


def _check_pointer(what: str, ptr: Value) -> None:
    if not isinstance(ptr.type, PointerType):
        raise TypeError(f"{what} is {ptr.type}")


class Store(Instruction):
    __slots__ = ("is_volatile",)

    def __init__(self, value: Value, ptr: Value, volatile: bool = False) -> None:
        _check_pointer("store pointer operand", ptr)
        super().__init__("store", VOID, [value, ptr])
        self.is_volatile = volatile

    def _clone_type(self, operands: List[Value]) -> Type:
        _check_pointer("store pointer operand", operands[1])
        return VOID

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
        super().__init__("ptradd", _ptradd_type(ptr, offset), [ptr, offset], name)

    def _clone_type(self, operands: List[Value]) -> Type:
        return _ptradd_type(*operands)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def offset(self) -> Value:
        return self.operands[1]


def _ptradd_type(ptr: Value, offset: Value) -> Type:
    _check_pointer("ptradd base", ptr)
    if not isinstance(offset.type, IntType):
        raise TypeError(f"ptradd offset is {offset.type}")
    return ptr.type


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
    is_terminator = True

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__("br", VOID, [])
        self.target = target


class CondBr(Instruction):
    __slots__ = ("true_target", "false_target")
    is_terminator = True

    def __init__(self, cond: Value, true_target: "BasicBlock", false_target: "BasicBlock") -> None:
        _check_condbr(cond)
        super().__init__("condbr", VOID, [cond])
        self.true_target = true_target
        self.false_target = false_target

    def _clone_type(self, operands: List[Value]) -> Type:
        _check_condbr(operands[0])
        return VOID

    @property
    def condition(self) -> Value:
        return self.operands[0]


def _check_condbr(cond: Value) -> None:
    if cond.type != I1:
        raise TypeError("condbr condition must be i1")


class Ret(Instruction):
    __slots__ = ()
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__("ret", VOID, [value] if value is not None else [])

    @property
    def return_value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Unreachable(Instruction):
    __slots__ = ()
    is_terminator = True

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
        cv = self.operands[0]
        return cv if isinstance(cv, Function) else None

    def is_readnone_callee(self) -> bool:
        callee = self.callee
        return callee is not None and "readnone" in callee.attrs


class AtomicRMW(Instruction):
    __slots__ = ("operation",)

    def __init__(self, op: str, ptr: Value, value: Value, name: str = "") -> None:
        super().__init__("atomicrmw", _atomic_type(op, ptr, value), [ptr, value], name)
        self.operation = op

    def _clone_type(self, operands: List[Value]) -> Type:
        return _atomic_type(self.operation, *operands)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]


def _atomic_type(op: str, ptr: Value, value: Value) -> Type:
    if op not in ATOMIC_OPS:
        raise ValueError(f"unknown atomic op: {op}")
    if not isinstance(ptr.type, PointerType):
        raise TypeError("atomicrmw pointer operand must be a pointer")
    return value.type


def clone_instruction(inst: Instruction, operand_map: Dict[Value, Value]) -> Instruction:
    """Clone *inst*, remapping operands through *operand_map*.

    The clone is built field by field rather than through its
    constructor, but makes the same checks and takes its result type
    from the mapped operands the same way (``_clone_type``).  Block
    targets of terminators and phi incomings are *not* remapped here;
    callers (the inliner) fix those up afterwards.
    """
    cls = type(inst)
    get = operand_map.get
    operands = [] if cls is Phi else [get(v, v) for v in inst.operands]
    new = cls.__new__(cls)
    new.type = inst._clone_type(operands)
    new.name = inst.name
    new.uses = []
    new.opcode = inst.opcode
    new.parent = None
    new.operands = operands
    for index, op in enumerate(operands):
        op.uses.append(Use(new, index))
    if cls is Phi:
        new.incoming_blocks = []
    else:
        for slot in cls.__slots__:
            setattr(new, slot, getattr(inst, slot))
    return new


# Imported last: repro.ir.module imports this module for its block and
# terminator classes, and the package imports this module first.
from repro.ir.module import Function  # noqa: E402
