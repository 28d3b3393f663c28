"""Field-sensitive access analysis over analyzable memory objects (§IV-B1).

An *analyzable object* is an internal global, a stack allocation, or a
known allocation call — memory whose full set of accesses is visible.
Accesses are binned by (constant byte offset, access size); pointers
reaching the access through ``select``/``phi`` make it *conditional*
(the Fig. 7b conditional-pointer writes), and non-constant offsets make
it an *unknown-offset* access.  Anything else (address stored to
memory, passed to an unknown callee, ...) marks the object escaped and
thus unanalyzable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.memory.addrspace import AddressSpace
from repro.memory.layout import DATA_LAYOUT
from repro.memory.memmodel import scalar_size
from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
    BinOp,
    Call,
    Cast,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Select,
    Store,
)
from repro.ir.module import Function, Module
from repro.ir.types import IntType
from repro.ir.values import Constant, GlobalVariable, Value

#: Allocation functions whose results are analyzable objects.
ALLOC_FUNCTIONS = {
    "__kmpc_alloc_shared",
    "__kmpc_alloc_shared_old",
    "malloc",
}


class AccessKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"
    MEM_INTRINSIC = "mem"


@dataclass
class Access:
    """One memory access binned against an object."""

    kind: AccessKind
    inst: Instruction
    #: Constant byte offset within the object; None if unknown.
    offset: Optional[int]
    #: Access size in bytes; None for unknown-length intrinsics.
    size: Optional[int]
    #: Value stored (STORE only).
    stored_value: Optional[Value] = None
    #: True when the pointer flowed through select/phi, i.e. the access
    #: may target a different object instead (Fig. 7b writes).
    conditional: bool = False

    @property
    def is_write(self) -> bool:
        return self.kind in (AccessKind.STORE, AccessKind.ATOMIC, AccessKind.MEM_INTRINSIC)

    def may_overlap(self, offset: int, size: int) -> bool:
        if self.offset is None or self.size is None:
            return True
        return not (self.offset + self.size <= offset or offset + size <= self.offset)


@dataclass
class MemoryObject:
    """All knowledge about one analyzable allocation."""

    base: Value
    size: Optional[int]
    addrspace: Optional[AddressSpace]
    #: Object starts as all-zero bytes (globals without initializer).
    zero_initialized: bool
    accesses: List[Access] = field(default_factory=list)
    escaped: bool = False
    escape_reason: str = ""

    @property
    def name(self) -> str:
        if isinstance(self.base, GlobalVariable):
            return f"@{self.base.name}"
        if isinstance(self.base, Instruction):
            return self.base.short()
        return str(self.base)

    @property
    def analyzable(self) -> bool:
        return not self.escaped

    def loads(self) -> List[Access]:
        return [a for a in self.accesses if a.kind is AccessKind.LOAD]

    def writes(self) -> List[Access]:
        return [a for a in self.accesses if a.is_write]

    def interfering_writes(self, offset: int, size: int) -> List[Access]:
        """Writes that may affect a load of (offset, size) — already
        filtered by offset/size disjointness (paper's implicit filter)."""
        return [w for w in self.writes() if w.may_overlap(offset, size)]


def _object_size(base: Value) -> Optional[int]:
    if isinstance(base, GlobalVariable):
        return DATA_LAYOUT.size_of(base.value_type)
    if isinstance(base, Alloca):
        return DATA_LAYOUT.size_of(base.allocated_type)
    if isinstance(base, Call):
        callee = base.callee
        if callee is not None and callee.name in ALLOC_FUNCTIONS:
            arg = base.args[0]
            if isinstance(arg, Constant):
                return int(arg.value)
    return None


def discover_objects(module: Module) -> List[MemoryObject]:
    """Find analyzable objects and collect every access to them."""
    objects: List[MemoryObject] = []
    for gv in module.globals.values():
        if not gv.has_internal_linkage:
            continue
        objects.append(
            MemoryObject(
                base=gv,
                size=_object_size(gv),
                addrspace=gv.addrspace,
                zero_initialized=gv.initializer is None,
            )
        )
    for func in module.defined_functions():
        for inst in func.instructions():
            if isinstance(inst, Alloca):
                objects.append(
                    MemoryObject(
                        base=inst,
                        size=_object_size(inst),
                        addrspace=AddressSpace.LOCAL,
                        zero_initialized=False,
                    )
                )
            elif isinstance(inst, Call):
                callee = inst.callee
                if callee is not None and callee.name in ALLOC_FUNCTIONS:
                    objects.append(
                        MemoryObject(
                            base=inst,
                            size=_object_size(inst),
                            addrspace=None,
                            zero_initialized=False,
                        )
                    )
    for obj in objects:
        _collect_accesses(obj)
    return objects


def _collect_accesses(obj: MemoryObject) -> None:
    """Walk the use graph of the object's address."""
    # Worklist of (value-that-is-a-pointer-into-obj, offset, conditional).
    work: List[Tuple[Value, Optional[int], bool]] = [(obj.base, 0, False)]
    seen: Set[Tuple[int, Optional[int], bool]] = set()

    def escape(reason: str) -> None:
        obj.escaped = True
        if not obj.escape_reason:
            obj.escape_reason = reason

    while work and not obj.escaped:
        value, offset, conditional = work.pop()
        key = (id(value), offset, conditional)
        if key in seen:
            continue
        seen.add(key)

        for use in list(value.uses):
            user = use.user
            if isinstance(user, Load):
                obj.accesses.append(Access(
                    AccessKind.LOAD, user, offset, scalar_size(user.type),
                    conditional=conditional,
                ))
            elif isinstance(user, Store):
                if user.pointer is value and use.index == 1:
                    obj.accesses.append(Access(
                        AccessKind.STORE, user, offset,
                        scalar_size(user.value.type),
                        stored_value=user.value, conditional=conditional,
                    ))
                else:
                    escape(f"address stored to memory by {user.opcode}")
            elif isinstance(user, AtomicRMW):
                if user.pointer is value and use.index == 0:
                    obj.accesses.append(Access(
                        AccessKind.ATOMIC, user, offset,
                        scalar_size(user.value.type), conditional=conditional,
                    ))
                else:
                    escape("address used as atomic operand")
            elif isinstance(user, PtrAdd):
                if user.pointer is not value:
                    escape("pointer used as ptradd offset")
                    continue
                if isinstance(user.offset, Constant):
                    ty = user.offset.type
                    assert isinstance(ty, IntType)
                    delta = ty.to_signed(int(user.offset.value))
                    new_off = offset + delta if offset is not None else None
                else:
                    new_off = None
                work.append((user, new_off, conditional))
            elif isinstance(user, Select):
                if user.condition is value:
                    escape("pointer used as select condition")
                else:
                    work.append((user, offset, True))
            elif isinstance(user, Phi):
                work.append((user, offset, True))
            elif isinstance(user, Cast):
                if user.opcode in ("ptrtoint", "inttoptr", "bitcast"):
                    work.append((user, offset, conditional))
                else:
                    escape(f"pointer cast via {user.opcode}")
            elif isinstance(user, ICmp):
                continue  # address comparisons don't access memory
            elif isinstance(user, BinOp):
                # Integer arithmetic on ptrtoint'd addresses: constant
                # adjustments keep the offset; anything else loses it.
                if user.opcode == "add":
                    other = user.rhs if user.lhs is value else user.lhs
                    if isinstance(other, Constant) and offset is not None:
                        ty = other.type
                        assert isinstance(ty, IntType)
                        work.append((user, offset + ty.to_signed(int(other.value)), conditional))
                    else:
                        work.append((user, None, conditional))
                elif user.opcode == "sub" and user.lhs is value:
                    work.append((user, None, conditional))
                else:
                    escape(f"address arithmetic via {user.opcode}")
            elif isinstance(user, Call):
                callee = user.callee
                name = callee.name if callee is not None else None
                if name in ("llvm.memcpy", "llvm.memset"):
                    length = user.args[2]
                    size = int(length.value) if isinstance(length, Constant) else None
                    if name == "llvm.memcpy" and user.args[1] is value and use.index == 2:
                        obj.accesses.append(Access(
                            AccessKind.LOAD, user, offset, size, conditional=conditional,
                        ))
                    else:
                        obj.accesses.append(Access(
                            AccessKind.MEM_INTRINSIC, user, offset, size,
                            conditional=conditional,
                        ))
                elif name in ("__kmpc_free_shared", "__kmpc_free_shared_old", "free"):
                    continue  # deallocation, not an access
                elif name == "llvm.assume":
                    continue
                else:
                    escape(f"address passed to call of @{name or '<indirect>'}")
            elif user.opcode == "ret":
                escape("address returned")
            else:
                escape(f"address used by {user.opcode}")
