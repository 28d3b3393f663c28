"""Type system for the miniature SSA IR.

The IR is intentionally close to LLVM-IR: fixed-width integers, IEEE
floats, opaque pointers carrying only an address space, plus array,
struct and function types used for layout and call checking.  Pointers
are *opaque* (no pointee type), matching modern LLVM; loads and stores
carry the accessed type explicitly, which is also what makes the
field-sensitive access analysis (paper §IV-B1) natural: accesses are
characterised by byte offset and byte size, never by struct fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.memory.addrspace import AddressSpace


class Type:
    """Base class for IR types.  Types are immutable and interned by value."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self, (ArrayType, StructType))


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    bits: int

    def __post_init__(self) -> None:
        if self.bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {self.bits}")
        # Derived constants, computed once per instance: ``wrap`` and
        # ``to_signed`` run on every simulated integer op.  They are
        # plain attributes, not dataclass fields, so eq/hash/repr still
        # see only ``bits``.
        object.__setattr__(self, "mask", (1 << self.bits) - 1)
        object.__setattr__(self, "half", 1 << (self.bits - 1) if self.bits > 1 else 0)

    def __setstate__(self, state) -> None:
        # Pickles written before the derived constants existed carry
        # only ``bits``; recompute instead of trusting the payload.
        self.__dict__.update(state)
        self.__post_init__()

    def __str__(self) -> str:
        return f"i{self.bits}"

    @property
    def max_unsigned(self) -> int:
        return self.mask

    @property
    def min_signed(self) -> int:
        return -(1 << (self.bits - 1)) if self.bits > 1 else 0

    @property
    def max_signed(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.bits > 1 else 1

    def wrap(self, value: int) -> int:
        """Wrap *value* to this width (two's complement, unsigned repr)."""
        return value & self.mask

    def to_signed(self, value: int) -> int:
        """Interpret the unsigned representation *value* as signed
        (``i1`` has no sign bit: ``half`` is 0 and this is ``wrap``)."""
        return ((value + self.half) & self.mask) - self.half


@dataclass(frozen=True)
class FloatType(Type):
    bits: int

    def __post_init__(self) -> None:
        if self.bits not in (32, 64):
            raise ValueError(f"unsupported float width: {self.bits}")

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"


@dataclass(frozen=True)
class PointerType(Type):
    addrspace: AddressSpace = AddressSpace.GENERIC

    def __str__(self) -> str:
        if self.addrspace == AddressSpace.GENERIC:
            return "ptr"
        return f"ptr addrspace({int(self.addrspace)})"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("array count must be non-negative")

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


@dataclass(frozen=True)
class StructType(Type):
    """A named, non-packed struct.  Fields are laid out by DataLayout."""

    name: str
    fields: Tuple[Tuple[str, Type], ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        return f"%{self.name}"

    def field_type(self, name: str) -> Type:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def field_index(self, name: str) -> int:
        for i, (fname, _) in enumerate(self.fields):
            if fname == name:
                return i
        raise KeyError(f"struct {self.name} has no field {name!r}")


@dataclass(frozen=True)
class FunctionType(Type):
    return_type: Type
    params: Tuple[Type, ...]
    is_vararg: bool = False

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.is_vararg:
            params = f"{params}, ..." if params else "..."
        return f"{self.return_type} ({params})"


# Interned singletons for the common scalar types.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
PTR = PointerType(AddressSpace.GENERIC)
PTR_GLOBAL = PointerType(AddressSpace.GLOBAL)
PTR_SHARED = PointerType(AddressSpace.SHARED)
PTR_CONSTANT = PointerType(AddressSpace.CONSTANT)
PTR_LOCAL = PointerType(AddressSpace.LOCAL)


def pointer_to(space: AddressSpace = AddressSpace.GENERIC) -> PointerType:
    """Return the (interned) pointer type for *space*."""
    return _POINTER_CACHE[space]


_POINTER_CACHE = {space: PointerType(space) for space in AddressSpace}
