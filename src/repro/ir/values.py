"""Core value hierarchy of the IR: values, uses, constants, globals.

Every operand in the IR is a :class:`Value`.  Def-use edges are
maintained eagerly (each value knows its uses) so passes can run
``replace_all_uses_with`` and dead-code elimination cheaply — the
same bookkeeping LLVM's ``Value``/``Use`` classes provide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.memory.addrspace import AddressSpace
from repro.ir.types import (
    F64,
    I1,
    I32,
    I64,
    FloatType,
    IntType,
    PointerType,
    Type,
    pointer_to,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.instructions import Instruction


class Use:
    """One operand slot of a user instruction referencing a value."""

    __slots__ = ("user", "index")

    def __init__(self, user: "Instruction", index: int) -> None:
        self.user = user
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Use({self.user!r}[{self.index}])"


class Value:
    """Base class of everything that can appear as an operand."""

    __slots__ = ("type", "name", "uses")

    def __init__(self, ty: Type, name: str = "") -> None:
        self.type = ty
        self.name = name
        self.uses: List[Use] = []

    # -- def-use maintenance -------------------------------------------------

    def add_use(self, user: "Instruction", index: int) -> None:
        self.uses.append(Use(user, index))

    def remove_use(self, user: "Instruction", index: int) -> None:
        for i, use in enumerate(self.uses):
            if use.user is user and use.index == index:
                del self.uses[i]
                return
        raise ValueError(f"use not found: {user!r}[{index}] of {self!r}")

    def replace_all_uses_with(self, new: "Value") -> None:
        """Redirect every use of *self* to *new*."""
        if new is self:
            return
        for use in list(self.uses):
            use.user.set_operand(use.index, new)

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def users(self) -> List["Instruction"]:
        """Distinct user instructions (an instruction may use a value twice)."""
        seen: List["Instruction"] = []
        for use in self.uses:
            if use.user not in seen:
                seen.append(use.user)
        return seen

    # -- printing ------------------------------------------------------------

    def short(self) -> str:
        """Operand-position rendering (overridden by subclasses)."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.short()} : {self.type}>"


class Constant(Value):
    """A typed scalar constant (integer, float, or pointer literal).

    Integers are stored in unsigned two's-complement representation,
    matching how the interpreter holds register values.
    """

    __slots__ = ("value",)

    def __init__(self, ty: Type, value: Union[int, float]) -> None:
        super().__init__(ty)
        if isinstance(ty, IntType):
            value = ty.wrap(int(value))
        elif isinstance(ty, FloatType):
            value = float(value)
        elif isinstance(ty, PointerType):
            value = int(value)
        else:
            raise TypeError(f"cannot make constant of type {ty}")
        self.value = value

    def short(self) -> str:
        if isinstance(self.type, PointerType) and self.value == 0:
            return "null"
        return str(self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_null(self) -> bool:
        return isinstance(self.type, PointerType) and self.value == 0

    def signed(self) -> int:
        """Signed interpretation of an integer constant."""
        assert isinstance(self.type, IntType)
        return self.type.to_signed(int(self.value))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class UndefValue(Value):
    """An undefined value of a given type (LLVM ``undef``)."""

    __slots__ = ()

    def short(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("index", "parent")

    def __init__(self, ty: Type, index: int, name: str = "", parent=None) -> None:
        super().__init__(ty, name or f"arg{index}")
        self.index = index
        self.parent = parent

    def short(self) -> str:
        return f"%{self.name}"


class GlobalVariable(Value):
    """A module-level variable.

    The value of a ``GlobalVariable`` used as an operand is its
    *address*; its type is therefore a pointer into ``addrspace``.
    ``value_type`` is the type of the storage it names.

    ``initializer`` may be:

    * ``None`` — zeroinitializer (the common case for runtime state),
    * ``bytes`` — raw image,
    * a list of :class:`Constant` — element-wise image for arrays.

    ``is_externally_initialized`` models the compiler-injected
    configuration globals of the paper (§III-F): the compiler emits them
    as *constants* with a known value, which the optimizer may fold.
    """

    __slots__ = (
        "value_type",
        "addrspace",
        "initializer",
        "linkage",
        "is_constant",
        "parent",
    )

    def __init__(
        self,
        name: str,
        value_type: Type,
        addrspace: AddressSpace = AddressSpace.GLOBAL,
        initializer: Union[None, bytes, Sequence[Constant]] = None,
        linkage: str = "internal",
        is_constant: bool = False,
    ) -> None:
        super().__init__(pointer_to(addrspace), name)
        if linkage not in ("internal", "external", "weak"):
            raise ValueError(f"bad linkage: {linkage}")
        self.value_type = value_type
        self.addrspace = addrspace
        self.initializer = initializer
        self.linkage = linkage
        self.is_constant = is_constant
        self.parent = None

    def short(self) -> str:
        return f"@{self.name}"

    @property
    def has_internal_linkage(self) -> bool:
        return self.linkage == "internal"


def const_int(value: int, ty: Optional[IntType] = None) -> Constant:
    """Convenience constructor for integer constants (default i32)."""
    return Constant(ty or I32, value)


def const_i64(value: int) -> Constant:
    return Constant(I64, value)


def const_i1(value: bool) -> Constant:
    return Constant(I1, 1 if value else 0)


def const_float(value: float, ty: Optional[FloatType] = None) -> Constant:
    return Constant(ty or F64, value)


def null_pointer(space: AddressSpace = AddressSpace.GENERIC) -> Constant:
    return Constant(pointer_to(space), 0)
