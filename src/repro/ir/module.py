"""Module, function and basic-block containers."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.ir.instructions import Br, CondBr, Instruction, Phi
from repro.ir.types import PTR, FunctionType, StructType, Type
from repro.ir.values import Argument, GlobalVariable, Value


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    __slots__ = ("name", "parent", "instructions")

    def __init__(self, name: str, parent: Optional["Function"] = None) -> None:
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    def append(self, inst: Instruction) -> Instruction:
        if self.instructions and self.instructions[-1].is_terminator:
            raise ValueError(f"appending past terminator in block {self.name}")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.instructions.index(anchor), inst)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if isinstance(term, Br):
            return [term.target]
        if isinstance(term, CondBr):
            if term.true_target is term.false_target:
                return [term.true_target]
            return [term.true_target, term.false_target]
        return []

    def phis(self) -> List[Phi]:
        out: List[Phi] = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                out.append(inst)
            else:
                break
        return out

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function(Value):
    """A function definition or declaration.

    Functions are values (their address), so they can be passed as
    function pointers — the worksharing runtime entry points take the
    outlined loop body that way (paper Fig. 5).
    """

    __slots__ = (
        "function_type",
        "args",
        "blocks",
        "linkage",
        "attrs",
        "assumptions",
        "param_attrs",
        "parent",
    )

    def __init__(
        self,
        name: str,
        function_type: FunctionType,
        linkage: str = "external",
        arg_names: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(PTR, name)
        self.function_type = function_type
        self.args: List[Argument] = [
            Argument(
                ty,
                i,
                arg_names[i] if arg_names and i < len(arg_names) else f"arg{i}",
                parent=self,
            )
            for i, ty in enumerate(function_type.params)
        ]
        self.blocks: List[BasicBlock] = []
        self.linkage = linkage
        #: LLVM-style function attributes ("readnone", "alwaysinline",
        #: "noinline", "kernel", "convergent", ...).
        self.attrs: Set[str] = set()
        #: OpenMP 5.1 ``omp assumes`` assumptions attached to this function
        #: ("ext_aligned_barrier", "ext_no_call_asm", ...), paper §III-G.
        self.assumptions: Set[str] = set()
        #: Per-parameter attribute sets (index -> {"readonly", "noalias"}).
        self.param_attrs: Dict[int, Set[str]] = {}
        self.parent = None

    # -- structure -------------------------------------------------------------

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no body")
        return self.blocks[0]

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    def add_block(self, name: str, after: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(self._unique_block_name(name), self)
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, block)
        return block

    def _unique_block_name(self, base: str) -> str:
        existing = {b.name for b in self.blocks}
        if base not in existing:
            return base
        i = 1
        while f"{base}.{i}" in existing:
            i += 1
        return f"{base}.{i}"

    def remove_block(self, block: BasicBlock) -> None:
        for inst in list(block.instructions):
            inst.drop_all_references()
            inst.parent = None
        block.instructions.clear()
        self.blocks.remove(block)
        block.parent = None

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    @property
    def is_kernel(self) -> bool:
        return "kernel" in self.attrs

    def short(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "decl" if self.is_declaration else f"{len(self.blocks)} blocks"
        return f"<Function @{self.name} ({kind})>"


class Module:
    """A translation unit: functions, globals and named struct types."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.struct_types: Dict[str, StructType] = {}

    # -- functions ---------------------------------------------------------------

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function @{func.name}")
        func.parent = self
        self.functions[func.name] = func
        return func

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def remove_function(self, func: Function) -> None:
        if func.uses:
            raise ValueError(f"removing @{func.name} which still has uses")
        del self.functions[func.name]
        func.parent = None

    def declare(self, name: str, function_type: FunctionType) -> Function:
        """Get-or-create a declaration for *name*."""
        existing = self.functions.get(name)
        if existing is not None:
            if existing.function_type != function_type:
                raise TypeError(
                    f"conflicting declaration of @{name}: "
                    f"{existing.function_type} vs {function_type}"
                )
            return existing
        return self.add_function(Function(name, function_type))

    # -- globals ----------------------------------------------------------------

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals:
            raise ValueError(f"duplicate global @{gv.name}")
        gv.parent = self
        self.globals[gv.name] = gv
        return gv

    def get_global(self, name: str) -> GlobalVariable:
        return self.globals[name]

    def remove_global(self, gv: GlobalVariable) -> None:
        if gv.uses:
            raise ValueError(f"removing @{gv.name} which still has uses")
        del self.globals[gv.name]
        gv.parent = None

    # -- types ------------------------------------------------------------------

    def add_struct_type(self, ty: StructType) -> StructType:
        existing = self.struct_types.get(ty.name)
        if existing is not None:
            if existing != ty:
                raise ValueError(f"conflicting struct type %{ty.name}")
            return existing
        self.struct_types[ty.name] = ty
        return ty

    # -- iteration ----------------------------------------------------------------

    def defined_functions(self) -> Iterable[Function]:
        return (f for f in self.functions.values() if not f.is_declaration)

    def kernels(self) -> List[Function]:
        return [f for f in self.functions.values() if f.is_kernel]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
