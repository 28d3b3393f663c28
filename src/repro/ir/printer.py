"""Textual rendering of IR modules (LLVM-flavoured, for humans/tests)."""

from __future__ import annotations

from typing import Dict, List

from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
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
from repro.ir.module import Function, Module
from repro.ir.types import VOID
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value


class _Namer:
    """Assigns stable, unique %names to values within a function.

    In *canonical* mode the name hints values carry are ignored and
    every SSA value is numbered in first-use order, so two structurally
    identical functions print identically no matter how their values
    were built or renamed — the property the content-addressed compile
    cache fingerprints rely on (:mod:`repro.toolchain.fingerprint`).
    """

    def __init__(self, canonical: bool = False) -> None:
        self._names: Dict[int, str] = {}
        self._used: set = set()
        self._counter = 0
        self._canonical = canonical

    def name_of(self, value: Value) -> str:
        if isinstance(value, Constant):
            return value.short()
        if isinstance(value, UndefValue):
            return "undef"
        if isinstance(value, (GlobalVariable, Function)):
            return value.short()
        key = id(value)
        cached = self._names.get(key)
        if cached is not None:
            return cached
        if value.name and not self._canonical:
            base = value.name
            name = base
            i = 1
            while name in self._used:
                name = f"{base}.{i}"
                i += 1
        else:
            name = str(self._counter)
            self._counter += 1
        self._used.add(name)
        self._names[key] = f"%{name}"
        return self._names[key]


def print_module(module: Module, canonical: bool = False) -> str:
    lines: List[str] = [f"; module {module.name}"]
    for ty in module.struct_types.values():
        fields = ", ".join(f"{fty} {fname}" for fname, fty in ty.fields)
        lines.append(f"%{ty.name} = type {{ {fields} }}")
    if module.struct_types:
        lines.append("")
    for gv in module.globals.values():
        init = "zeroinitializer"
        if isinstance(gv.initializer, bytes):
            init = f"raw[{len(gv.initializer)}B]"
        elif isinstance(gv.initializer, (list, tuple)):
            init = "[" + ", ".join(c.short() for c in gv.initializer) + "]"
        kind = "constant" if gv.is_constant else "global"
        lines.append(
            f"@{gv.name} = {gv.linkage} addrspace({int(gv.addrspace)}) "
            f"{kind} {gv.value_type} {init}"
        )
    if module.globals:
        lines.append("")
    for func in module.functions.values():
        lines.append(print_function(func, canonical=canonical))
    return "\n".join(lines) + "\n"


def print_function(func: Function, canonical: bool = False) -> str:
    namer = _Namer(canonical=canonical)
    # Seed arguments so instruction names never shadow them.
    for a in func.args:
        namer.name_of(a)
    params = ", ".join(f"{a.type} {namer.name_of(a)}" for a in func.args)
    attrs = " ".join(sorted(func.attrs))
    assumes = ",".join(sorted(func.assumptions))
    header_extra = ""
    if attrs:
        header_extra += f" {attrs}"
    if assumes:
        header_extra += f' assumes("{assumes}")'
    if func.is_declaration:
        return f"declare {func.return_type} @{func.name}({params}){header_extra}\n"
    linkage = f"{func.linkage} " if func.linkage != "external" else ""
    lines = [f"define {linkage}{func.return_type} @{func.name}({params}){header_extra} {{"]
    for block in func.blocks:
        lines.append(f"{block.name}:")
        for inst in block.instructions:
            lines.append(f"  {_print_inst(inst, namer)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_inst(inst: Instruction, namer: _Namer) -> str:
    n = namer.name_of
    prefix = "" if inst.type is VOID or inst.type == VOID else f"{n(inst)} = "
    if isinstance(inst, Load):
        vol = "volatile " if inst.is_volatile else ""
        return f"{prefix}load {vol}{inst.type}, {n(inst.pointer)}"
    if isinstance(inst, Store):
        vol = "volatile " if inst.is_volatile else ""
        return f"store {vol}{inst.value.type} {n(inst.value)}, {n(inst.pointer)}"
    if isinstance(inst, Alloca):
        return f"{prefix}alloca {inst.allocated_type}"
    if isinstance(inst, PtrAdd):
        return f"{prefix}ptradd {n(inst.pointer)}, {n(inst.offset)}"
    if isinstance(inst, ICmp):
        return f"{prefix}icmp {inst.predicate} {inst.lhs.type} {n(inst.lhs)}, {n(inst.rhs)}"
    if isinstance(inst, FCmp):
        return f"{prefix}fcmp {inst.predicate} {inst.operands[0].type} {n(inst.operands[0])}, {n(inst.operands[1])}"
    if isinstance(inst, Select):
        return (
            f"{prefix}select {n(inst.condition)}, {inst.type} "
            f"{n(inst.true_value)}, {n(inst.false_value)}"
        )
    if isinstance(inst, Cast):
        return f"{prefix}{inst.opcode} {inst.source.type} {n(inst.source)} to {inst.type}"
    if isinstance(inst, Phi):
        incoming = ", ".join(
            f"[ {n(v)}, %{b.name} ]"
            for v, b in zip(inst.operands, inst.incoming_blocks)
        )
        return f"{prefix}phi {inst.type} {incoming}"
    if isinstance(inst, Br):
        return f"br label %{inst.target.name}"
    if isinstance(inst, CondBr):
        return (
            f"br {n(inst.condition)}, label %{inst.true_target.name}, "
            f"label %{inst.false_target.name}"
        )
    if isinstance(inst, Ret):
        rv = inst.return_value
        return f"ret {rv.type} {n(rv)}" if rv is not None else "ret void"
    if isinstance(inst, Unreachable):
        return "unreachable"
    if isinstance(inst, Call):
        args = ", ".join(f"{a.type} {n(a)}" for a in inst.args)
        return f"{prefix}call {inst.type} {n(inst.callee_operand)}({args})"
    if isinstance(inst, AtomicRMW):
        return f"{prefix}atomicrmw {inst.operation} {n(inst.pointer)}, {inst.value.type} {n(inst.value)}"
    # Generic binop.
    return f"{prefix}{inst.opcode} {inst.type} {n(inst.operands[0])}, {n(inst.operands[1])}"
