"""Dominator-scoped value numbering and loop-invariant code motion.

Generic scalar optimizations the real LLVM pipeline provides around
openmp-opt.  Two capabilities matter for the reproduction:

* redundant pure expressions (address arithmetic, re-loaded struct
  fields) collapse to one computation, and
* loads from *read-only, non-aliased* kernel arguments hoist out of
  loops — which is what contains the §VII by-reference aggregate cost
  to one load per field per kernel instead of one per iteration.

Read-only/no-alias facts come from the frontend (map clauses hand each
kernel argument a distinct buffer; "readonly" params are never stored
through anywhere in the program).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import DominatorTree, predecessors, reverse_post_order
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Select,
    Store,
)
from repro.ir.intrinsics import intrinsic_info
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Argument, Constant, Value
from repro.passes.cleanup import resolve_pointer_base
from repro.passes.pass_manager import PassContext

_COMMUTATIVE = {"add", "mul", "and", "or", "xor", "fadd", "fmul"}


def _readonly_base(value: Value) -> bool:
    """Pointer provably into read-only, non-aliased memory."""
    base, _ = resolve_pointer_base(value)
    if isinstance(base, Argument) and base.parent is not None:
        attrs = getattr(base.parent, "param_attrs", {})
        return "readonly" in attrs.get(base.index, set()) and "noalias" in attrs.get(
            base.index, set()
        )
    from repro.ir.values import GlobalVariable

    if isinstance(base, GlobalVariable):
        return base.is_constant
    return False


def _operand_key(value: Value):
    """Constants are interned by value; everything else by identity."""
    from repro.ir.values import Constant

    if isinstance(value, Constant):
        return ("c", str(value.type), value.value)
    return id(value)


def _value_number_key(inst: Instruction) -> Optional[Tuple]:
    """Hashable identity for pure instructions."""
    if isinstance(inst, BinOp):
        a, b = _operand_key(inst.lhs), _operand_key(inst.rhs)
        if inst.opcode in _COMMUTATIVE and repr(b) < repr(a):
            a, b = b, a
        return ("bin", inst.opcode, a, b)
    if isinstance(inst, ICmp):
        return ("icmp", inst.predicate, _operand_key(inst.lhs), _operand_key(inst.rhs))
    if isinstance(inst, FCmp):
        return ("fcmp", inst.predicate, _operand_key(inst.operands[0]),
                _operand_key(inst.operands[1]))
    if isinstance(inst, Cast):
        return ("cast", inst.opcode, _operand_key(inst.source), inst.type)
    if isinstance(inst, PtrAdd):
        return ("ptradd", _operand_key(inst.pointer), _operand_key(inst.offset))
    if isinstance(inst, Select):
        return ("select", _operand_key(inst.condition),
                _operand_key(inst.true_value), _operand_key(inst.false_value))
    if isinstance(inst, Call):
        callee = inst.callee
        if callee is not None:
            info = intrinsic_info(callee.name)
            if info is not None and info.readnone and info.invariance in ("grid", "team", "thread"):
                # Identity intrinsics are idempotent within one thread.
                return ("intr", callee.name, tuple(_operand_key(a) for a in inst.args))
        return None
    if isinstance(inst, Load) and not inst.is_volatile and _readonly_base(inst.pointer):
        return ("roload", _operand_key(inst.pointer), inst.type)
    return None


class GVNPass:
    """Dominator-tree value numbering of pure expressions."""

    name = "gvn"

    def run(self, module: Module, ctx: PassContext) -> bool:
        changed = False
        for func in list(module.defined_functions()):
            changed |= self._run_on_function(func)
        return changed

    def _run_on_function(self, func: Function) -> bool:
        dom = DominatorTree(func)
        children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in func.blocks}
        for block, idom in dom.idom.items():
            if idom is not None:
                children[idom].append(block)
        changed = False
        table: Dict[Tuple, Value] = {}

        def visit(block: BasicBlock) -> None:
            nonlocal changed
            added: List[Tuple] = []
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue
                key = _value_number_key(inst)
                if key is None:
                    continue
                existing = table.get(key)
                if existing is not None:
                    inst.replace_all_uses_with(existing)
                    inst.erase_from_parent()
                    changed = True
                else:
                    table[key] = inst
                    added.append(key)
            for child in children[block]:
                visit(child)
            for key in added:
                del table[key]

        import sys

        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 2 * len(func.blocks) + 1000))
        try:
            if func.blocks:
                visit(func.entry)
        finally:
            sys.setrecursionlimit(old)
        return changed


def _natural_loops(func: Function, dom: DominatorTree) -> List[Tuple[BasicBlock, Set[BasicBlock]]]:
    """(header, body-blocks) for each back edge, merged per header."""
    preds = predecessors(func)
    loops: Dict[BasicBlock, Set[BasicBlock]] = {}
    for block in func.blocks:
        for succ in block.successors():
            if dom.dominates_block(succ, block):
                body = loops.setdefault(succ, {succ})
                work = [block]
                while work:
                    node = work.pop()
                    if node in body:
                        continue
                    body.add(node)
                    work.extend(preds.get(node, ()))
    return list(loops.items())


class LICMPass:
    """Hoist loop-invariant pure computation into the preheader."""

    name = "licm"

    def run(self, module: Module, ctx: PassContext) -> bool:
        changed = False
        for func in list(module.defined_functions()):
            changed |= self._run_on_function(func)
        return changed

    def _run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        dom = DominatorTree(func)
        preds = predecessors(func)
        changed = False
        for header, body in _natural_loops(func, dom):
            outside = [p for p in preds.get(header, ()) if p not in body]
            if len(outside) != 1:
                continue
            preheader = outside[0]
            terminator = preheader.terminator
            if terminator is None:
                continue
            defined_in_loop: Set[Value] = set()
            for block in body:
                defined_in_loop.update(block.instructions)

            def invariant(value: Value) -> bool:
                return value not in defined_in_loop

            # Visit the loop in layout order: ``body`` is a set, and
            # hoisting in its (identity-based) order would make the
            # compiled IR differ from run to run.
            blocks = [b for b in func.blocks if b in body]
            hoisted = True
            while hoisted:
                hoisted = False
                for block in blocks:
                    for inst in list(block.instructions):
                        if inst.parent is None or isinstance(inst, (Phi, Alloca)):
                            continue
                        if inst.is_terminator:
                            continue
                        if not all(invariant(op) for op in inst.operands):
                            continue
                        if isinstance(inst, Load):
                            if inst.is_volatile or not _readonly_base(inst.pointer):
                                continue
                        elif isinstance(inst, Call):
                            callee = inst.callee
                            info = intrinsic_info(callee.name) if callee else None
                            if info is None or not info.readnone:
                                continue
                        elif inst.may_have_side_effects() or inst.may_read_memory():
                            continue
                        block.instructions.remove(inst)
                        preheader.insert_before(terminator, inst)
                        defined_in_loop.discard(inst)
                        hoisted = changed = True
        return changed
