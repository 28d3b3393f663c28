"""Structural IR verifier.

Checks the invariants the passes and interpreter rely on:

* every block ends in exactly one terminator, which is its last
  instruction;
* phis sit at the top of their block and have one incoming value per
  CFG predecessor;
* every SSA definition dominates each of its uses;
* operand use-lists are consistent with the operand arrays;
* call argument counts match direct callee signatures.

Run after every pass in pipeline debug mode — the simulated analogue
of ``-verify-each``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.cfg import DominatorTree, predecessors, reachable_blocks
from repro.ir.instructions import Call, Instruction, Phi
from repro.ir.module import Function, Module
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value


class VerificationError(Exception):
    """Raised when a module violates structural invariants."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("\n".join(errors))
        self.errors = errors


def verify_module(module: Module) -> None:
    errors: List[str] = []
    for func in module.functions.values():
        if not func.is_declaration:
            errors.extend(_verify_function(func))
    for gv in module.globals.values():
        if gv.parent is not module:
            errors.append(f"global @{gv.name} has wrong parent")
    if errors:
        raise VerificationError(errors)


def verify_function(func: Function) -> None:
    errors = _verify_function(func)
    if errors:
        raise VerificationError(errors)


def _verify_function(func: Function) -> List[str]:
    errors: List[str] = []
    where = f"@{func.name}"
    if not func.blocks:
        return errors

    defined = set()
    for block in func.blocks:
        if block.parent is not func:
            errors.append(f"{where}: block {block.name} has wrong parent")
        if not block.instructions:
            errors.append(f"{where}: block {block.name} is empty")
            continue
        term = block.instructions[-1]
        if not term.is_terminator:
            errors.append(f"{where}: block {block.name} lacks a terminator")
        for i, inst in enumerate(block.instructions):
            if inst.parent is not block:
                errors.append(f"{where}: instruction in {block.name} has wrong parent")
            if inst.is_terminator and i != len(block.instructions) - 1:
                errors.append(f"{where}: terminator mid-block in {block.name}")
            if isinstance(inst, Phi) and i > block.first_non_phi_index() - 1 and not isinstance(
                block.instructions[i - 1] if i else inst, Phi
            ):
                errors.append(f"{where}: phi after non-phi in {block.name}")
            defined.add(inst)

    preds = predecessors(func)
    reachable = reachable_blocks(func)
    for block in func.blocks:
        for phi in block.phis():
            phi_preds = set(phi.incoming_blocks)
            cfg_preds = set(preds[block])
            if block in reachable and phi_preds != cfg_preds:
                got = sorted(b.name for b in phi_preds)
                want = sorted(b.name for b in cfg_preds)
                errors.append(
                    f"{where}: phi in {block.name} incoming {got} != preds {want}"
                )

    # Use-list consistency + operand validity.  Each value's use list
    # becomes a set once (keyed by identity: constants compare by value).
    use_sets: Dict[int, Set[Tuple[Instruction, int]]] = {}
    for block in func.blocks:
        for inst in block.instructions:
            for index, op in enumerate(inst.operands):
                uses = use_sets.get(id(op))
                if uses is None:
                    uses = use_sets[id(op)] = {(u.user, u.index) for u in op.uses}
                if (inst, index) not in uses:
                    errors.append(
                        f"{where}: missing use-list entry for operand {index} "
                        f"of {inst.opcode} in {block.name}"
                    )
                if not _valid_operand(op, func, defined):
                    errors.append(
                        f"{where}: foreign operand {op!r} in {inst.opcode} "
                        f"({block.name})"
                    )
            if isinstance(inst, Call):
                callee = inst.callee
                if callee is not None and not callee.function_type.is_vararg:
                    want = len(callee.function_type.params)
                    got = len(inst.args)
                    if want != got:
                        errors.append(
                            f"{where}: call to @{callee.name} with {got} args, "
                            f"expected {want}"
                        )

    # SSA dominance; same-block order comes from one position map.
    dom = DominatorTree(func)
    position = {
        inst: i for block in func.blocks for i, inst in enumerate(block.instructions)
    }
    for block in func.blocks:
        if block not in reachable:
            continue
        for inst in block.instructions:
            for index, op in enumerate(inst.operands):
                if not isinstance(op, Instruction):
                    continue
                if op.parent is None or op.parent.parent is not func:
                    continue
                if op.parent not in reachable:
                    continue
                if isinstance(inst, Phi):
                    incoming = inst.incoming_blocks[index]
                    if incoming in reachable and not dom.dominates_block(op.parent, incoming):
                        errors.append(
                            f"{where}: phi operand {index} does not dominate "
                            f"incoming edge from {incoming.name}"
                        )
                elif not (
                    position[op] < position[inst]
                    if op.parent is block
                    else dom.dominates_block(op.parent, block)
                ):
                    errors.append(
                        f"{where}: def of operand {index} of {inst.opcode} in "
                        f"{block.name} does not dominate use"
                    )
    return errors


def _valid_operand(op: Value, func: Function, defined: set) -> bool:
    if isinstance(op, (Constant, UndefValue, GlobalVariable, Function)):
        return True
    if isinstance(op, Argument):
        return op.parent is func
    if isinstance(op, Instruction):
        return op in defined
    return False
