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
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue


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
    where = f"@{func.name}"
    if not func.blocks:
        return []

    # Block structure, in one walk that also numbers every instruction:
    # an operand instruction is defined in *func* iff it has a position.
    errors: List[str] = []
    position: Dict[Instruction, int] = {}
    for block in func.blocks:
        if block.parent is not func:
            errors.append(f"{where}: block {block.name} has wrong parent")
        insts = block.instructions
        if not insts:
            errors.append(f"{where}: block {block.name} is empty")
            continue
        if not insts[-1].is_terminator:
            errors.append(f"{where}: block {block.name} lacks a terminator")
        last = len(insts) - 1
        after_phi = True  # phis may only follow phis or the block start
        for i, inst in enumerate(insts):
            if inst.parent is not block:
                errors.append(f"{where}: instruction in {block.name} has wrong parent")
            if inst.is_terminator and i != last:
                errors.append(f"{where}: terminator mid-block in {block.name}")
            is_phi = type(inst) is Phi
            if is_phi and not after_phi:
                errors.append(f"{where}: phi after non-phi in {block.name}")
            after_phi = is_phi
            position[inst] = i

    preds = predecessors(func)
    reachable = reachable_blocks(func)
    for block in func.blocks:
        if block not in reachable:
            continue
        cfg_preds = set(preds[block])
        for phi in block.phis():
            phi_preds = set(phi.incoming_blocks)
            if phi_preds != cfg_preds:
                got = sorted(b.name for b in phi_preds)
                want = sorted(b.name for b in cfg_preds)
                errors.append(
                    f"{where}: phi in {block.name} incoming {got} != preds {want}"
                )

    # One walk over the operands: use-list consistency, operand validity
    # and call arity go to *errors*, SSA dominance (reachable code only)
    # to *dom_errors*, which follow them.  A use list of more than one
    # entry becomes a set once (keyed by identity: constants compare by
    # value).
    dom = DominatorTree(func)
    dom_errors: List[str] = []
    use_sets: Dict[int, Set[Tuple[Instruction, int]]] = {}
    for block in func.blocks:
        live = block in reachable
        for inst in block.instructions:
            for index, op in enumerate(inst.operands):
                uses = op.uses
                if len(uses) == 1:
                    listed = uses[0].user is inst and uses[0].index == index
                else:
                    use_set = use_sets.get(id(op))
                    if use_set is None:
                        use_set = use_sets[id(op)] = {(u.user, u.index) for u in uses}
                    listed = (inst, index) in use_set
                if not listed:
                    errors.append(
                        f"{where}: missing use-list entry for operand {index} "
                        f"of {inst.opcode} in {block.name}"
                    )
                kind = _OPERAND_KINDS.get(type(op)) or _operand_kind(type(op))
                if kind is _ANY:
                    continue
                if kind is _ARGUMENT:
                    valid = op.parent is func
                else:
                    valid = kind is _INSTRUCTION and op in position
                if not valid:
                    errors.append(
                        f"{where}: foreign operand {op!r} in {inst.opcode} "
                        f"({block.name})"
                    )
                if kind is not _INSTRUCTION or not live:
                    continue
                def_block = op.parent
                if def_block is None or def_block.parent is not func:
                    continue
                if def_block not in reachable:
                    continue
                if type(inst) is Phi:
                    incoming = inst.incoming_blocks[index]
                    if incoming in reachable and not dom.dominates_block(def_block, incoming):
                        dom_errors.append(
                            f"{where}: phi operand {index} does not dominate "
                            f"incoming edge from {incoming.name}"
                        )
                elif not (
                    position[op] < position[inst]
                    if def_block is block
                    else dom.dominates_block(def_block, block)
                ):
                    dom_errors.append(
                        f"{where}: def of operand {index} of {inst.opcode} in "
                        f"{block.name} does not dominate use"
                    )
            if type(inst) is Call:
                callee = inst.callee
                if callee is not None and not callee.function_type.is_vararg:
                    want = len(callee.function_type.params)
                    got = len(inst.args)
                    if want != got:
                        errors.append(
                            f"{where}: call to @{callee.name} with {got} args, "
                            f"expected {want}"
                        )
    return errors + dom_errors


#: How an operand of each value class is checked: always valid
#: (constants, undef, globals, functions), valid when it belongs to the
#: function (arguments, instructions), or foreign (anything else).
_ANY, _ARGUMENT, _INSTRUCTION, _FOREIGN = "any", "argument", "instruction", "foreign"
_OPERAND_KINDS: Dict[type, str] = {}


def _operand_kind(cls: type) -> str:
    if issubclass(cls, (Constant, UndefValue, GlobalVariable, Function)):
        kind = _ANY
    elif issubclass(cls, Argument):
        kind = _ARGUMENT
    elif issubclass(cls, Instruction):
        kind = _INSTRUCTION
    else:
        kind = _FOREIGN
    _OPERAND_KINDS[cls] = kind
    return kind
