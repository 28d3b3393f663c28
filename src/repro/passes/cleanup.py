"""Generic scalar/CFG cleanup: folding, DCE, CFG simplification.

These are the "existing LLVM capabilities" the paper's domain passes
lean on: once a domain pass replaces a runtime-state load with a
constant, this machinery folds the dependent branches, deletes the dead
state-machine blocks, and finally drops unreferenced state globals —
which is where the shared-memory savings of Fig. 11 come from.

Cleanup runs after every domain pass, so it only does work where the IR
changed, the way LLVM's InstCombine does.  Per function,
:func:`run_fold_dce` makes one in-order sweep and then revisits only
what a change touched; folding rules are a table keyed by instruction
type (``SIMPLIFY_RULES``).  :class:`CleanupPass` then alternates rounds
of :func:`run_simplify_cfg` with the worklist, which each round seeds
with what it touched, until a round leaves the CFG unchanged.  The pass
is idempotent, so the pass manager skips a cleanup that no reported
change preceded.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.memory.memmodel import decode_scalar, encode_scalar, scalar_size
from repro.ir.cfg import predecessors, reachable_blocks
from repro.ir.instructions import (
    BinOp,
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
    Select,
    Store,
)
from repro.ir.intrinsics import intrinsic_info
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import I1, I64, IntType, PointerType
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value
from repro.ir.folding import (
    fold_binop,
    fold_cast,
    fold_fcmp,
    fold_icmp,
    fold_math_intrinsic,
)
from repro.passes.pass_manager import PassContext


def resolve_pointer_base(value: Value) -> Tuple[Optional[Value], Optional[int]]:
    """Chase a pointer back to (base, constant byte offset).

    Looks through ``ptradd`` with constant offsets and
    ``inttoptr(ptrtoint X)`` round-trips.  Returns ``(None, None)`` when
    the chain is not a constant-offset walk from a single base.
    """
    offset = 0
    seen = 0
    while True:
        seen += 1
        if seen > 64:  # defensive: cyclic or pathological chains
            return None, None
        if isinstance(value, PtrAdd):
            if not isinstance(value.offset, Constant):
                return None, None
            off_ty = value.offset.type
            assert isinstance(off_ty, IntType)
            offset += off_ty.to_signed(int(value.offset.value))
            value = value.pointer
            continue
        if isinstance(value, Cast) and value.opcode == "inttoptr":
            src = value.source
            if isinstance(src, Cast) and src.opcode == "ptrtoint":
                value = src.source
                continue
            return None, None
        if isinstance(value, Cast) and value.opcode == "bitcast":
            value = value.source
            continue
        return value, offset


def fold_constant_global_load(load: Load) -> Optional[Constant]:
    """Fold a load of a ``constant`` global with a known initializer.

    This is the §III-F mechanism: the compiler emits configuration
    values (over-subscription assumptions, the debug mask) as constant
    globals that the runtime "reads at compile time".
    """
    base, offset = resolve_pointer_base(load.pointer)
    if not isinstance(base, GlobalVariable) or offset is None:
        return None
    if not base.is_constant or base.initializer is None:
        return None
    size = scalar_size(load.type)
    if isinstance(base.initializer, bytes):
        image = base.initializer
    else:
        image = b"".join(
            encode_scalar(c.value, c.type) for c in base.initializer
        )
    if offset < 0 or offset + size > len(image):
        return None
    value = decode_scalar(image[offset : offset + size], load.type)
    return Constant(load.type, value)


def _fold_pointer_difference_icmp(inst: ICmp) -> Optional[Constant]:
    """Fold comparisons of offsets from the *same* base pointer.

    ``icmp uge (add (ptrtoint X), c1), (add (ptrtoint X), c2)`` and the
    degenerate forms fold by comparing c1 and c2 — the in-bounds
    assumption of pointer arithmetic (the shared-stack range check in
    ``__kmpc_free_shared`` folds this way once allocations are static).
    """

    def decompose(v: Value) -> Optional[Tuple[Value, int]]:
        offset = 0
        while isinstance(v, BinOp) and v.opcode == "add":
            if isinstance(v.rhs, Constant):
                ty = v.rhs.type
                assert isinstance(ty, IntType)
                offset += ty.to_signed(int(v.rhs.value))
                v = v.lhs
            elif isinstance(v.lhs, Constant):
                ty = v.lhs.type
                assert isinstance(ty, IntType)
                offset += ty.to_signed(int(v.lhs.value))
                v = v.rhs
            else:
                return None
        if isinstance(v, Cast) and v.opcode == "ptrtoint":
            base, extra = resolve_pointer_base(v.source)
            if base is None:
                return None
            return base, offset + (extra or 0)
        return None

    lhs = decompose(inst.lhs)
    rhs = decompose(inst.rhs)
    if lhs is None or rhs is None or lhs[0] is not rhs[0]:
        return None
    if inst.predicate not in ("ult", "ule", "ugt", "uge", "eq", "ne"):
        return None
    a, b = lhs[1], rhs[1]
    result = {
        "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
        "eq": a == b, "ne": a != b,
    }[inst.predicate]
    return Constant(I1, 1 if result else 0)


def _simplify_binop(inst: BinOp) -> Optional[Value]:
    lhs, rhs = inst.operands
    op = inst.opcode
    lhs_const = isinstance(lhs, Constant)
    rhs_const = isinstance(rhs, Constant)
    if lhs_const and rhs_const:
        return fold_binop(op, lhs, rhs)
    if rhs_const and rhs.value == 0:
        if op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
            return lhs
        if op == "mul":
            return rhs
    if lhs_const and lhs.value == 0:
        if op in ("add", "or", "xor"):
            return rhs
        if op in ("mul", "and"):
            return lhs
    if rhs_const and rhs.value == 1 and op in ("mul", "sdiv", "udiv"):
        return lhs
    return None


def _simplify_icmp(inst: ICmp) -> Optional[Value]:
    if isinstance(inst.lhs, Constant) and isinstance(inst.rhs, Constant):
        return fold_icmp(inst.predicate, inst.lhs, inst.rhs)
    if inst.lhs is inst.rhs:
        return Constant(I1, 1 if inst.predicate in ("eq", "ule", "uge", "sle", "sge") else 0)
    return _fold_pointer_difference_icmp(inst)


def _simplify_fcmp(inst: FCmp) -> Optional[Value]:
    if isinstance(inst.operands[0], Constant) and isinstance(inst.operands[1], Constant):
        return fold_fcmp(inst.predicate, inst.operands[0], inst.operands[1])
    return None


def _simplify_select(inst: Select) -> Optional[Value]:
    if isinstance(inst.condition, Constant):
        return inst.true_value if inst.condition.value else inst.false_value
    if inst.true_value is inst.false_value:
        return inst.true_value
    return None


def _simplify_cast(inst: Cast) -> Optional[Value]:
    src = inst.source
    if isinstance(src, Constant):
        return fold_cast(inst.opcode, src, inst.type)
    # inttoptr(ptrtoint X) -> X ; ptrtoint(inttoptr Y) -> Y
    if inst.opcode == "inttoptr" and isinstance(src, Cast) and src.opcode == "ptrtoint":
        inner = src.source
        if isinstance(inner.type, PointerType):
            return inner
    if inst.opcode == "ptrtoint" and isinstance(src, Cast) and src.opcode == "inttoptr":
        return src.source
    if inst.opcode == "bitcast" and src.type == inst.type:
        return src
    return None


def _simplify_ptradd(inst: PtrAdd) -> Optional[Value]:
    if isinstance(inst.offset, Constant) and inst.offset.value == 0:
        return inst.pointer
    return None


def _simplify_phi(inst: Phi) -> Optional[Value]:
    distinct = {op for op in inst.operands if op is not inst}
    non_undef = {op for op in distinct if not isinstance(op, UndefValue)}
    if len(non_undef) == 1:
        return next(iter(non_undef))
    return None


def _simplify_call(inst: Call) -> Optional[Value]:
    callee = inst.operands[0]
    if not isinstance(callee, Function):
        return None
    info = intrinsic_info(callee.name)
    if info is None:
        return None
    if info.constant_result is not None:
        return Constant(inst.type, info.constant_result)
    if info.readnone and all(isinstance(a, Constant) for a in inst.args):
        folded = fold_math_intrinsic(callee.name, list(inst.args))
        if folded is not None:
            return folded
    return None


def _simplify_load(inst: Load) -> Optional[Value]:
    if inst.is_volatile:
        return None
    return fold_constant_global_load(inst)


#: Instruction type -> rule returning a simpler equivalent value, or
#: None.  Types without a rule (stores, branches, returns,
#: ``unreachable``, atomics, allocas) never simplify.
SIMPLIFY_RULES: Dict[type, Callable[[Any], Optional[Value]]] = {
    BinOp: _simplify_binop,
    ICmp: _simplify_icmp,
    FCmp: _simplify_fcmp,
    Select: _simplify_select,
    Cast: _simplify_cast,
    PtrAdd: _simplify_ptradd,
    Phi: _simplify_phi,
    Call: _simplify_call,
    Load: _simplify_load,
}


def _combine_ptradd_chain(inst: PtrAdd) -> Optional[PtrAdd]:
    """ptradd(ptradd(X, c1), c2) -> ptradd(X, c1+c2)."""
    base = inst.pointer
    if (
        isinstance(base, PtrAdd)
        and isinstance(base.offset, Constant)
        and isinstance(inst.offset, Constant)
    ):
        total = int(base.offset.type.to_signed(int(base.offset.value))) + int(
            inst.offset.type.to_signed(int(inst.offset.value))
        )
        return PtrAdd(base.pointer, Constant(I64, total), inst.name)
    return None


def _is_removable_dead(inst: Instruction) -> bool:
    if inst.uses or inst.is_terminator:
        return False
    if type(inst) is Call:
        callee = inst.callee
        # Assumptions are kept alive until the final strip pass; they
        # carry information for the optimizer despite being readnone.
        if callee is not None and callee.name in ("llvm.assume",):
            return False
        return inst.is_readnone_callee()
    return not inst.may_have_side_effects()


def _is_chain_link(inst: Instruction) -> bool:
    """Whether a rule may look *through* *inst* at its operands.

    ``resolve_pointer_base`` chases ptradds and pointer casts, and the
    pointer-difference compare also chases ``add``s, so a change below
    such a link can enable a fold above it.
    """
    if isinstance(inst, PtrAdd):
        return True
    if isinstance(inst, Cast):
        return inst.opcode in ("ptrtoint", "inttoptr", "bitcast")
    return isinstance(inst, BinOp) and inst.opcode == "add"


def _push_users(work: List[Value], value: Value) -> None:
    """Queue the users of *value*, and through chain links theirs."""
    stack = [value]
    seen = {value}
    while stack:
        for use in stack.pop().uses:
            user = use.user
            if user not in seen:
                seen.add(user)
                work.append(user)
                if _is_chain_link(user):
                    stack.append(user)


def run_fold_dce(func: Function, work: Optional[List[Value]] = None) -> bool:
    """Fold and delete dead instructions of *func* to a fixpoint.

    Without *work*, one in-order sweep visits every instruction first.
    After that the worklist holds only what a change touched: the users
    of a replaced value (see :func:`_push_users`), the operands of an
    erased instruction, and a combined ``ptradd``.  A caller that knows
    what it touched passes it as *work* instead of the sweep; the list
    is consumed.
    """
    if work is None:
        work = []
        sweep: List[Instruction] = [i for b in func.blocks for i in b.instructions]
    else:
        sweep = []

    def erase(inst: Instruction) -> None:
        operands = inst.operands
        inst.erase_from_parent()
        work.extend(operands)

    def replace(inst: Instruction, new: Value) -> None:
        _push_users(work, inst)
        inst.replace_all_uses_with(new)
        if not inst.uses and not inst.is_terminator:
            erase(inst)

    def visit(inst: Value) -> bool:
        # Only instructions still in a block (work also collects
        # constants, arguments and erased instructions).
        if not isinstance(inst, Instruction) or inst.parent is None:
            return False
        if not inst.uses and _is_removable_dead(inst):
            erase(inst)
            return True
        kind = type(inst)
        rule = SIMPLIFY_RULES.get(kind)
        if rule is None:
            return False
        replacement = rule(inst)
        if replacement is not None and replacement is not inst:
            replace(inst, replacement)
            return True
        if kind is PtrAdd:
            combined = _combine_ptradd_chain(inst)
            if combined is not None:
                inst.parent.insert_before(inst, combined)
                replace(inst, combined)
                work.append(combined)
                return True
        return False

    changed = False
    for inst in sweep:
        changed |= visit(inst)
    while work:
        changed |= visit(work.pop())
    return changed


def run_simplify_cfg(func: Function, touched: Optional[List[Value]] = None) -> bool:
    """One round of CFG simplification; True if it changed the CFG.

    Folds constant and same-target conditional branches and empty
    diamonds, removes blocks unreachable from the entry, and merges
    single-edge block pairs.  Every value whose uses or operands it
    changed goes onto *touched*, the worklist of the next
    :func:`run_fold_dce`.  :class:`CleanupPass` runs rounds until one
    changes nothing.
    """
    if touched is None:
        touched = []
    changed = False

    def drop_edge(block: BasicBlock, succ: BasicBlock) -> None:
        for phi in succ.phis():
            try:
                value = phi.incoming_value_for(block)
            except KeyError:
                continue
            phi.remove_incoming(block)
            touched.append(phi)
            touched.append(value)

    def branch_to(block: BasicBlock, target: BasicBlock) -> None:
        term = block.instructions.pop()
        touched.extend(term.operands)
        term.drop_all_references()
        term.parent = None
        block.append(Br(target))

    # Fold constant conditional branches.
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, CondBr):
            target: Optional[BasicBlock] = None
            if isinstance(term.condition, Constant):
                target = term.true_target if term.condition.value else term.false_target
            elif term.true_target is term.false_target:
                target = term.true_target
            if target is not None:
                dropped = (
                    term.false_target if target is term.true_target else term.true_target
                )
                branch_to(block, target)
                if dropped is not target:
                    drop_edge(block, dropped)
                changed = True

    # Fold empty diamonds: `condbr c, A, B` where A contains only
    # `br B` collapses to `br B` (the husk left behind once a guarded
    # write is dead-store-eliminated).
    preds = predecessors(func)
    for block in func.blocks:
        term = block.terminator
        if not isinstance(term, CondBr) or term.true_target is term.false_target:
            continue
        for arm, other in ((term.true_target, term.false_target),
                           (term.false_target, term.true_target)):
            if (
                len(arm.instructions) == 1
                and isinstance(arm.terminator, Br)
                and arm.terminator.target is other
                and preds.get(arm) == [block]
                and not other.phis()
            ):
                branch_to(block, other)
                preds[arm].remove(block)
                changed = True
                break

    # Remove blocks unreachable from the entry.
    reachable = reachable_blocks(func)
    dead = [b for b in func.blocks if b not in reachable]
    if dead:
        dead_set = set(dead)
        for block in dead:
            for succ in block.successors():
                if succ in reachable:
                    drop_edge(block, succ)
        # Break operand references among dead blocks before removal.
        for block in dead:
            for inst in block.instructions:
                for use in list(inst.uses):
                    user_block = use.user.parent
                    if user_block in dead_set:
                        continue
                    # A reachable user of a dead def can only be a phi
                    # on a removed edge; drop it defensively.
                    use.user.set_operand(use.index, UndefValue(inst.type))
                    touched.append(use.user)
        for block in dead:
            for inst in block.instructions:
                touched.extend(inst.operands)
            func.remove_block(block)
        changed = True
        preds = predecessors(func)

    # Merge single-successor/single-predecessor block pairs.
    for block in list(func.blocks):
        if block is func.entry:
            continue
        ps = preds.get(block, [])
        if len(ps) != 1:
            continue
        pred = ps[0]
        term = pred.terminator
        if not isinstance(term, Br) or term.target is not block:
            continue
        for phi in block.phis():
            value = phi.incoming_value_for(pred)
            _push_users(touched, phi)
            phi.replace_all_uses_with(value)
            phi.remove_incoming(pred)
            phi.erase_from_parent()
            touched.append(value)
        pred.instructions.pop()
        term.drop_all_references()
        term.parent = None
        for inst in block.instructions:
            inst.parent = pred
            pred.instructions.append(inst)
        for succ in block.successors():
            for phi in succ.phis():
                for i, incoming in enumerate(phi.incoming_blocks):
                    if incoming is block:
                        phi.incoming_blocks[i] = pred
        block.instructions = []
        func.blocks.remove(block)
        block.parent = None
        changed = True
        # *pred* inherits *block*'s out-edges; its own preds stay.
        del preds[block]
        for succ in pred.successors():
            succ_preds = preds[succ]
            succ_preds[succ_preds.index(block)] = pred
    return changed


def remove_dead_globals(module: Module) -> bool:
    changed = False
    for gv in list(module.globals.values()):
        if not gv.uses:
            module.remove_global(gv)
            changed = True
    return changed


def remove_dead_functions(module: Module, keep: Set[str] = frozenset()) -> bool:
    """Drop internal functions that are unreferenced and not kernels."""
    changed = True
    any_change = False
    while changed:
        changed = False
        for func in list(module.functions.values()):
            if func.is_kernel or func.name in keep:
                continue
            if func.linkage != "internal" and not func.is_declaration:
                continue
            if func.uses:
                continue
            if func.is_declaration:
                # Unreferenced declarations are just noise.
                module.remove_function(func)
                changed = any_change = True
                continue
            for block in list(func.blocks):
                func.remove_block(block)
            module.remove_function(func)
            changed = any_change = True
    return any_change


class CleanupPass:
    """fold/DCE and simplifycfg rounds to fixpoint, then dead
    global/function elimination."""

    name = "cleanup"
    #: A second run with no change in between does nothing, so the
    #: pass manager may skip it (see :class:`PassManager`).
    idempotent = True

    def run(self, module: Module, ctx: PassContext) -> bool:
        changed = False
        for func in list(module.defined_functions()):
            changed |= run_fold_dce(func)
            touched: List[Value] = []
            while run_simplify_cfg(func, touched):
                changed = True
                run_fold_dce(func, touched)
        changed |= remove_dead_functions(module)
        changed |= remove_dead_globals(module)
        return changed
