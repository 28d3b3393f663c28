"""Exclusive and aligned execution analysis (paper §IV-C).

Computes, per basic block, the set of branch conditions that *must*
have held on every path from the function entry ("guards").  A store
guarded by a thread-dependent condition (``tid == 0`` broadcasts,
warp-master writes — the Fig. 7a pattern) is *conditionally executed*:
it cannot serve as a known-content fact, only as a potential clobber,
exactly the distinction §IV-B3 draws.

The same machinery identifies main-thread-only code (used by
SPMDzation's guarding) and thread-dependent divergence (used to keep
aligned-barrier reasoning honest).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.ir.cfg import predecessors, reverse_post_order
from repro.ir.instructions import BinOp, Call, CondBr, ICmp, Instruction
from repro.ir.intrinsics import intrinsic_info
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, Value

#: A guard: (condition value, required truth value).
Guard = Tuple[Value, bool]


def compute_block_guards(func: Function) -> Dict[BasicBlock, FrozenSet[Guard]]:
    """Forward must-analysis of branch conditions per block."""
    if not func.blocks:
        return {}
    preds = predecessors(func)
    rpo = reverse_post_order(func)
    guards: Dict[BasicBlock, Optional[FrozenSet[Guard]]] = {b: None for b in rpo}
    guards[func.entry] = frozenset()

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is func.entry:
                continue
            incoming: Optional[FrozenSet[Guard]] = None
            for pred in preds[block]:
                if pred not in guards or guards.get(pred) is None:
                    continue  # not yet computed; optimistic
                pg: Set[Guard] = set(guards[pred])  # type: ignore[arg-type]
                term = pred.terminator
                if isinstance(term, CondBr) and term.true_target is not term.false_target:
                    if term.true_target is block:
                        pg.add((term.condition, True))
                    elif term.false_target is block:
                        pg.add((term.condition, False))
                edge = frozenset(pg)
                incoming = edge if incoming is None else incoming & edge
            if incoming is not None and incoming != guards[block]:
                guards[block] = incoming
                changed = True
    return {b: (g if g is not None else frozenset()) for b, g in guards.items()}


def _uses_thread_identity(value: Value, depth: int = 0) -> bool:
    """True if *value* (transitively) depends on the thread/lane id."""
    if depth > 8:
        return True  # conservative
    if isinstance(value, Call):
        callee = value.callee
        if callee is not None:
            info = intrinsic_info(callee.name)
            if info is not None:
                return info.invariance == "thread"
        return True  # unknown call results treated as divergent
    if isinstance(value, Instruction):
        return any(_uses_thread_identity(op, depth + 1) for op in value.operands)
    return False


def is_thread_dependent_guard(guard: Guard) -> bool:
    """Guards like ``tid == 0`` diverge across the team."""
    return _uses_thread_identity(guard[0])


def block_is_thread_divergent(block: BasicBlock, guards: Dict[BasicBlock, FrozenSet[Guard]]) -> bool:
    """True if reaching *block* depends on which thread you are."""
    return any(is_thread_dependent_guard(g) for g in guards.get(block, frozenset()))


def _guard_thread_constant(guard: Guard) -> Optional[str]:
    """Classify ``icmp eq/ne tid, K`` guards; returns "tid0"/"main"/None."""
    cond, polarity = guard
    if not isinstance(cond, ICmp):
        return None
    if cond.predicate not in ("eq", "ne"):
        return None
    want_equal = (cond.predicate == "eq") == polarity
    if not want_equal:
        return None

    def is_tid(v: Value) -> bool:
        return (
            isinstance(v, Call)
            and v.callee is not None
            and v.callee.name == "gpu.thread_id"
        )

    lhs, rhs = cond.lhs, cond.rhs
    tid_side, other = (lhs, rhs) if is_tid(lhs) else ((rhs, lhs) if is_tid(rhs) else (None, None))
    if tid_side is None:
        return None
    if isinstance(other, Constant) and other.value == 0:
        return "tid0"
    # bdim - 1 (the generic-mode main thread id).
    if (
        isinstance(other, BinOp)
        and other.opcode == "sub"
        and isinstance(other.rhs, Constant)
        and other.rhs.value == 1
        and isinstance(other.lhs, Call)
        and other.lhs.callee is not None
        and other.lhs.callee.name == "gpu.block_dim"
    ):
        return "main"
    return None


def block_is_single_thread(block: BasicBlock, guards: Dict[BasicBlock, FrozenSet[Guard]]) -> bool:
    """True if at most one thread of the team can execute *block*
    (exclusive execution, §IV-C)."""
    return any(
        _guard_thread_constant(g) is not None for g in guards.get(block, frozenset())
    )
