"""CFG analyses: predecessors, orderings, dominators, reachability.

Dominators use the Cooper–Harvey–Kennedy iterative algorithm.  Both the
dominance and reachability queries here are the intra-procedural halves
of the paper's lifetime-aware reachability and dominance analysis
(§IV-B2); the inter-procedural extension lives in
``repro.passes.reach_dom``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.ir.instructions import Instruction
from repro.ir.module import BasicBlock, Function


def predecessors(func: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            preds[succ].append(block)
    return preds


def reverse_post_order(func: Function) -> List[BasicBlock]:
    """Blocks in reverse post-order from the entry (unreachable excluded)."""
    visited: Set[BasicBlock] = set()
    post: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(block)
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                post.append(current)
                stack.pop()

    if func.blocks:
        visit(func.entry)
    return list(reversed(post))


def reachable_blocks(func: Function) -> Set[BasicBlock]:
    if not func.blocks:
        return set()
    seen = {func.entry}
    work = [func.entry]
    while work:
        for succ in work.pop().successors():
            if succ not in seen:
                seen.add(succ)
                work.append(succ)
    return seen


class DominatorTree:
    """Immediate-dominator tree for one function."""

    def __init__(self, func: Function) -> None:
        self.function = func
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._order_index: Dict[BasicBlock, int] = {}
        self._compute()

    def _compute(self) -> None:
        func = self.function
        if not func.blocks:
            return
        rpo = reverse_post_order(func)
        index = {b: i for i, b in enumerate(rpo)}
        self._order_index = index
        preds = predecessors(func)
        entry = func.entry
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}

        def intersect(b1: BasicBlock, b2: BasicBlock) -> BasicBlock:
            while b1 is not b2:
                while index[b1] > index[b2]:
                    b1 = idom[b1]  # type: ignore[assignment]
                while index[b2] > index[b1]:
                    b2 = idom[b2]  # type: ignore[assignment]
            return b1

        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in preds[block]:
                    if pred in idom and pred in index:
                        if new_idom is None:
                            new_idom = pred
                        else:
                            new_idom = intersect(pred, new_idom)
                if new_idom is not None and idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        idom[entry] = None
        self.idom = idom

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if block *a* dominates block *b* (reflexive)."""
        if a is b:
            return True
        runner: Optional[BasicBlock] = self.idom.get(b)
        while runner is not None:
            if runner is a:
                return True
            runner = self.idom.get(runner)
        return False

    def dominates(self, a: Instruction, b: Instruction) -> bool:
        """True if instruction *a* dominates instruction *b* (strict for a==b's block)."""
        ba, bb = a.parent, b.parent
        assert ba is not None and bb is not None
        if ba is bb:
            insts = ba.instructions
            return insts.index(a) < insts.index(b)
        return self.dominates_block(ba, bb)


def block_can_reach(src: BasicBlock, dst: BasicBlock, *, skip_entry_terminator: bool = False) -> bool:
    """CFG reachability from *src* to *dst* following successor edges.

    Reaching *dst* includes the case ``src is dst`` via a cycle; a block
    trivially reaches itself only if a path exists (loop).
    """
    work = list(src.successors())
    seen: Set[BasicBlock] = set()
    while work:
        block = work.pop()
        if block is dst:
            return True
        if block in seen:
            continue
        seen.add(block)
        work.extend(block.successors())
    return False


def instruction_can_reach(a: Instruction, b: Instruction) -> bool:
    """True if control can flow from just after *a* to *b* within the function."""
    ba, bb = a.parent, b.parent
    assert ba is not None and bb is not None
    if ba is bb:
        insts = ba.instructions
        if insts.index(a) < insts.index(b):
            return True
        # Otherwise control must leave the block and come back.
        return block_can_reach(ba, bb)
    return block_can_reach(ba, bb)
