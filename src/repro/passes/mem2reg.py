"""mem2reg: promote allocas to SSA registers.

The standard algorithm: phi nodes are placed at the iterated dominance
frontier of each alloca's stores, then a dominator-tree walk renames
loads to the reaching definition.  The frontend lowers every mutable
local through an alloca, so this pass is what puts loop counters and
accumulators into "registers" — both for speed (the cost model charges
local-memory latency for stack traffic) and so the register-pressure
estimator sees loop-carried state, which the over-subscription
assumption then shrinks (paper §V-B).

Inlining the runtime's outlined regions makes blocks hundreds of
instructions long, and the rename walk erases most of their loads and
stores.  It detaches each one and compacts the block once
(``BasicBlock.detach``/``compact``) instead of one ``list.remove`` per
erasure; so does the sweep of uses left in unreachable blocks.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Set

from repro.ir.cfg import DominatorTree, predecessors, reachable_blocks
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import Type
from repro.ir.values import UndefValue, Value
from repro.passes.pass_manager import PassContext


def _promotable(alloca: Alloca) -> Optional[Type]:
    """The accessed scalar type if every use is a direct load/store."""
    ty: Optional[Type] = None
    for use in alloca.uses:
        user = use.user
        if isinstance(user, Load) and user.pointer is alloca:
            access_ty = user.type
        elif isinstance(user, Store) and user.pointer is alloca and use.index == 1:
            access_ty = user.value.type
        else:
            return None
        if ty is None:
            ty = access_ty
        elif ty != access_ty:
            return None  # mixed-type accesses: leave in memory
    if ty is None:
        ty = alloca.allocated_type
    return ty if not ty.is_aggregate and not ty.is_void else None


def _dominance_frontiers(
    func: Function, dom: DominatorTree
) -> Dict[BasicBlock, Set[BasicBlock]]:
    df: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in func.blocks}
    preds = predecessors(func)
    for block in func.blocks:
        if len(preds[block]) < 2:
            continue
        idom = dom.idom.get(block)
        for pred in preds[block]:
            runner = pred
            while runner is not None and runner is not idom and runner in dom.idom:
                df[runner].add(block)
                runner = dom.idom.get(runner)
    return df


class PromoteAllocasPass:
    name = "mem2reg"

    def run(self, module: Module, ctx: PassContext) -> bool:
        changed = False
        for func in list(module.defined_functions()):
            changed |= self._run_on_function(func)
        return changed

    def _run_on_function(self, func: Function) -> bool:
        reachable = reachable_blocks(func)
        allocas: List[Alloca] = []
        types: Dict[Alloca, Type] = {}
        for inst in func.instructions():
            if isinstance(inst, Alloca) and inst.parent in reachable:
                ty = _promotable(inst)
                if ty is not None:
                    allocas.append(inst)
                    types[inst] = ty
        if not allocas:
            return False

        dom = DominatorTree(func)
        df = _dominance_frontiers(func, dom)
        alloca_set = set(allocas)

        # Phi placement at iterated dominance frontiers of the stores.
        phis: Dict[BasicBlock, Dict[Alloca, Phi]] = {b: {} for b in func.blocks}
        for alloca in allocas:
            def_blocks: Set[BasicBlock] = set()
            for use in alloca.uses:
                user = use.user
                if isinstance(user, Store) and user.parent in reachable:
                    def_blocks.add(user.parent)
            work = list(def_blocks)
            placed: Set[BasicBlock] = set()
            while work:
                block = work.pop()
                for frontier in df.get(block, ()):
                    if frontier in placed or frontier not in reachable:
                        continue
                    placed.add(frontier)
                    phi = Phi(types[alloca], alloca.name or "promoted")
                    frontier.insert(0, phi)
                    phis[frontier][alloca] = phi
                    if frontier not in def_blocks:
                        work.append(frontier)

        # Rename via an explicit dominator-tree DFS.
        children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in func.blocks}
        for block, idom in dom.idom.items():
            if idom is not None:
                children[idom].append(block)
        preds = predecessors(func)

        stacks: Dict[Alloca, List[Value]] = {a: [] for a in allocas}

        def current(alloca: Alloca) -> Value:
            stack = stacks[alloca]
            return stack[-1] if stack else UndefValue(types[alloca])

        def visit(block: BasicBlock) -> None:
            pushed: List[Alloca] = []
            for alloca, phi in phis[block].items():
                stacks[alloca].append(phi)
                pushed.append(alloca)
            detached = False
            for inst in block.instructions:
                if isinstance(inst, Load) and inst.pointer in alloca_set:
                    inst.replace_all_uses_with(current(inst.pointer))
                    block.detach(inst)
                    detached = True
                elif isinstance(inst, Store) and inst.pointer in alloca_set:
                    stacks[inst.pointer].append(inst.value)
                    pushed.append(inst.pointer)
                    block.detach(inst)
                    detached = True
            if detached:
                block.compact()
            for succ in block.successors():
                for alloca, phi in phis[succ].items():
                    phi.add_incoming(current(alloca), block)
            for child in children[block]:
                visit(child)
            for alloca in pushed:
                stacks[alloca].pop()

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 2 * len(func.blocks) + 1000))
        try:
            visit(func.entry)
        finally:
            sys.setrecursionlimit(old_limit)

        dirty: Set[BasicBlock] = set()
        for alloca in allocas:
            # Remaining uses can only be in unreachable blocks.
            for use in list(alloca.uses):
                user = use.user
                if isinstance(user, Load):
                    user.replace_all_uses_with(UndefValue(user.type))
                dirty.add(user.parent)
                user.parent.detach(user)
            if not alloca.uses:
                dirty.add(alloca.parent)
                alloca.parent.detach(alloca)
        for block in dirty:
            block.compact()
        return True
