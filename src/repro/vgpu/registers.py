"""Register pressure estimation.

Approximates the register count Nsight reports (paper Fig. 11) by
running SSA liveness over the final, optimized IR and taking the
maximum number of simultaneously live values at any program point.
Loop-carried values, runtime state pointers and the state machine all
increase this number; the paper's optimizations reduce it by deleting
exactly those values — so the *ordering* across builds is preserved
even though the absolute count differs from NVCC's allocator.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir.callgraph import CallGraph
from repro.ir.cfg import reverse_post_order
from repro.ir.instructions import Instruction, Phi
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Argument, Value

#: Registers reserved by the ABI/hardware (kernel params, special regs).
BASE_REGISTERS = 8
#: Extra registers charged per level of un-inlined call (saved state).
CALL_DEPTH_PENALTY = 4


def _is_tracked(value: Value) -> bool:
    return isinstance(value, (Instruction, Argument))


def block_liveness(func: Function) -> Dict[BasicBlock, Set[Value]]:
    """Backward liveness fixpoint; returns live-out sets per block.

    The CFG walk happens once: per reachable block, its successors,
    the values its successors' phis take on the edge from it, the
    values it uses before defining them (``gen``) and everything it
    defines (``kill``).  The fixpoint then only unions sets:
    ``out = phi_uses ∪ ⋃ in[succ]`` and ``in = gen ∪ (out − kill)``,
    from empty sets, in post-order, until nothing changes.  Blocks
    unreachable from the entry keep empty sets.
    """
    live_in: Dict[BasicBlock, Set[Value]] = {b: set() for b in func.blocks}
    live_out: Dict[BasicBlock, Set[Value]] = {b: set() for b in func.blocks}
    plan = []
    for block in reversed(reverse_post_order(func)):
        succs = tuple(block.successors())
        phi_uses: Set[Value] = set()
        for succ in succs:
            for phi in succ.phis():
                try:
                    v = phi.incoming_value_for(block)
                except KeyError:
                    continue
                if _is_tracked(v):
                    phi_uses.add(v)
        gen: Set[Value] = set()
        for inst in reversed(block.instructions):
            gen.discard(inst)
            if isinstance(inst, Phi):
                continue  # phi operands counted on the incoming edges
            for op in inst.operands:
                if _is_tracked(op):
                    gen.add(op)
        gen.difference_update(block.phis())
        live_in[block] = gen  # ``in`` while ``out`` is still empty
        plan.append((block, succs, phi_uses, gen, set(block.instructions)))

    changed = True
    while changed:
        changed = False
        for block, succs, phi_uses, gen, kill in plan:
            out = set(phi_uses)
            for succ in succs:
                out |= live_in[succ]
            if out != live_out[block]:
                live_out[block] = out
                live_in[block] = gen | (out - kill)
                changed = True
    return live_out


def max_live_values(func: Function) -> int:
    """Maximum number of simultaneously live SSA values in *func*."""
    if func.is_declaration:
        return 0
    live_out = block_liveness(func)
    best = len(func.args)
    for block in func.blocks:
        live = set(live_out[block])
        best = max(best, len(live) + len(block.phis()))
        for inst in reversed(block.instructions):
            live.discard(inst)
            if not isinstance(inst, Phi):
                for op in inst.operands:
                    if _is_tracked(op):
                        live.add(op)
            best = max(best, len(live))
    return best


def _call_depth(func: Function, cg: CallGraph, seen: frozenset = frozenset()) -> int:
    """Longest chain of non-intrinsic calls below *func* (recursion counts
    once — real GPU register allocation treats it as one extra frame)."""
    if func.is_declaration or func.name in seen:
        return 0
    depth = 0
    for callee in cg.callees(func):
        if not callee.is_declaration:
            depth = max(depth, 1 + _call_depth(callee, cg, seen | {func.name}))
    return depth


def estimate_kernel_registers(kernel: Function, module: Module,
                              cg: Optional[CallGraph] = None) -> int:
    """Estimated register count for one kernel entry point (*cg*, if
    given, is *module*'s call graph).

    Reach follows direct calls only: the peak liveness is taken over
    the kernel and its transitive direct callees, and ``_call_depth``
    counts levels of direct calls.  A function reached only through a
    taken address (an indirect call's target, such as a Nightly build's
    ``__omp_outlined.*`` body) adds neither its live values nor a call
    level, by decision: counting it would move the modeled register
    numbers.  Example: gridmini Old RT (Nightly) is 50 = 8 + 42
    (``dslash``'s own peak) + 0 levels, although ``dslash`` reaches
    ``__omp_outlined.dslash`` (peak 35) through its address."""
    if cg is None:
        cg = CallGraph(module)
    reachable = {kernel} | cg.transitive_callees(kernel)
    peak = 0
    for func in reachable:
        if not func.is_declaration:
            peak = max(peak, max_live_values(func))
    return BASE_REGISTERS + peak + CALL_DEPTH_PENALTY * _call_depth(kernel, cg)
