"""Aligned barrier elimination (paper §IV-D).

Detects pairs of aligned barriers in the same basic block with no
non-thread-local side effects between them and removes the second one;
kernel entry and exit count as implicit aligned barriers.  Unaligned
barriers are never touched — they may synchronize with threads that
diverged earlier (the generic-mode state machine).

"Thread-local" classification leans on §IV-C: with the aligned/exclusive
execution analysis disabled, stores to provably private memory can no
longer be told apart from team-visible effects, and elimination becomes
much more conservative (the Fig. 13 ablation effect).
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.addrspace import AddressSpace
from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
    Call,
    Instruction,
    Load,
    Store,
)
from repro.ir.intrinsics import intrinsic_info
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import PointerType
from repro.passes.pass_manager import PassContext
from repro.passes.value_prop import _resolve_all_bases


def _is_aligned_barrier(inst: Instruction) -> bool:
    if not isinstance(inst, Call):
        return False
    callee = inst.callee
    if callee is None:
        return False
    if "ext_aligned_barrier" in callee.assumptions:
        return True
    info = intrinsic_info(callee.name)
    return bool(info and info.is_barrier and info.aligned)


def _is_any_barrier(inst: Instruction) -> bool:
    if not isinstance(inst, Call):
        return False
    callee = inst.callee
    if callee is None:
        return False
    info = intrinsic_info(callee.name)
    return bool(info and info.is_barrier)


def _store_is_thread_local(ptr, aligned_exec: bool) -> bool:
    if not aligned_exec:
        return False
    bases = _resolve_all_bases(ptr)
    if bases is None:
        return False
    for base, _ in bases:
        if isinstance(base, Alloca):
            continue
        if isinstance(base.type, PointerType) and base.type.addrspace is AddressSpace.LOCAL:
            continue
        return False
    return True


def _has_team_visible_effect(inst: Instruction, aligned_exec: bool) -> bool:
    """Anything another thread could observe or that observes others."""
    if isinstance(inst, Store):
        return not _store_is_thread_local(inst.pointer, aligned_exec)
    if isinstance(inst, AtomicRMW):
        return True
    if isinstance(inst, Load):
        # Loads are not effects; their values were folded already if the
        # optimizer could prove anything about them.
        return False
    if isinstance(inst, Call):
        callee = inst.callee
        if callee is None:
            return True
        info = intrinsic_info(callee.name)
        if info is not None:
            if info.is_barrier:
                return True  # handled by the caller's scan
            return info.side_effects
        if "readnone" in callee.attrs:
            return False
        return True  # unknown call
    return False


class BarrierEliminationPass:
    name = "openmp-opt-barrier-elim"

    def run(self, module: Module, ctx: PassContext) -> bool:
        if not ctx.config.enable_barrier_elim:
            return False
        aligned_exec = ctx.config.enable_aligned_exec
        changed = False
        for func in module.defined_functions():
            for block in func.blocks:
                changed |= self._process_block(func, block, aligned_exec, ctx)
        return changed

    def _process_block(
        self, func: Function, block: BasicBlock, aligned_exec: bool, ctx: PassContext
    ) -> bool:
        changed = False
        # `pending` is the previous aligned sync point with nothing
        # team-visible since: an aligned barrier, or the kernel entry.
        is_kernel_entry = func.is_kernel and block is func.entry
        pending: Optional[object] = "entry" if is_kernel_entry else None
        to_remove: List[Instruction] = []
        for inst in block.instructions:
            if _is_aligned_barrier(inst):
                if pending is not None:
                    to_remove.append(inst)
                    ctx.remarks.passed(
                        self.name,
                        func.name,
                        "removed aligned barrier made redundant by "
                        + ("kernel entry" if pending == "entry" else "preceding barrier"),
                    )
                else:
                    pending = inst
                continue
            if _is_any_barrier(inst):
                pending = None  # unaligned barriers block reasoning
                continue
            if _has_team_visible_effect(inst, aligned_exec):
                pending = None
        # Kernel exit counts as an implicit aligned barrier.
        term = block.terminator
        if (
            func.is_kernel
            and term is not None
            and term.opcode == "ret"
            and pending is not None
            and pending != "entry"
            and pending not in to_remove
        ):
            to_remove.append(pending)  # type: ignore[arg-type]
            ctx.remarks.passed(
                self.name, func.name, "removed aligned barrier adjacent to kernel exit"
            )
        for inst in to_remove:
            if inst.parent is not None and not inst.uses:
                inst.erase_from_parent()
                changed = True
        return changed
