"""Globalization elimination (paper §IV-A2).

The frontend conservatively routes potentially-shared locals through
``__kmpc_alloc_shared`` (variable globalization).  This pass demotes
such allocations back to thread-private stack (``alloca``) when the
memory is provably not used to communicate *between* threads:

* in an SPMD kernel every thread executes the allocation itself, and
  the buffer it passes to ``parallel``/worksharing entry points is read
  back by the same thread, so a private copy is equivalent;
* in a generic-mode kernel the main thread fills the buffer and the
  *workers* read it through the state machine — the allocation must
  stay shared, and a missed-optimization remark explains why.

Demoting every allocation leaves the shared-memory stack unreferenced,
which is what drops the kernel's static SMem to zero (Fig. 11).
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir.instructions import Alloca, Call, Cast, Instruction, Load, PtrAdd, Store
from repro.ir.module import Function, Module
from repro.ir.types import ArrayType, I8
from repro.ir.values import Constant
from repro.passes.pass_manager import PassContext

#: Only the co-designed runtime's allocations are demotable: the old
#: runtime's warp-master data-sharing scheme was never rewritable by the
#: legacy pass (its kernels keep their ~2.3KB stack, Fig. 11).
ALLOC_NAMES = {"__kmpc_alloc_shared"}
FREE_NAMES = {"__kmpc_free_shared"}
OLD_ALLOC_NAMES = {"__kmpc_alloc_shared_old"}
RUNTIME_CONSUMERS_PREFIXES = ("__kmpc_", "__omp_")


def _kernel_exec_mode(func: Function) -> Optional[int]:
    """0/1 if *func* is a kernel with a constant-mode target_init call."""
    if not func.is_kernel:
        return None
    for inst in func.instructions():
        if isinstance(inst, Call):
            callee = inst.callee
            if callee is not None and callee.name.startswith("__kmpc_target_init"):
                arg = inst.args[0]
                if isinstance(arg, Constant):
                    return int(arg.value)
                return None
    return None


def _uses_stay_thread_private(alloc: Call) -> bool:
    """Check the buffer is only loaded/stored/offset or handed to the
    runtime as a capture buffer (which, in SPMD mode, round-trips to the
    same thread)."""
    work: List[Instruction] = [alloc]
    seen = set()
    while work:
        value = work.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        for use in value.uses:
            user = use.user
            if isinstance(user, (Load,)):
                continue
            if isinstance(user, Store):
                if user.pointer is value and use.index == 1:
                    continue
                return False  # address escapes into memory
            if isinstance(user, PtrAdd) and user.pointer is value:
                work.append(user)
                continue
            if isinstance(user, Cast) and user.opcode in ("bitcast",):
                work.append(user)
                continue
            if isinstance(user, Call):
                callee = user.callee
                name = callee.name if callee else ""
                if name in FREE_NAMES:
                    continue
                if name.startswith(RUNTIME_CONSUMERS_PREFIXES):
                    # Capture buffer handed to parallel/worksharing.
                    continue
                return False
            return False
    return True


class GlobalizationEliminationPass:
    name = "openmp-opt-globalization"

    def run(self, module: Module, ctx: PassContext) -> bool:
        if not ctx.config.enable_globalization_elim:
            return False
        changed = False
        for func in list(module.defined_functions()):
            mode = _kernel_exec_mode(func)
            allocs: List[Call] = []
            for inst in func.instructions():
                if not isinstance(inst, Call) or inst.callee is None:
                    continue
                if inst.callee.name in ALLOC_NAMES:
                    allocs.append(inst)
                elif inst.callee.name in OLD_ALLOC_NAMES:
                    ctx.remarks.missed(
                        self.name,
                        func.name,
                        "legacy data-sharing allocation is not rewritable",
                    )
            if not allocs:
                continue
            if mode == 0:
                for alloc in allocs:
                    ctx.remarks.missed(
                        self.name,
                        func.name,
                        "globalized allocation kept shared: generic-mode "
                        "kernel communicates it to worker threads",
                    )
                continue
            if mode is None and func.is_kernel:
                continue
            # SPMD kernel (mode == 1) or a non-kernel function whose
            # allocations are per-invocation (executed by each thread).
            for alloc in allocs:
                size_arg = alloc.args[0]
                if not isinstance(size_arg, Constant):
                    ctx.remarks.missed(
                        self.name, func.name, "dynamic globalization size"
                    )
                    continue
                if not _uses_stay_thread_private(alloc):
                    ctx.remarks.missed(
                        self.name,
                        func.name,
                        "globalized allocation escapes analysis",
                    )
                    continue
                self._demote(alloc, int(size_arg.value), func, module, ctx)
                changed = True
        return changed

    def _demote(
        self, alloc: Call, size: int, func: Function, module: Module, ctx: PassContext
    ) -> None:
        """Replace alloc/free pair with an entry-block alloca."""
        entry = func.entry
        stack = Alloca(ArrayType(I8, size), alloc.name or "private")
        entry.insert(entry.first_non_phi_index(), stack)
        # Drop the matching frees first (they use the allocation).
        for use in list(alloc.uses):
            user = use.user
            if (
                isinstance(user, Call)
                and user.callee is not None
                and user.callee.name in FREE_NAMES
            ):
                user.erase_from_parent()
        alloc.replace_all_uses_with(stack)
        alloc.erase_from_parent()
        ctx.remarks.passed(
            self.name,
            func.name,
            f"demoted {size}B globalized allocation to thread-private stack",
        )
