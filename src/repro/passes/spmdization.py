"""SPMDzation (paper §IV-A3).

Rewrites an eligible generic-mode kernel to SPMD mode by flipping the
constant mode argument of ``target_init``/``target_deinit``.  The
runtime co-design makes this sufficient: in SPMD mode the state machine
paths are statically dead and every thread executes the former
main-thread code directly.

Legality follows the paper's scheme: code the main thread executed
sequentially is *recomputed* by all threads when side-effect free, and
side effects are either

* stores into globalized capture buffers (each thread produces its own
  identical copy — later demoted by globalization elimination),
* calls into the mode-aware runtime, or
* guarded for single-threaded execution (stores to external memory get
  an ``if (tid == 0)`` guard plus a trailing aligned barrier).

Anything else (unknown calls, atomics in the sequential part, bare
``distribute`` regions whose per-team iterations would be duplicated
per thread) aborts the transformation with a missed-optimization
remark — the state machine then stays, and with it its overhead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
    Call,
    Cast,
    Instruction,
    Load,
    PtrAdd,
    Store,
)
from repro.ir.intrinsics import declare_intrinsic, intrinsic_info
from repro.ir.module import Function, Module
from repro.ir.types import I32, VOID
from repro.ir.values import Constant
from repro.passes.globalization import ALLOC_NAMES, FREE_NAMES, OLD_ALLOC_NAMES

#: Capture buffers of either runtime are written and read back by the
#: same thread once the kernel runs in SPMD mode.
PRIVATE_ALLOC_NAMES = ALLOC_NAMES | OLD_ALLOC_NAMES
from repro.passes.pass_manager import PassContext

RUNTIME_PREFIXES = ("__kmpc_", "__omp_", "omp_")
#: Teams-only worksharing must not be duplicated across threads.
TEAMS_ONLY_LOOPS = {"__kmpc_distribute_static_loop", "__kmpc_distribute_static_old"}


def _find_init_call(func: Function) -> Optional[Call]:
    for inst in func.instructions():
        if isinstance(inst, Call):
            callee = inst.callee
            if callee is not None and callee.name.startswith("__kmpc_target_init"):
                return inst
    return None


def _chases_to_private(ptr) -> bool:
    """Pointer derived from a globalized capture buffer or an alloca."""
    seen = 0
    while seen < 32:
        seen += 1
        if isinstance(ptr, Alloca):
            return True
        if isinstance(ptr, Call):
            callee = ptr.callee
            return callee is not None and callee.name in PRIVATE_ALLOC_NAMES
        if isinstance(ptr, PtrAdd):
            ptr = ptr.pointer
            continue
        if isinstance(ptr, Cast) and ptr.opcode in ("bitcast", "inttoptr"):
            src = ptr.source
            if isinstance(src, Cast) and src.opcode == "ptrtoint":
                ptr = src.source
                continue
            ptr = src
            continue
        return False
    return False


class SPMDizationPass:
    name = "openmp-opt-spmdization"

    def run(self, module: Module, ctx: PassContext) -> bool:
        if not ctx.config.enable_spmdization:
            return False
        changed = False
        for kernel in module.kernels():
            if kernel.is_declaration:
                continue
            init = _find_init_call(kernel)
            if init is None:
                continue
            mode_arg = init.args[0]
            if not isinstance(mode_arg, Constant) or mode_arg.value != 0:
                continue
            verdict, guardable = self._check_legality(kernel, ctx)
            if not verdict:
                continue
            self._apply(kernel, init, guardable, module, ctx)
            ctx.remarks.passed(
                self.name, kernel.name, "transformed generic-mode kernel to SPMD mode"
            )
            changed = True
        return changed

    def _check_legality(
        self, kernel: Function, ctx: PassContext
    ) -> Tuple[bool, List[Store]]:
        """Returns (legal, stores that need single-thread guarding)."""
        guardable: List[Store] = []
        for inst in kernel.instructions():
            if isinstance(inst, Store):
                if _chases_to_private(inst.pointer):
                    continue
                guardable.append(inst)
            elif isinstance(inst, AtomicRMW):
                ctx.remarks.missed(
                    self.name,
                    kernel.name,
                    "atomic update in sequential region prevents SPMD execution",
                )
                return False, []
            elif isinstance(inst, Call):
                callee = inst.callee
                if callee is None:
                    ctx.remarks.missed(
                        self.name,
                        kernel.name,
                        "indirect call in sequential region prevents SPMD execution",
                    )
                    return False, []
                name = callee.name
                if name in TEAMS_ONLY_LOOPS:
                    ctx.remarks.missed(
                        self.name,
                        kernel.name,
                        "sequential distribute region prevents SPMD execution",
                    )
                    return False, []
                if intrinsic_info(name) is not None:
                    continue
                if name.startswith(RUNTIME_PREFIXES):
                    continue
                if "readnone" in callee.attrs:
                    continue
                ctx.remarks.missed(
                    self.name,
                    kernel.name,
                    f"call to @{name} with unknown side effects prevents "
                    f"SPMD execution",
                )
                return False, []
        return True, guardable

    def _apply(
        self,
        kernel: Function,
        init: Call,
        guardable: List[Store],
        module: Module,
        ctx: PassContext,
    ) -> None:
        # Flip the execution mode constants.
        init.set_operand(1, Constant(I32, 1))
        for inst in kernel.instructions():
            if isinstance(inst, Call):
                callee = inst.callee
                if callee is not None and callee.name.startswith("__kmpc_target_deinit"):
                    inst.set_operand(1, Constant(I32, 1))

        # Guard external-memory stores for single-threaded execution and
        # broadcast with an aligned barrier (paper §IV-A3).
        for store in guardable:
            block = store.parent
            assert block is not None
            func = block.parent
            assert func is not None
            idx = block.instructions.index(store)
            before = block
            guarded = func.add_block("spmd.guard", after=before)
            cont = func.add_block("spmd.guard.cont", after=guarded)
            # Move the store into the guarded block and the tail into cont.
            tail = before.instructions[idx + 1 :]
            del before.instructions[idx:]
            store.parent = guarded
            guarded.instructions.append(store)
            for t in tail:
                t.parent = cont
                cont.instructions.append(t)
            for succ in cont.successors():
                for phi in succ.phis():
                    for i, incoming in enumerate(phi.incoming_blocks):
                        if incoming is before:
                            phi.incoming_blocks[i] = cont
            b = IRBuilder(module, before)
            tid = b.thread_id()
            is_zero = b.icmp("eq", tid, b.i32(0))
            b.cond_br(is_zero, guarded, cont)
            b.set_insert_point(guarded)
            b.br(cont)
            # Publish the guarded store to the team: an aligned barrier
            # at the head of the continuation (built by hand because the
            # continuation already carries the tail's terminator).
            barrier_fn = declare_intrinsic(module, "gpu.barrier.aligned")
            barrier = Call(barrier_fn, [], VOID)
            cont.insert(0, barrier)
            ctx.remarks.passed(
                self.name, kernel.name, "guarded sequential store for SPMD execution"
            )
