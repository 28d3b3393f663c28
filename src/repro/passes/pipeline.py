"""The openmp-opt pipeline (paper §IV).

Assembles the passes in the order the LLVM pipeline applies them and
iterates the interplay rounds: value propagation exposes dead branches,
cleanup removes them, which kills state stores, which unlocks further
propagation — until nothing changes (the Attributor-style fixpoint).
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.ir.module import Module
from repro.passes.barrier_elim import BarrierEliminationPass
from repro.passes.cleanup import CleanupPass
from repro.passes.globalization import GlobalizationEliminationPass
from repro.passes.gvn import GVNPass, LICMPass
from repro.passes.inline import InlinePass
from repro.passes.mem2reg import PromoteAllocasPass
from repro.passes.internalize import InternalizePass
from repro.passes.pass_manager import (
    PassContext,
    PassManager,
    Phase,
    PipelineConfig,
    PipelineStats,
)
from repro.passes.remarks import RemarkCollector
from repro.passes.spmdization import SPMDizationPass
from repro.passes.strip_assumes import StripAssumesPass
from repro.passes.value_prop import DeadStateStoreElimination, ValuePropagationPass


def run_openmp_opt_pipeline(
    module: Module,
    config: Optional[PipelineConfig] = None,
    remarks: Optional[RemarkCollector] = None,
) -> PassContext:
    """Optimize *module* in place; returns the context with remarks."""
    if config is None:
        config = PipelineConfig()
    # Note: an empty RemarkCollector is falsy (it has __len__), so the
    # identity check matters here.
    if remarks is None:
        remarks = RemarkCollector()
    stats = PipelineStats()
    ctx = PassContext(config=config, remarks=remarks, stats=stats)
    start = time.perf_counter()
    if config.opt_level == 0:
        stats.wall_time_s = time.perf_counter() - start
        return ctx

    phases = [
        # Whole-module preparation (pre-inlining pattern matching).
        Phase("prepare", [InternalizePass(), CleanupPass(), SPMDizationPass(),
                          GlobalizationEliminationPass()]),
        # Pull the runtime into the kernels, then run the generic scalar
        # pipeline LLVM provides around openmp-opt.  The trailing
        # globalization pass is a second chance for SPMDized kernels
        # whose allocations only became demotable after inlining-driven
        # folding.
        Phase("scalar", [InlinePass(), CleanupPass(), PromoteAllocasPass(),
                         CleanupPass(), GVNPass(), LICMPass(), CleanupPass(),
                         GlobalizationEliminationPass(), CleanupPass()]),
        # The openmp-opt fixpoint rounds.
        Phase("fixpoint", [ValuePropagationPass(), CleanupPass(),
                           DeadStateStoreElimination(), CleanupPass(),
                           InlinePass(), PromoteAllocasPass(), GVNPass(),
                           LICMPass(), CleanupPass()],
              rounds=config.max_rounds),
        # Strip optimizer-only artifacts, then sweep the state they kept
        # alive.  The assume anchors were the last loads of the runtime
        # state; once they are gone, dead-store elimination can finally
        # drop the broadcast writes, the state globals, and with them the
        # barriers that published them.
        Phase("late-sweep", [BarrierEliminationPass(), CleanupPass(),
                             StripAssumesPass(), CleanupPass()]),
        Phase("late-sweep", [DeadStateStoreElimination(), CleanupPass(),
                             BarrierEliminationPass(), CleanupPass()],
              rounds=config.max_rounds),
    ]
    PassManager.of_phases(phases, ctx).run(module)
    stats.wall_time_s = time.perf_counter() - start
    return ctx
