"""Pass manager and pipeline configuration.

``PipelineConfig`` exposes one disable flag per paper optimization so
the ablation study (Fig. 13 / §V-C) can switch them off one at a time.
With ``verify_each`` the IR verifier runs after every pass, which is
how the test suite catches pass bugs early.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Set

from repro.ir.module import Module
from repro.ir.verifier import VerificationError, verify_module
from repro.passes.remarks import RemarkCollector


def module_instruction_count(module: Module) -> int:
    """Total instructions across every defined function."""
    return sum(
        len(block.instructions)
        for func in module.functions.values()
        for block in func.blocks
    )


@dataclass
class PassTiming:
    """One pass execution inside a pipeline run."""

    name: str
    phase: str
    wall_time_s: float
    changed: bool
    instructions_before: int
    instructions_after: int
    #: ``time.perf_counter`` at pass start, so :mod:`repro.trace` can
    #: export the run as a host span (0.0 on records predating the
    #: field, e.g. cache-restored pickles).
    started_s: float = 0.0

    @property
    def instructions_removed(self) -> int:
        """Net instructions removed (negative when the pass grew the IR,
        e.g. inlining)."""
        return self.instructions_before - self.instructions_after


@dataclass
class PassAggregate:
    """Per-pass totals across a whole pipeline run."""

    name: str
    runs: int = 0
    changed_runs: int = 0
    wall_time_s: float = 0.0
    instructions_removed: int = 0


@dataclass
class PipelineStats:
    """Observability record of one openmp-opt pipeline run.

    Collected by :class:`PassManager` (per-pass wall time and
    instruction deltas) and :func:`repro.passes.pipeline.
    run_openmp_opt_pipeline` (fixpoint round counts, total wall time),
    and attached to :class:`repro.frontend.driver.CompiledProgram`.
    """

    timings: List[PassTiming] = field(default_factory=list)
    #: Fixpoint rounds actually executed (paper §IV interplay rounds).
    rounds: int = 0
    #: Wall time of the whole pipeline, including manager overhead.
    wall_time_s: float = 0.0

    def record(self, timing: PassTiming) -> None:
        self.timings.append(timing)

    def total_pass_time_s(self) -> float:
        return sum(t.wall_time_s for t in self.timings)

    def total_instructions_removed(self) -> int:
        return sum(t.instructions_removed for t in self.timings)

    def by_pass(self) -> Dict[str, PassAggregate]:
        """Aggregate the log per pass name, in first-run order."""
        out: Dict[str, PassAggregate] = {}
        for t in self.timings:
            agg = out.setdefault(t.name, PassAggregate(name=t.name))
            agg.runs += 1
            agg.changed_runs += int(t.changed)
            agg.wall_time_s += t.wall_time_s
            agg.instructions_removed += t.instructions_removed
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (``pipeline`` in the trace metrics JSON)."""
        return {
            "rounds": self.rounds,
            "wall_time_s": self.wall_time_s,
            "total_pass_time_s": self.total_pass_time_s(),
            "total_instructions_removed": self.total_instructions_removed(),
            "pass_runs": len(self.timings),
            "per_pass": [
                {
                    "name": agg.name,
                    "runs": agg.runs,
                    "changed_runs": agg.changed_runs,
                    "wall_time_s": agg.wall_time_s,
                    "instructions_removed": agg.instructions_removed,
                }
                for agg in self.by_pass().values()
            ],
        }


@dataclass
class PipelineConfig:
    """Optimization pipeline controls (compiler flags)."""

    opt_level: int = 2
    #: §IV-A3 SPMDzation.
    enable_spmdization: bool = True
    #: §IV-A2 globalization elimination (alloc_shared -> alloca).
    enable_globalization_elim: bool = True
    #: §IV-B1 field-sensitive access analysis.  Disabling this disables
    #: the whole §IV-B value propagation, as in the paper's ablation.
    enable_field_sensitive: bool = True
    #: §IV-B2 lifetime-aware reachability and dominance reasoning.
    enable_reach_dom: bool = True
    #: §IV-B3 assumed memory content.
    enable_assumed_content: bool = True
    #: §IV-B4 invariant value propagation.
    enable_invariant_prop: bool = True
    #: §IV-C exclusive (main-thread) and aligned execution analysis.
    enable_aligned_exec: bool = True
    #: §IV-D aligned barrier elimination.
    enable_barrier_elim: bool = True
    #: Generic inlining of the runtime into kernels.
    enable_inlining: bool = True
    #: Maximum openmp-opt fixpoint rounds.
    max_rounds: int = 8
    #: Run the IR verifier after every pass.
    verify_each: bool = False

    @property
    def enable_value_prop(self) -> bool:
        """§IV-B as a whole is gated on its base analysis (§IV-B1)."""
        return self.enable_field_sensitive

    @classmethod
    def o0(cls) -> "PipelineConfig":
        return cls(
            opt_level=0,
            enable_spmdization=False,
            enable_globalization_elim=False,
            enable_field_sensitive=False,
            enable_reach_dom=False,
            enable_assumed_content=False,
            enable_invariant_prop=False,
            enable_aligned_exec=False,
            enable_barrier_elim=False,
            enable_inlining=False,
        )

    @classmethod
    def nightly(cls) -> "PipelineConfig":
        """The "(Nightly)" builds of the evaluation: the legacy pass set,
        and a globalization pass that does not understand the new
        runtime's shared-stack discipline yet — kernels keep the full
        pre-allocated stack (the 11.3KB SMem row of Fig. 11)."""
        cfg = cls.legacy()
        cfg.enable_globalization_elim = False
        return cfg

    @classmethod
    def legacy(cls) -> "PipelineConfig":
        """The pre-co-design pipeline: only the §IV-A optimizations
        (internalization, globalization handling, SPMDzation) exist."""
        return cls(
            enable_field_sensitive=False,
            enable_reach_dom=False,
            enable_assumed_content=False,
            enable_invariant_prop=False,
            enable_aligned_exec=False,
            enable_barrier_elim=False,
        )


class Pass(Protocol):
    """A module transformation.  Returns True if it changed the IR."""

    name: str

    def run(self, module: Module, ctx: "PassContext") -> bool: ...


@dataclass
class PassContext:
    """Shared state threaded through a pipeline run."""

    config: PipelineConfig
    remarks: RemarkCollector = field(default_factory=RemarkCollector)
    #: Names of runtime API functions (never internal-DCE'd prematurely).
    runtime_api: frozenset = frozenset()
    #: Observability sink; when set, every pass run is timed into it.
    stats: Optional[PipelineStats] = None
    #: Label of the pipeline phase currently executing (for stats).
    phase: str = ""


@dataclass
class Phase:
    """A labelled list of passes within one :class:`PassManager` run."""

    name: str
    passes: List[Pass]
    #: When set, repeat the passes in fixpoint rounds (paper §IV
    #: interplay) until one changes nothing, at most ``max(1, rounds)``
    #: times; every round counts in :attr:`PipelineStats.rounds`.
    rounds: Optional[int] = None


class PassManager:
    """Runs phases of passes over a module, optionally verifying each.

    A pass with a true ``idempotent`` attribute (cleanup: it runs to its
    own fixpoint) is skipped when it already ran in this ``run`` call
    and no pass has reported a change since, because it cannot change
    anything then.  That knowledge never outlives the call, so a module
    a caller mutates between two runs is always cleaned again.
    """

    def __init__(self, passes: List[Pass], ctx: PassContext) -> None:
        self.phases = [Phase(ctx.phase, passes)]
        self.ctx = ctx
        #: The module's instruction count after the last pass of the
        #: current ``run`` call: nothing edits the module between two
        #: passes, so it is the next pass's count before.
        self._count: Optional[int] = None

    @classmethod
    def of_phases(cls, phases: List[Phase], ctx: PassContext) -> "PassManager":
        """A manager whose ``run`` runs *phases* in order."""
        pm = cls([], ctx)
        pm.phases = phases
        return pm

    def run(self, module: Module) -> bool:
        ctx = self.ctx
        stats = ctx.stats
        #: Types of idempotent passes that ran with no change since.
        settled: Set[type] = set()
        self._count = None
        changed_any = False
        for phase in self.phases:
            ctx.phase = phase.name
            for _ in range(1 if phase.rounds is None else max(1, phase.rounds)):
                if phase.rounds is not None and stats is not None:
                    stats.rounds += 1
                round_changed = False
                for p in phase.passes:
                    if type(p) in settled:
                        continue
                    changed = self._run_pass(p, module)
                    if changed:
                        settled.clear()
                        round_changed = True
                    if getattr(p, "idempotent", False):
                        settled.add(type(p))
                changed_any |= round_changed
                if not round_changed:
                    break
        return changed_any

    def _run_pass(self, p: Pass, module: Module) -> bool:
        stats = self.ctx.stats
        if stats is not None and self._count is None:
            self._count = module_instruction_count(module)
        start = time.perf_counter()
        changed = p.run(module, self.ctx)
        if stats is not None:
            wall_time_s = time.perf_counter() - start
            before, self._count = self._count, module_instruction_count(module)
            stats.record(PassTiming(
                name=p.name,
                phase=self.ctx.phase,
                wall_time_s=wall_time_s,
                changed=changed,
                instructions_before=before,
                instructions_after=self._count,
                started_s=start,
            ))
        if self.ctx.config.verify_each:
            try:
                verify_module(module)
            except VerificationError as exc:
                raise VerificationError(
                    [f"after pass {p.name}:"] + exc.errors
                ) from exc
        return changed
