"""The request-object launch API: :class:`LaunchSpec` / :class:`LaunchResult`.

A :class:`LaunchSpec` is the one canonical description of a kernel
launch — grid geometry, arguments, dynamic shared memory, watchdog and
the per-request robustness knobs (engine, fault plan, sanitizer
expectation) plus an optional ``request_id`` that the tracing layer
threads from submission through the device timeline.

``VirtualGPU.run(spec)``, the one launch entry point, executes a spec
and returns a :class:`LaunchResult`.  Because a spec is an immutable value, the same object can be executed
directly, replayed against another engine for differential testing, or
submitted to :class:`repro.serve.SimulationService` — the service
guarantees results bit-identical to a direct ``run()`` of the same
spec.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple, Union

from repro.vgpu.profiler import KernelProfile


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class LaunchSpec:
    """Everything needed to execute one kernel launch.

    Only ``kernel``, ``num_teams`` and ``threads_per_team`` are
    mandatory; every other field defaults to "inherit the device /
    environment default" (None) or "off" (0).  Specs are immutable —
    use :meth:`replace` to derive variants (e.g. rebinding ``args`` to
    pointers marshalled on a specific device).
    """

    #: Kernel name, or a :class:`repro.ir.module.Function` of the
    #: module the executing device has loaded.
    kernel: Union[str, object]
    num_teams: int = 1
    threads_per_team: int = 1
    #: Kernel arguments (scalars; pointers are plain tagged integers).
    args: Tuple[Any, ...] = ()
    #: Launch-time dynamic shared memory per team (bytes), §III-D.
    dynamic_shared_bytes: int = 0
    #: Wall-clock watchdog in seconds (None = ``REPRO_WATCHDOG_S``;
    #: 0 disables); a cooperative abort at phase boundaries.
    watchdog_s: Optional[float] = None
    #: End-to-end wall-clock budget in seconds (None = no deadline).
    #: On a direct ``run()`` it tightens the watchdog; submitted to a
    #: service it flows request→queue→compile→watchdog: a request
    #: expiring in queue is shed with a structured ``DeadlineExceeded``
    #: before wasting a worker, and the *remaining* budget (never the
    #: original) becomes the device watchdog.
    deadline_s: Optional[float] = None
    #: Execution engine override for this launch (``decoded`` /
    #: ``warp``; None = the device's engine).
    engine: Optional[str] = None
    #: Fault-injection plan for this launch: a FaultPlan, a
    #: ``REPRO_FAULTS``-grammar string, or None = the device's plan.
    faults: Optional[object] = None
    #: Sanitizer expectation: None = accept whatever the device was
    #: built with; True/False = require a (non-)sanitized device (the
    #: serve layer uses this to pick/build the right device; a direct
    #: ``run()`` on a mismatched device raises).
    sanitize: Optional[bool] = None
    #: Request identity threaded through trace spans and the device
    #: timeline (serve assigns one when absent).
    request_id: Optional[str] = None
    #: Free-form label (e.g. the submitting tenant) carried into
    #: results and reports; never interpreted.
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if self.num_teams < 1:
            raise ValueError("LaunchSpec.num_teams must be >= 1")
        if self.threads_per_team < 1:
            raise ValueError("LaunchSpec.threads_per_team must be >= 1")
        if self.dynamic_shared_bytes < 0:
            raise ValueError("LaunchSpec.dynamic_shared_bytes must be >= 0")
        if self.watchdog_s is not None and self.watchdog_s < 0:
            raise ValueError("LaunchSpec.watchdog_s must be >= 0 (or None)")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("LaunchSpec.deadline_s must be >= 0 (or None)")
        if self.engine is not None:
            from repro.vgpu.config import resolve_sim_engine

            object.__setattr__(self, "engine", resolve_sim_engine(self.engine))

    # ------------------------------------------------------------ helpers --

    def replace(self, **changes: Any) -> "LaunchSpec":
        """A copy of this spec with *changes* applied."""
        return dataclasses.replace(self, **changes)

    @property
    def kernel_name(self) -> str:
        return self.kernel if isinstance(self.kernel, str) else self.kernel.name

    @property
    def total_threads(self) -> int:
        return self.num_teams * self.threads_per_team

    def describe(self) -> str:
        """Compact one-line rendering for logs and reports."""
        bits = [
            f"@{self.kernel_name}",
            f"{self.num_teams}x{self.threads_per_team}",
        ]
        if self.dynamic_shared_bytes:
            bits.append(f"dynshared={self.dynamic_shared_bytes}B")
        if self.deadline_s is not None:
            bits.append(f"deadline={self.deadline_s:g}s")
        if self.engine is not None:
            bits.append(self.engine)
        if self.request_id is not None:
            bits.append(f"req={self.request_id}")
        return " ".join(bits)


@dataclass
class LaunchResult:
    """Outcome of executing one :class:`LaunchSpec`.

    A direct ``VirtualGPU.run(spec)`` raises on failure like the kernel
    itself would, so its results always have ``ok=True``.  The serve
    layer isolates failures per request instead: a failed request comes
    back as ``ok=False`` with the :class:`~repro.faults.report.
    CrashReport` attached, never as an exception leaking into other
    tenants.
    """

    spec: LaunchSpec
    #: The kernel profile (None only for failed served requests).
    profile: Optional[KernelProfile] = None
    #: Engine that was requested (post-resolution).
    engine: str = ""
    #: Engine that actually ran the teams: ``engine``, or ``decoded``
    #: when every team of a warp-requested launch fell back.
    executed_engine: str = ""
    #: Why teams of a warp-requested launch ran decoded (one of
    #: ``repro.vgpu.config.FALLBACK_*``: ``old-rt-shared-stack``,
    #: ``fault-plan``, ``sanitize`` or ``low-occupancy``), else None;
    #: with mixed reasons, that of the lowest team that fell back.  A
    #: fault plan that arms only some teams, or a low-occupancy team 0
    #: that gates the rest, leaves ``executed_engine`` at ``warp``.
    fallback: Optional[str] = None
    ok: bool = True
    #: CrashReport for a failed request — or, on a successful serve
    #: retry, for the internal engine fault that forced the retry.
    report: Optional[object] = None
    report_path: Optional[str] = None
    #: True when the requested engine failed internally and a retry on
    #: a fresh per-op decoded device supplied the result (serve-layer
    #: fallback).
    retried: bool = False
    #: Host wall-clock stamps (``time.monotonic``): submission to a
    #: service (None for direct runs), execution start, execution end.
    submitted_s: Optional[float] = None
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Extra per-request payload (e.g. app verification results
    #: computed by a serve ``finalize`` hook).
    payload: Any = None

    @property
    def request_id(self) -> Optional[str]:
        return self.spec.request_id

    @property
    def duration_s(self) -> float:
        """Wall-clock execution time of the launch itself."""
        if self.started_s is None or self.finished_s is None:
            return 0.0
        return self.finished_s - self.started_s

    @property
    def queue_wait_s(self) -> float:
        """Time spent admitted-but-waiting in a service queue."""
        if self.submitted_s is None or self.started_s is None:
            return 0.0
        return self.started_s - self.submitted_s

    @property
    def latency_s(self) -> float:
        """Submission-to-completion latency (served requests)."""
        if self.submitted_s is None or self.finished_s is None:
            return self.duration_s
        return self.finished_s - self.submitted_s

    @property
    def cycles(self) -> int:
        return self.profile.cycles if self.profile is not None else 0

    def profile_summary(self) -> Optional[dict]:
        """Per-construct overhead counters of this launch.

        Runtime calls by paper §III category, the aligned/unaligned
        barrier split, and global-fallback malloc/free counts — all
        live on the untraced fast path, so served requests are
        per-construct observable without enabling full tracing.  None
        for failed served requests (no profile).
        """
        if self.profile is None:
            return None
        from repro.trace.snapshot import profile_summary

        return profile_summary(self.profile)
