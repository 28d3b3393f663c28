"""Structured crash reports for device failures.

A :class:`CrashReport` freezes everything a postmortem needs — error
type and message, where on the device it happened
(:class:`~repro.vgpu.errors.DeviceErrorContext`), the active
:class:`~repro.faults.plan.FaultPlan`, the tail of the trace-event
stream — as a plain dict that serializes to JSON.

Reports are **deterministic**: no timestamps, no raw simulated
addresses, no host-specific paths inside the payload.  The
determinism tests compare :meth:`CrashReport.comparable_dict` across
fused and per-op decoded runs and warp runs — that
view additionally drops the fields that legitimately differ between
runs of the *same* failure (which engine produced it, whether the
service retried).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro import envconfig
from repro.memory.memmodel import MemoryError_
from repro.vgpu.errors import SimulationError

#: Exception classes that are failures *of the simulated program* (or
#: of an injected fault plan), as opposed to failures of the simulator.
#: They are deterministic, so they become reports, never retries.
PROGRAM_FAULTS = (SimulationError, MemoryError_)

#: Subdirectory of the repro cache dir that collects report JSON.
REPORT_DIRNAME = "crash-reports"

#: How many trailing trace events a report keeps.
TRACE_TAIL_EVENTS = 20


def default_report_dir() -> str:
    """``$REPRO_CACHE_DIR/crash-reports`` (gitignored with the cache)."""
    return os.path.join(envconfig.cache_dir(), REPORT_DIRNAME)


@dataclass
class CrashReport:
    """One device failure, ready for JSON."""

    error_type: str
    message: str
    kernel: Optional[str] = None
    engine: Optional[str] = None
    context: Optional[dict] = None
    fault_plan: Optional[dict] = None
    retry: Optional[dict] = None
    trace_tail: List[dict] = field(default_factory=list)

    # ------------------------------------------------------------ build --

    @classmethod
    def from_exception(cls, exc: BaseException, *, kernel: Optional[str] = None,
                       engine: Optional[str] = None, fault_plan=None,
                       trace=None) -> "CrashReport":
        """Build a report from *exc* (any exception an engine let out).

        ``exc.context`` — attached by the engines' run loops for
        :class:`~repro.vgpu.errors.SimulationError` — supplies the
        device-side coordinates when present.  *trace* may be a live
        :class:`~repro.trace.collector.TraceCollector`; its trailing
        events become ``trace_tail`` (diagnostic only: excluded from
        the comparable view because event timestamps are wall clock).
        """
        context = getattr(exc, "context", None)
        tail: List[dict] = []
        if trace is not None:
            events = trace.events_snapshot()
            tail = [dict(e) for e in events[-TRACE_TAIL_EVENTS:]]
        return cls(
            error_type=type(exc).__name__,
            message=str(exc),
            kernel=kernel,
            engine=engine,
            context=context.to_dict() if context is not None else None,
            fault_plan=fault_plan.to_dict() if fault_plan is not None else None,
            trace_tail=tail,
        )

    # ------------------------------------------------------------ views --

    def to_dict(self) -> dict:
        return {
            "error_type": self.error_type,
            "message": self.message,
            "kernel": self.kernel,
            "engine": self.engine,
            "context": self.context,
            "fault_plan": self.fault_plan,
            "retry": self.retry,
            "trace_tail": self.trace_tail,
        }

    def comparable_dict(self) -> dict:
        """The determinism view: everything that must be identical for
        the same failure across engines."""
        out = self.to_dict()
        out.pop("engine", None)
        out.pop("retry", None)
        out.pop("trace_tail", None)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # ------------------------------------------------------------- save --

    def save(self, report_dir: Optional[str] = None) -> str:
        """Write the report under *report_dir* (default
        :func:`default_report_dir`) and return the file path.

        The filename is a content hash of the comparable view, so the
        same failure re-reported (other engine, retry, repeated run)
        lands on the same file instead of accumulating duplicates.
        """
        directory = report_dir if report_dir is not None else default_report_dir()
        os.makedirs(directory, exist_ok=True)
        digest = hashlib.sha256(
            json.dumps(self.comparable_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]
        path = os.path.join(directory, f"crash-{digest}.json")
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path
