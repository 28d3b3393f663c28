"""The trace event collector.

Events are stored directly in Chrome Trace Format dictionaries (the
"traceEvents" array of the JSON Object Format): complete spans
(``ph="X"``), instants (``ph="i"``), counters (``ph="C"``) and process
metadata (``ph="M"``).  Host-side timestamps come from
``time.perf_counter`` relative to the collector's epoch; device-side
events are emitted post-merge by :mod:`repro.trace.device` with
timestamps derived from the simulator's cycle clock.

Two collector classes share the interface:

* :class:`TraceCollector` — the real thing, append-only under a lock.
* :class:`NullCollector` — every method a no-op; the process-wide
  default when ``REPRO_TRACE`` is unset.  Instrumentation sites can
  call it unconditionally at near-zero cost, which is what keeps the
  paper's near-zero-overhead theme honest for the tracer itself.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import envconfig

#: Chrome-trace process ids for the two timelines.
PID_HOST = 1
PID_DEVICE = 2


@dataclass
class TraceConfig:
    """Collector configuration (the programmatic face of ``REPRO_TRACE``)."""

    #: Extra key/values copied into the exported ``otherData``.
    labels: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op context manager returned by the null collector."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullCollector:
    """Disabled collector: every method is a no-op."""

    enabled = False
    events: List[dict] = []  # always empty; shared read-only sentinel

    def span(self, name, cat="host", **args):
        return _NULL_SPAN

    def span_at(self, name, cat, start_s, dur_s, **args):
        pass

    def complete(self, name, cat, ts_us, dur_us, pid=PID_HOST, tid=1, args=None):
        pass

    def instant(self, name, cat="host", pid=PID_HOST, tid=1, **args):
        pass

    def counter(self, name, values, cat="host", pid=PID_HOST, tid=0, ts_us=None):
        pass


NULL_COLLECTOR = NullCollector()


class _Span:
    """Context manager recording one complete ("X") event on exit."""

    __slots__ = ("_collector", "name", "cat", "pid", "tid", "args", "_start")

    def __init__(self, collector, name, cat, pid, tid, args):
        self._collector = collector
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.args = args

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        c = self._collector
        c.complete(
            self.name, self.cat,
            ts_us=c.to_ts_us(self._start),
            dur_us=(end - self._start) * 1e6,
            pid=self.pid, tid=self.tid, args=self.args,
        )
        return False


class TraceCollector:
    """Append-only event sink with a monotonic host clock."""

    enabled = True

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        self.epoch = time.perf_counter()
        self.events: List[dict] = []
        self._lock = threading.Lock()
        self._emit({"name": "process_name", "ph": "M", "pid": PID_HOST, "tid": 0,
                    "ts": 0, "args": {"name": "repro host (toolchain/bench)"}})
        self._emit({"name": "process_name", "ph": "M", "pid": PID_DEVICE, "tid": 0,
                    "ts": 0, "args": {"name": "repro vgpu (device)"}})

    # ------------------------------------------------------------ plumbing --

    def _emit(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)

    def to_ts_us(self, perf_counter_s: float) -> float:
        """Host ``time.perf_counter`` seconds -> trace microseconds."""
        return (perf_counter_s - self.epoch) * 1e6

    # -------------------------------------------------------------- events --

    def span(self, name: str, cat: str = "host",
             pid: int = PID_HOST, tid: int = 1, **args) -> _Span:
        """Context manager timing a host-side region."""
        return _Span(self, name, cat, pid, tid, args)

    def span_at(self, name: str, cat: str, start_s: float, dur_s: float,
                pid: int = PID_HOST, tid: int = 1, **args) -> None:
        """Record a host span from absolute ``perf_counter`` timestamps
        (used to export :class:`PassTiming` records post-hoc)."""
        self.complete(name, cat, ts_us=self.to_ts_us(start_s),
                      dur_us=dur_s * 1e6, pid=pid, tid=tid, args=args)

    def complete(self, name: str, cat: str, ts_us: float, dur_us: float,
                 pid: int = PID_HOST, tid: int = 1,
                 args: Optional[dict] = None) -> None:
        event = {"name": name, "cat": cat, "ph": "X",
                 "ts": round(ts_us, 3), "dur": round(dur_us, 3),
                 "pid": pid, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)

    def instant(self, name: str, cat: str = "host",
                pid: int = PID_HOST, tid: int = 1, **args) -> None:
        event = {"name": name, "cat": cat, "ph": "i", "s": "t",
                 "ts": round(self.to_ts_us(time.perf_counter()), 3),
                 "pid": pid, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)

    def counter(self, name: str, values: Dict[str, Any], cat: str = "host",
                pid: int = PID_HOST, tid: int = 0,
                ts_us: Optional[float] = None) -> None:
        if ts_us is None:
            ts_us = self.to_ts_us(time.perf_counter())
        self._emit({"name": name, "cat": cat, "ph": "C",
                    "ts": round(ts_us, 3), "pid": pid, "tid": tid,
                    "args": dict(values)})

    # ------------------------------------------------------------- queries --

    def events_snapshot(self) -> List[dict]:
        with self._lock:
            return list(self.events)


# ----------------------------------------------------- process-wide state --

_active: Any = None
_resolved = False
_state_lock = threading.Lock()


def get_collector():
    """The process-wide collector.  On first use, ``REPRO_TRACE``
    decides between a real collector and :data:`NULL_COLLECTOR`."""
    global _active, _resolved
    if not _resolved:
        with _state_lock:
            if not _resolved:
                _active = (
                    TraceCollector() if envconfig.trace_enabled()
                    else NULL_COLLECTOR
                )
                _resolved = True
    return _active


def tracing_enabled() -> bool:
    return get_collector().enabled


def active_or_none() -> Optional[TraceCollector]:
    """The active collector, or None when tracing is disabled — the
    form the simulator hot paths branch on."""
    collector = get_collector()
    return collector if collector.enabled else None


def enable(config: Optional[TraceConfig] = None) -> TraceCollector:
    """Install (and return) a fresh enabled collector."""
    global _active, _resolved
    with _state_lock:
        _active = TraceCollector(config)
        _resolved = True
        return _active


def disable() -> None:
    """Install the no-op collector (and forget any recorded events)."""
    global _active, _resolved
    with _state_lock:
        _active = NULL_COLLECTOR
        _resolved = True


def reset() -> None:
    """Forget the process-wide collector; next use re-reads the env."""
    global _active, _resolved
    with _state_lock:
        _active = None
        _resolved = False


class install:
    """Context manager scoping *collector* as the process-wide one."""

    def __init__(self, collector) -> None:
        self._collector = collector
        self._saved: Any = None
        self._saved_resolved = False

    def __enter__(self):
        global _active, _resolved
        with _state_lock:
            self._saved, self._saved_resolved = _active, _resolved
            _active, _resolved = self._collector, True
        return self._collector

    def __exit__(self, *exc):
        global _active, _resolved
        with _state_lock:
            _active, _resolved = self._saved, self._saved_resolved
        return False


def span(name: str, cat: str = "host", **args):
    """Span on whatever collector is active (no-op when disabled)."""
    return get_collector().span(name, cat, **args)
