"""Chrome Trace Format / flat-metrics JSON export.

The trace document follows the Chrome Trace Event JSON Object Format
(the one ``chrome://tracing`` and https://ui.perfetto.dev accept):
a ``traceEvents`` array of complete ("X"), instant ("i"), counter
("C") and metadata ("M") events plus a ``displayTimeUnit`` hint and
an ``otherData`` bag.  :func:`validate_chrome_trace` is the schema
check the tests (and ``python -m repro.bench trace``) run
over every document this module writes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

_VALID_PH = {"X", "i", "C", "M"}


def chrome_trace(collector, other_data: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the Chrome Trace JSON document from *collector*."""
    other = {"generator": "repro.trace"}
    other.update(getattr(collector.config, "labels", {}) or {})
    if other_data:
        other.update(other_data)
    return {
        "traceEvents": collector.events_snapshot(),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    collector,
    path: str,
    other_data: Optional[Dict[str, Any]] = None,
    indent: Optional[int] = None,
) -> str:
    doc = chrome_trace(collector, other_data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")
    return path


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a trace document; returns a list of problems
    (empty = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array traceEvents"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PH:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                errors.append(f"{where}: missing {key}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: bad dur {dur!r}")
        if ph == "C" and not isinstance(event.get("args"), dict):
            errors.append(f"{where}: counter without args object")
    return errors


def build_metrics(
    profile=None,
    cache_stats=None,
    pipeline_stats=None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Flat metrics document accompanying a trace (one JSON object,
    scalar-leaning, for dashboards and regression diffs)."""
    out: Dict[str, Any] = {"schema": "repro.trace.metrics/1"}
    if profile is not None:
        out["kernel"] = profile.to_dict()
        out["overhead_counters"] = profile.overhead_counters()
    if cache_stats is not None:
        out["compile_cache"] = cache_stats.to_dict()
    if pipeline_stats is not None:
        out["pipeline"] = pipeline_stats.to_dict()
    if extra:
        out.update(extra)
    return out


def write_metrics(metrics: Dict[str, Any], path: str, indent: int = 2) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=indent, sort_keys=True)
        fh.write("\n")
    return path
