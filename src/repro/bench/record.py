"""Shared benchmark-record schema (``bench micro`` / ``chaos``).

Every benchmark report and every :mod:`repro.bench.history` record
carries the same envelope: a ``schema_version`` stamp, a ``meta`` block
identifying the machine and Python that produced the numbers, and —
for anything derived from repeated timings — a ``stats`` block with
mean/stddev/min/max (or :func:`percentiles` for latency
distributions).  Centralizing the envelope here keeps the benches
diffable by one ``compare`` implementation and lets the history store
reject records it does not understand.

A *metric* is one named, comparable number.  Its ``kind`` separates
the two regression classes the verify gate cares about:

* ``wall`` — host wall-clock derived (machine-dependent, noisy;
  compared with noise-aware thresholds using the recorded stddev);
* ``model`` — simulated/modeled quantities (cycles, counter values;
  deterministic by construction, so any drift is a real change).

``better`` records the improvement direction so the compare logic can
orient deltas without per-metric special cases.
"""

from __future__ import annotations

import math
import platform
import time
import uuid
from typing import Any, Dict, Optional, Sequence

#: Version of the shared report/record envelope.  v1 was the ad-hoc
#: per-bench JSON of PRs 2 and 5 (no meta block, no stats); v2 adds
#: the envelope defined in this module.
SCHEMA_VERSION = 2

#: Improvement directions a metric may declare.
BETTER_HIGHER = "higher"
BETTER_LOWER = "lower"

#: Metric classes the regression gate reports separately.
KIND_WALL = "wall"
KIND_MODEL = "model"


def meta_block() -> Dict[str, Any]:
    """The machine/python identity block shared by every report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "platform": platform.system(),
    }


def stats(values: Sequence[float]) -> Dict[str, float]:
    """Mean/stddev/min/max/n of repeated measurements.

    The stddev is the sample standard deviation (n-1 denominator), the
    quantity the noise-aware compare thresholds consume; with a single
    measurement it is 0.0 — "no noise information", which makes the
    compare fall back to the pure relative threshold.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        return {"mean": 0.0, "stddev": 0.0, "min": 0.0, "max": 0.0, "n": 0}
    mean = sum(vals) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in vals) / (n - 1)
        stddev = math.sqrt(var)
    else:
        stddev = 0.0
    return {
        "mean": mean,
        "stddev": stddev,
        "min": min(vals),
        "max": max(vals),
        "n": n,
    }


def percentiles(values: Sequence[float],
                points: Sequence[int] = (50, 95, 99)) -> Dict[str, float]:
    """Nearest-rank percentiles of *values*, rounded for the report."""
    out: Dict[str, float] = {}
    ordered = sorted(values)
    for p in points:
        if not ordered:
            out[f"p{p}"] = 0.0
            continue
        rank = max(1, -(-p * len(ordered) // 100))  # ceil without math
        out[f"p{p}"] = round(ordered[rank - 1], 6)
    dist = stats(ordered)
    out["mean"] = round(dist["mean"], 6)
    out["stddev"] = round(dist["stddev"], 6)
    out["n"] = dist["n"]
    out["max"] = round(dist["max"], 6) if ordered else 0.0
    return out


def metric(
    value: float,
    stddev: float = 0.0,
    n: int = 1,
    better: str = BETTER_HIGHER,
    kind: str = KIND_WALL,
) -> Dict[str, Any]:
    """One comparable metric entry for a history record."""
    if better not in (BETTER_HIGHER, BETTER_LOWER):
        raise ValueError(f"metric better={better!r}")
    if kind not in (KIND_WALL, KIND_MODEL):
        raise ValueError(f"metric kind={kind!r}")
    return {
        "value": float(value),
        "stddev": float(stddev),
        "n": int(n),
        "better": better,
        "kind": kind,
    }


def new_run_id(benchmark: str, timestamp: Optional[float] = None) -> str:
    """Unique, sortable-by-time run identifier."""
    ts = time.time() if timestamp is None else timestamp
    return f"{benchmark}-{int(ts)}-{uuid.uuid4().hex[:8]}"


def make_record(
    benchmark: str,
    config: Dict[str, Any],
    metrics: Dict[str, Dict[str, Any]],
    run_id: Optional[str] = None,
    timestamp: Optional[float] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one history record.

    ``config`` is the *comparability key*: two records diff only when
    their benchmark and config match exactly (same apps, same grid,
    same request mix...), so numbers from different sweeps are never
    compared against each other.
    """
    ts = time.time() if timestamp is None else timestamp
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "run_id": run_id or new_run_id(benchmark, ts),
        "timestamp": ts,
        "meta": meta if meta is not None else meta_block(),
        "config": config,
        "metrics": metrics,
    }
