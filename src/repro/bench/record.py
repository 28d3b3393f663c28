"""Shared benchmark-report envelope (``bench micro`` / ``chaos``).

Every tracked ``BENCH_*.json`` report carries the same envelope: a
``schema_version`` stamp and a ``meta`` block identifying the machine
and Python that produced the numbers.  Latency distributions are
summarized with :func:`percentiles`.
"""

from __future__ import annotations

import platform
from typing import Any, Dict, Sequence

#: Version of the shared report envelope.  v1 was the ad-hoc per-bench
#: JSON without a meta block; v2 adds the envelope defined in this
#: module.
SCHEMA_VERSION = 2


def meta_block() -> Dict[str, Any]:
    """The machine/python identity block shared by every report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "platform": platform.system(),
    }


def percentiles(values: Sequence[float],
                points: Sequence[int] = (50, 95, 99)) -> Dict[str, float]:
    """Nearest-rank percentiles, count and max of *values*, rounded
    for the report."""
    out: Dict[str, float] = {}
    ordered = sorted(values)
    for p in points:
        if not ordered:
            out[f"p{p}"] = 0.0
            continue
        rank = max(1, -(-p * len(ordered) // 100))  # ceil without math
        out[f"p{p}"] = round(ordered[rank - 1], 6)
    out["n"] = len(ordered)
    out["max"] = round(ordered[-1], 6) if ordered else 0.0
    return out
