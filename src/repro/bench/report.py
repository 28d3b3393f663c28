"""Machine-readable evaluation report (JSON).

``python -m repro.bench json`` emits every experiment as one JSON
document, for plotting or regression tracking across versions of this
repository.  Every section is a deterministic figure: rerunning the
report reproduces it exactly.  Per-pass pipeline timings and compile
cache counters of one traced cell are in the metrics JSON of
``python -m repro.bench trace``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.bench import figures

#: App whose full per-build kernel profiles the report embeds.
REFERENCE_APP = "testsnap"


def collect_report(apps=None, jobs: Optional[int] = None) -> Dict[str, Any]:
    """Run every experiment and collect the results."""
    from repro.bench.harness import run_build_matrix

    fig11_rows = figures.fig11_resources(apps, jobs=jobs)
    oversub = figures.oversubscription_effect()
    # Full per-build kernel profiles for one reference app, through the
    # canonical KernelProfile serialization (cheap: every cell is a
    # compile-cache hit after fig11 ran the matrix above).
    reference = run_build_matrix(REFERENCE_APP, jobs=jobs)
    kernel_profiles = {
        build: json.loads(result.profile.to_json())
        for build, result in reference.results.items()
    }
    return {
        "kernel_profiles": {REFERENCE_APP: kernel_profiles},
        "fig10_relative_performance": figures.fig10_relative_performance(jobs=jobs),
        "fig11_resources": [asdict(row) for row in fig11_rows],
        "fig12_gridmini_gflops": figures.fig12_gridmini_gflops(jobs=jobs),
        "fig13_ablation_cycles": figures.fig13_ablation(jobs=jobs),
        "oversubscription": {
            "app": oversub.app,
            "cycles_without": oversub.cycles_without,
            "cycles_with": oversub.cycles_with,
            "registers_without": oversub.registers_without,
            "registers_with": oversub.registers_with,
            "register_delta": oversub.register_delta,
            "time_delta_percent": oversub.time_delta_percent,
        },
    }


def render_json(apps=None, indent: int = 2, jobs: Optional[int] = None) -> str:
    return json.dumps(collect_report(apps, jobs=jobs), indent=indent, sort_keys=True)
