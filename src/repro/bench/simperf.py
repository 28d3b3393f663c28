"""Simulator-performance benchmark (``python -m repro.bench simperf``).

This tracks the *interpreter's* throughput — wall-clock instructions
per second and simulated cycles per second — not the modeled kernel
time.  Simulated results (cycles, instruction counts, profiles) are
engine-independent by construction; this benchmark measures how fast
the simulation itself runs, which is what bounds the size of the
problems the reproduction can afford to sweep.

Each cell of the app × build matrix is executed under both engines
(pre-``decoded`` micro-ops and the lane-batched ``warp`` vector
engine); only the ``run()`` call is timed — compilation (shared
through the compile cache), input preparation and verification are
excluded.  The best of ``repeats`` runs is reported to suppress
scheduler noise.  ``warp_over_decoded`` is warp's instructions/sec
over decoded's per cell (above 1 = warp is faster).

Old-runtime builds are not lockstep-safe, so their warp cells actually
measure the decoded fallback; they are flagged ``warp_fallback`` and
excluded from the warp/decoded ratios and their geomean (which must
only average true warp-vectorized execution).  Only launches whose every team fell back
are flagged: a launch whose team 0 ran warp and whose other teams were
gated onto decoded for low lane occupancy counts at the speed it ran.

The JSON report written to ``BENCH_sim.json`` is deterministic in
structure (sorted keys, fixed cell order); the wall-clock numbers of
course vary by machine.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench import record
from repro.bench.builds import BUILD_ORDER, CUDA, build_options
from repro.bench.harness import APPS, SKIP_CUDA
from repro.toolchain.service import ToolchainSession
from repro.vgpu import (
    ENGINE_DECODED,
    ENGINE_WARP,
    GPUConfig,
    LaunchSpec,
    VirtualGPU,
)

#: Default output file, committed at the repo root so engine-throughput
#: regressions show up in review.
DEFAULT_OUTPUT = "BENCH_sim.json"


def measure_cell(
    app_name: str,
    options,
    engine: str,
    size: Optional[Dict[str, int]] = None,
    repeats: int = 3,
    session: Optional[ToolchainSession] = None,
) -> Dict[str, Any]:
    """Time one (app, options, engine) cell; only ``run()`` is timed."""
    app = APPS[app_name]
    session = session or ToolchainSession()
    size = size or app.default_size()
    compiled = session.compile(app.build_program(size), options)
    # One untimed warm-up launch primes every process- and module-level
    # cache (resource measurement, warp vectorization, dtype tables) so
    # all timed repeats see the same steady state regardless of how
    # many cells ran before this one — a 1-repeat --quick run and a
    # full sweep then measure the same thing.
    warm = VirtualGPU(compiled.module, config=GPUConfig(), engine=engine)
    warm_args, _ = app.prepare(warm, size)
    warm.run(LaunchSpec(
        kernel=app.KERNEL,
        num_teams=app.TEAMS,
        threads_per_team=app.THREADS,
        args=tuple(compiled.abi(app.KERNEL).marshal(warm, warm_args)),
    ))
    walls: List[float] = []
    profile = None
    for _ in range(max(1, repeats)):
        gpu = VirtualGPU(compiled.module, config=GPUConfig(), engine=engine)
        host_args, _verify = app.prepare(gpu, size)
        spec = LaunchSpec(
            kernel=app.KERNEL,
            num_teams=app.TEAMS,
            threads_per_team=app.THREADS,
            args=tuple(compiled.abi(app.KERNEL).marshal(gpu, host_args)),
        )
        t0 = time.perf_counter()
        result = gpu.run(spec)
        walls.append(max(time.perf_counter() - t0, 1e-9))
        profile = result.profile
        warp_fallback = result.executed_engine != ENGINE_WARP
    best = min(walls)
    wall_stats = record.stats(walls)
    cell = {
        "app": app_name,
        "engine": engine,
        "wall_seconds": round(best, 6),
        "wall_stats": {k: round(v, 6) for k, v in wall_stats.items()},
        "instructions": profile.instructions,
        "cycles": profile.cycles,
        "insts_per_sec": round(profile.instructions / best, 1),
        "cycles_per_sec": round(profile.cycles / best, 1),
    }
    if engine == ENGINE_WARP:
        # As the launch reports it: true for old-runtime builds, whose
        # warp launches run wholly on the decoded scalar fallback.
        cell["warp_fallback"] = warp_fallback
    return cell


def simperf_matrix(
    apps: Optional[Sequence[str]] = None,
    builds: Optional[Sequence[str]] = None,
    repeats: int = 3,
    size: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Run the app × build × engine sweep and return the report dict."""
    app_names = list(apps) if apps else sorted(APPS)
    wanted = list(builds) if builds else list(BUILD_ORDER)
    options = build_options()
    session = ToolchainSession()
    cells: List[Dict[str, Any]] = []
    warp_ratios: Dict[str, Dict[str, float]] = {}
    for app in app_names:
        app_builds = [b for b in wanted if not (app in SKIP_CUDA and b == CUDA)]
        for build in app_builds:
            pair = {}
            for engine in (ENGINE_DECODED, ENGINE_WARP):
                cell = measure_cell(
                    app, options[build], engine,
                    size=size, repeats=repeats, session=session,
                )
                cell["build"] = build
                cells.append(cell)
                pair[engine] = cell
            if not pair[ENGINE_WARP]["warp_fallback"]:
                warp_ratios.setdefault(app, {})[build] = round(
                    pair[ENGINE_WARP]["insts_per_sec"]
                    / pair[ENGINE_DECODED]["insts_per_sec"], 3
                )
    ratios = [r for per_build in warp_ratios.values() for r in per_build.values()]
    geomean = (round(math.exp(sum(map(math.log, ratios)) / len(ratios)), 3)
               if ratios else 0.0)

    meta = record.meta_block()
    return {
        "benchmark": "simperf",
        "schema_version": record.SCHEMA_VERSION,
        "meta": meta,
        "config": {
            "apps": app_names,
            "builds": wanted,
            "repeats": repeats,
            "python": meta["python"],
            "machine": meta["machine"],
        },
        "cells": cells,
        "warp_over_decoded": warp_ratios,
        "geomean_warp_over_decoded": geomean,
    }


def render_json(report: Dict[str, Any], indent: int = 2) -> str:
    return json.dumps(report, indent=indent, sort_keys=True)


def write_report(report: Dict[str, Any], path: str = DEFAULT_OUTPUT) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(report) + "\n")
    return path


def format_simperf(report: Dict[str, Any]) -> str:
    """Human-readable table of the simperf report."""
    lines = [
        "Simulator throughput (interpreter wall-clock, best of "
        f"{report['config']['repeats']})",
        f"{'app':<10} {'build':<26} {'engine':<8} "
        f"{'Minsts/s':>9} {'Mcycles/s':>10} {'wall s':>8}",
    ]
    for cell in report["cells"]:
        note = "  (decoded fallback)" if cell.get("warp_fallback") else ""
        lines.append(
            f"{cell['app']:<10} {cell['build']:<26} {cell['engine']:<8} "
            f"{cell['insts_per_sec'] / 1e6:>9.2f} "
            f"{cell['cycles_per_sec'] / 1e6:>10.2f} "
            f"{cell['wall_seconds']:>8.3f}{note}"
        )
    warp = report["warp_over_decoded"]
    if warp:
        lines.append("")
        lines.append("warp/decoded (instructions/sec; "
                     "fallback cells excluded):")
        for app, per_build in warp.items():
            for build, ratio in per_build.items():
                lines.append(f"  {app:<10} {build:<26} {ratio:.2f}x")
        lines.append(f"  geomean: {report['geomean_warp_over_decoded']:.2f}x")
    return "\n".join(lines)
