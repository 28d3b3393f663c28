"""Figure/table generators — one per evaluation artifact (paper §V).

Each ``fig*`` function runs the required configurations and returns the
rows/series the paper reports; ``format_*`` helpers render them as
text tables for the CLI.  The matrix generators accept a ``jobs``
count that fans independent cells out over the harness's process pool
(:func:`repro.bench.harness.map_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.common import AppRunResult, run_app
from repro.bench.builds import (
    BUILD_ORDER,
    NEW_RT,
    NEW_RT_NO_ASSUME,
    OLD_RT_NIGHTLY,
    ablation_configs,
    build_options,
)
from repro.bench.harness import APPS, map_cells, run_build_matrix
from repro.frontend.driver import CompileOptions, Target

# ------------------------------------------------------------------- Fig. 10 --

FIG10_APPS = ["xsbench", "rsbench", "testsnap", "minifmm"]


def fig10_relative_performance(
    apps: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 10: per-app performance relative to Old RT (higher=faster)."""
    out: Dict[str, Dict[str, float]] = {}
    for app in apps or FIG10_APPS:
        matrix = run_build_matrix(app, jobs=jobs)
        assert matrix.all_verified(), f"{app}: result verification failed"
        out[app] = matrix.speedups(OLD_RT_NIGHTLY)
    return out


def format_fig10(data: Dict[str, Dict[str, float]]) -> str:
    lines = ["Fig. 10 — performance relative to Old RT (Nightly), higher is better"]
    header = f"{'app':>10s} | " + " | ".join(f"{b:>24s}" for b in BUILD_ORDER)
    lines += [header, "-" * len(header)]
    for app, series in data.items():
        cells = [
            f"{series[b]:>24.2f}" if b in series else f"{'n/a':>24s}"
            for b in BUILD_ORDER
        ]
        lines.append(f"{app:>10s} | " + " | ".join(cells))
    return "\n".join(lines)


# ------------------------------------------------------------------- Fig. 11 --

@dataclass
class ResourceRow:
    app: str
    build: str
    kernel_cycles: int
    time_ms: float
    registers: int
    shared_memory_bytes: int


def fig11_resources(
    apps: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> List[ResourceRow]:
    """Fig. 11: kernel time, register count, and static shared memory
    for every app × build."""
    rows: List[ResourceRow] = []
    for app in apps or list(APPS):
        matrix = run_build_matrix(app, jobs=jobs)
        assert matrix.all_verified(), f"{app}: result verification failed"
        for cell in matrix.resource_table():
            rows.append(ResourceRow(
                app=cell["app"],
                build=cell["build"],
                kernel_cycles=cell["kernel_cycles"],
                time_ms=cell["time_ms"],
                registers=cell["registers"],
                shared_memory_bytes=cell["shared_memory_bytes"],
            ))
    return rows


def format_fig11(rows: List[ResourceRow]) -> str:
    lines = ["Fig. 11 — kernel time, registers and static shared memory"]
    lines.append(f"{'app':>10s} | {'build':>24s} | {'cycles':>9s} | {'# regs':>6s} | {'smem':>8s}")
    lines.append("-" * 72)
    for row in rows:
        lines.append(
            f"{row.app:>10s} | {row.build:>24s} | {row.kernel_cycles:>9d} | "
            f"{row.registers:>6d} | {row.shared_memory_bytes:>7d}B"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------- Fig. 12 --

def fig12_gridmini_gflops(jobs: Optional[int] = None) -> Dict[str, float]:
    """Fig. 12: GridMini floating-point throughput per build."""
    matrix = run_build_matrix("gridmini", jobs=jobs)
    assert matrix.all_verified()
    return {cell["build"]: cell["gflops"] for cell in matrix.resource_table()}


def format_fig12(data: Dict[str, float]) -> str:
    lines = ["Fig. 12 — GridMini GFlops (higher is better)"]
    for build in BUILD_ORDER:
        if build in data:
            lines.append(f"  {build:>24s}: {data[build]:6.2f} GFlops")
    return "\n".join(lines)


# ------------------------------------------------------------------- Fig. 13 --

FIG13_APPS = ["gridmini", "xsbench", "minifmm"]


def fig13_ablation(
    apps: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, int]]:
    """Fig. 13 / §V-C: kernel cycles with one optimization disabled at a
    time (New RT w/o user assumptions as the base configuration)."""
    out: Dict[str, Dict[str, int]] = {}
    for app in apps or FIG13_APPS:
        tasks = [
            (app, label, CompileOptions(Target.OPENMP_NEW, pipeline=pipeline), {})
            for label, pipeline in ablation_configs().items()
        ]
        per_app: Dict[str, int] = {}
        for label, result in map_cells(tasks, jobs=jobs):
            assert result.verified, f"{app} under '{label}' failed verification"
            per_app[label] = result.profile.cycles
        out[app] = per_app
    return out


def format_fig13(data: Dict[str, Dict[str, int]]) -> str:
    lines = ["Fig. 13 — ablation: slowdown vs the full pipeline (1.00 = no effect)"]
    for app, series in data.items():
        full = series["full"]
        lines.append(f"  {app}:")
        for label, cycles in series.items():
            lines.append(f"    {label:>28s}: {cycles:>8d} cycles ({cycles / full:5.2f}x)")
    return "\n".join(lines)


# ------------------------------------------------- §V-B over-subscription ------

@dataclass
class OversubscriptionEffect:
    app: str
    cycles_without: int
    cycles_with: int
    registers_without: int
    registers_with: int

    @property
    def time_delta_percent(self) -> float:
        return 100.0 * (self.cycles_with - self.cycles_without) / self.cycles_without

    @property
    def register_delta(self) -> int:
        return self.registers_with - self.registers_without


def oversubscription_effect(app: str = "xsbench") -> OversubscriptionEffect:
    """§V-B: effect of the loop over-subscription assumptions."""
    options = build_options()
    without = run_app(APPS[app], options[NEW_RT_NO_ASSUME])
    with_ = run_app(APPS[app], options[NEW_RT])
    assert without.verified and with_.verified
    return OversubscriptionEffect(
        app=app,
        cycles_without=without.profile.cycles,
        cycles_with=with_.profile.cycles,
        registers_without=without.profile.registers,
        registers_with=with_.profile.registers,
    )


def format_oversubscription(effect: OversubscriptionEffect) -> str:
    return (
        f"§V-B over-subscription assumptions on {effect.app}: "
        f"registers {effect.registers_without} -> {effect.registers_with} "
        f"({effect.register_delta:+d}), kernel time "
        f"{effect.time_delta_percent:+.1f}%"
    )


# ------------------------------------------------------ §III-G debug overhead --

def debug_overhead(app: str = "xsbench") -> Tuple[AppRunResult, AppRunResult]:
    """Release vs debug build of the same app (§III-G): debug checks
    run, release carries zero overhead for them."""
    release = run_app(APPS[app], CompileOptions(Target.OPENMP_NEW))
    debug_opts = CompileOptions(Target.OPENMP_NEW).with_debug()
    debug = run_app(APPS[app], debug_opts, debug_checks=True, env={"DEBUG": 3})
    assert release.verified and debug.verified
    return release, debug
