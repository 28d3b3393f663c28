"""Directive-level microbenchmarks (``python -m repro.bench micro``).

Each microbenchmark is a tiny parameterized kernel that isolates one
OpenMP construct, in the style of the EPCC/OpenMP-Microbench overhead
suites: a *workload* launch exercises the construct ``W`` extra times
and a *reference* launch of the same kernel does not, so the
:class:`~repro.trace.snapshot.OverheadSnapshot` delta cancels every
shared cost (launch bracket, argument loads, worksharing setup) and
leaves the modeled cycles of the construct alone.  The two
launch-bracket constructs (``target_init``, ``parallel_region``) are
read raw from an empty kernel — there the bracket *is* the construct.

The sweep runs teams × threads × workload × runtime × engine.  Runtimes
are compiled at ``-O0`` so the categorized runtime calls stay outlined
and countable (``oldrt`` / ``newrt``); the optional ``newrt-opt``
configuration compiles the co-designed runtime through the full
optimization pipeline, which folds most categorized calls away — the
measured face of the paper's near-zero-overhead claim, visible here as
counters collapsing toward zero.  Modeled cycles are engine-independent
by construction; both engines (``decoded`` and ``warp``; old-runtime
warp launches run on the decoded fallback) are measured and the report
carries a ``parity_ok`` bit asserting their snapshots agreed.

Per-(construct, runtime) costs are summarized as cycles-per-call and
fitted to the simple Extra-P-style scaling model ``cost = a + b·teams
+ c·threads`` (least squares over the decoded-engine grid points; the
``r2`` says how well that model explains the sweep).  The JSON report
is written to the tracked ``BENCH_micro.json``, and tier-1 pins it
exactly: ``tests/bench/test_micro.py`` reruns the full sweep and
requires its cells, construct summaries and config to equal the file.
A change that moves a modeled number regenerates the file with
``python -m repro.bench micro`` and explains the move in CHANGES.md.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions, Target
from repro.ir.types import F64, I32, I64, PTR
from repro.passes.pass_manager import PipelineConfig
from repro.toolchain.service import ToolchainSession
from repro.trace.collector import TraceCollector, TraceConfig
from repro.trace.snapshot import OverheadSnapshot
from repro.vgpu import (
    ENGINE_DECODED,
    ENGINE_WARP,
    GPUConfig,
    LaunchSpec,
    VirtualGPU,
)

#: Default output file, committed at the repo root.
DEFAULT_OUTPUT = "BENCH_micro.json"

#: Version of the report envelope; v2 carries :func:`meta_block`.
SCHEMA_VERSION = 2

#: Runtime configurations of the sweep.  ``oldrt``/``newrt`` compile at
#: -O0 so runtime calls stay outlined; ``newrt-opt`` is the fully
#: optimized co-designed build (near-zero counters).
RUNTIME_ORDER = ("oldrt", "newrt", "newrt-opt")

#: Constructs measured, in report order, with the §III overhead
#: category whose cycles each one isolates.
CONSTRUCT_CATEGORY = {
    "target_init": "target_init",
    "parallel_region": "parallel_region",
    "worksharing": "worksharing",
    "barrier": "sync",
    "icv_query": "icv_query",
    "shared_stack": "shared_stack",
    "global_fallback": "shared_stack",
}
CONSTRUCT_ORDER = tuple(CONSTRUCT_CATEGORY)

#: Full-sweep grid (teams, threads) and workload axis; ``--smoke``
#: keeps one point of each.
FULL_GRID: Tuple[Tuple[int, int], ...] = (
    (1, 4), (2, 4), (4, 4), (1, 16), (2, 16), (4, 16),
)
FULL_WORKLOADS = (1, 4)
#: The smoke sweep is a quick look (one grid point and workload, -O0
#: runtimes only); it gates only on engine parity.
SMOKE_GRID: Tuple[Tuple[int, int], ...] = ((2, 4),)
SMOKE_WORKLOADS = (4,)


def runtime_options(runtime: str) -> CompileOptions:
    """Fresh CompileOptions for one runtime configuration."""
    if runtime == "oldrt":
        return CompileOptions(Target.OPENMP_OLD, pipeline=PipelineConfig.o0())
    if runtime == "newrt":
        return CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig.o0())
    if runtime == "newrt-opt":
        return CompileOptions(Target.OPENMP_NEW)
    raise KeyError(f"unknown runtime {runtime!r}; pick one of {RUNTIME_ORDER}")


# ------------------------------------------------------------------ kernels --


def _localbuf_kernel(k: int) -> A.KernelDef:
    """``localbuf<k>``: k address-taken local arrays per iteration.

    Address-taken locals are globalized through the shared stack
    (§III-D/§IV-A2), so each one costs a push at the declaration and a
    pop at function return; ``k=0`` is the differential reference.
    Arrays are a single f64 so even ``k = max workload`` fits the
    per-thread stack slice — overflow is exercised deliberately, via
    the ``shared_stack_exhaust`` fault, not accidentally.
    """
    iv = A.Var("iv")
    body: List[A.Stmt] = []
    for i in range(k):
        body.append(A.DeclLocalArray(f"buf{i}", F64, 1))
        body.append(A.StoreIdx(A.LocalRef(f"buf{i}"), 0, A.Const(float(i + 1), F64)))
    if k:
        body.append(A.StoreIdx(A.Arg("out"), iv, A.Index(A.LocalRef("buf0"), 0)))
    else:
        body.append(A.StoreIdx(A.Arg("out"), iv, A.Const(0.0, F64)))
    return A.KernelDef(
        f"localbuf{k}",
        params=[A.Param("n", I64), A.Param("out", PTR)],
        trip_count=A.Arg("n"),
        body=body,
    )


def build_micro_program(workloads: Sequence[int]) -> A.Program:
    """The microbenchmark translation unit.

    One kernel per construct family; workload is a launch argument
    (``reps`` / trip count) everywhere except ``localbuf``, whose
    allocation count is structural and therefore compiled per value.
    """
    iv = A.Var("iv")
    empty = A.KernelDef(
        "empty",
        params=[A.Param("n", I64)],
        trip_count=A.Arg("n"),
        body=[],
    )
    wsloop = A.KernelDef(
        "wsloop",
        params=[A.Param("n", I64), A.Param("out", PTR)],
        trip_count=A.Arg("n"),
        body=[A.StoreIdx(A.Arg("out"), iv, A.CastTo(iv, F64))],
    )
    barriers = A.KernelDef(
        "barriers",
        params=[A.Param("n", I64), A.Param("reps", I64)],
        trip_count=A.Arg("n"),
        # Uniform trip (= total threads) keeps every barrier aligned
        # with all threads of the team arriving.
        body=[A.ForRange("r", 0, A.Arg("reps"), [A.BarrierStmt()])],
    )
    icvs = A.KernelDef(
        "icvs",
        params=[A.Param("n", I64), A.Param("reps", I64), A.Param("out", PTR)],
        trip_count=A.Arg("n"),
        body=[
            A.Let("acc", A.Const(0, I32), I32),
            A.ForRange("r", 0, A.Arg("reps"), [
                A.Assign(
                    "acc",
                    A.Var("acc") + A.OmpCall("thread_num")
                    + A.OmpCall("num_threads") + A.OmpCall("team_num"),
                ),
            ]),
            A.StoreIdx(A.Arg("out"), iv, A.CastTo(A.Var("acc"), I64), I64),
        ],
    )
    localbufs = [_localbuf_kernel(0)]
    for k in sorted(set(workloads)):
        if k > 0:
            localbufs.append(_localbuf_kernel(k))
    return A.Program(
        "microbench",
        kernels=[empty, wsloop, barriers, icvs, *localbufs],
    )


# ------------------------------------------------------------- measurement --


def _snapshot_launch(
    compiled,
    kernel: str,
    host_args: Dict[str, Any],
    teams: int,
    threads: int,
    engine: str,
    faults: Optional[str] = None,
) -> OverheadSnapshot:
    """Run one traced launch on a fresh device and snapshot it.

    A fresh :class:`VirtualGPU` per launch keeps device state (shared
    stack, heap) independent between the workload and reference runs;
    the collector is attached directly to the device (no global
    install), which is all per-function cycle attribution needs.
    """
    collector = TraceCollector(TraceConfig(labels={"bench": "micro"}))
    gpu = VirtualGPU(
        compiled.module, config=GPUConfig(), engine=engine, trace=collector,
    )
    import numpy as np

    marshalled = dict(host_args)
    if "out" in marshalled and marshalled["out"] is None:
        size = max(int(marshalled.get("_out_len", teams * threads)), 1)
        marshalled["out"] = gpu.alloc_array(np.zeros(size))
    marshalled.pop("_out_len", None)
    spec = LaunchSpec(
        kernel=kernel,
        num_teams=teams,
        threads_per_team=threads,
        args=tuple(compiled.abi(kernel).marshal(gpu, marshalled)),
        faults=faults,
    )
    return OverheadSnapshot.from_profile(gpu.run(spec).profile)


def _cell(
    construct: str,
    runtime: str,
    engine: str,
    teams: int,
    threads: int,
    workload: int,
    snap: OverheadSnapshot,
    denominator: Optional[int] = None,
) -> Dict[str, Any]:
    """One report cell from a (differential) snapshot."""
    category = CONSTRUCT_CATEGORY[construct]
    calls = snap.runtime_calls.get(category, 0)
    cycles = snap.category_cycles.get(category, 0)
    denom = calls if denominator is None else denominator
    per_call = round(cycles / denom, 3) if denom > 0 and cycles > 0 else None
    return {
        "construct": construct,
        "category": category,
        "runtime": runtime,
        "engine": engine,
        "teams": teams,
        "threads": threads,
        "workload": workload,
        "calls": calls,
        "cycles": cycles,
        "cycles_per_call": per_call,
        "barriers_aligned": snap.barriers_aligned,
        "barriers_unaligned": snap.barriers_unaligned,
        "global_fallbacks": snap.device_mallocs,
    }


def measure_config(
    compiled,
    runtime: str,
    engine: str,
    teams: int,
    threads: int,
    workload: int,
) -> List[Dict[str, Any]]:
    """All construct cells for one (runtime, engine, teams, threads, W).

    Nine launches: one raw empty kernel (launch-bracket constructs),
    three workload/reference pairs sharing kernels, the localbuf pair,
    and one fault-pinned localbuf run isolating the global fallback.
    """
    n = teams * threads
    w = max(1, workload)

    def snap(kernel, host_args, faults=None):
        return _snapshot_launch(
            compiled, kernel, host_args, teams, threads, engine, faults=faults,
        )

    s_empty = snap("empty", {"n": n})
    s_ws_lo = snap("wsloop", {"n": n, "out": None, "_out_len": n * (1 + w)})
    s_ws_hi = snap("wsloop", {"n": n * (1 + w), "out": None, "_out_len": n * (1 + w)})
    s_bar_lo = snap("barriers", {"n": n, "reps": 0})
    s_bar_hi = snap("barriers", {"n": n, "reps": w})
    s_icv_lo = snap("icvs", {"n": n, "reps": 0, "out": None})
    s_icv_hi = snap("icvs", {"n": n, "reps": w, "out": None})
    s_lb_lo = snap("localbuf0", {"n": n, "out": None})
    s_lb_hi = snap(f"localbuf{w}", {"n": n, "out": None})
    s_fb = snap(f"localbuf{w}", {"n": n, "out": None}, faults="shared_stack_exhaust")
    d_fb = s_fb.delta(s_lb_hi)

    args = (runtime, engine, teams, threads, workload)
    return [
        _cell("target_init", *args, snap=s_empty),
        _cell("parallel_region", *args, snap=s_empty),
        # The no-chunk loop runs *inside* one categorized call per
        # thread (Fig. 5), so the per-unit denominator is the extra
        # iterations dispatched, not the (unchanged) call count.
        _cell("worksharing", *args, snap=s_ws_hi.delta(s_ws_lo), denominator=n * w),
        _cell("barrier", *args, snap=s_bar_hi.delta(s_bar_lo)),
        _cell("icv_query", *args, snap=s_icv_hi.delta(s_icv_lo)),
        _cell("shared_stack", *args, snap=s_lb_hi.delta(s_lb_lo)),
        _cell(
            "global_fallback", *args, snap=d_fb,
            denominator=d_fb.device_mallocs,
        ),
    ]


# ------------------------------------------------------------ fits & sweep --


def fit_scaling(points: Sequence[Tuple[int, int, float]]) -> Optional[Dict[str, float]]:
    """Least-squares ``cost = a + b·teams + c·threads`` (Extra-P style).

    *points* are ``(teams, threads, cost)``; None when the sweep has
    fewer than three distinct grid points (a plane needs three).
    """
    if len({(t, th) for t, th, _ in points}) < 3:
        return None
    import numpy as np

    design = np.array([[1.0, t, th] for t, th, _ in points])
    y = np.array([cost for _, _, cost in points])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    # A constant sweep leaves both sums at float-noise scale; that is a
    # perfect fit, not a divide-by-almost-zero.
    if ss_tot <= 1e-12 * max(1.0, float((y ** 2).sum())):
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return {
        "a": round(float(coef[0]), 3),
        "b": round(float(coef[1]), 3),
        "c": round(float(coef[2]), 3),
        "r2": round(r2, 4),
    }


def _parity_key(cell: Dict[str, Any]) -> Tuple:
    return (
        cell["construct"], cell["runtime"], cell["teams"], cell["threads"],
        cell["workload"],
    )


def _modeled_fields(cell: Dict[str, Any]) -> Tuple:
    return (
        cell["calls"], cell["cycles"], cell["cycles_per_call"],
        cell["barriers_aligned"], cell["barriers_unaligned"],
        cell["global_fallbacks"],
    )


def micro_matrix(
    grid: Optional[Sequence[Tuple[int, int]]] = None,
    workloads: Optional[Sequence[int]] = None,
    runtimes: Optional[Sequence[str]] = None,
    engines: Optional[Sequence[str]] = None,
    smoke: bool = False,
) -> Dict[str, Any]:
    """Run the construct × runtime × engine × grid × workload sweep."""
    grid = list(grid if grid is not None else (SMOKE_GRID if smoke else FULL_GRID))
    workloads = list(
        workloads if workloads is not None
        else (SMOKE_WORKLOADS if smoke else FULL_WORKLOADS)
    )
    runtimes = list(
        runtimes if runtimes is not None
        else (("oldrt", "newrt") if smoke else RUNTIME_ORDER)
    )
    engines = list(engines if engines is not None else (ENGINE_DECODED, ENGINE_WARP))
    program = build_micro_program(workloads)
    session = ToolchainSession()
    t0 = time.perf_counter()
    cells: List[Dict[str, Any]] = []
    for runtime in runtimes:
        compiled = session.compile(program, runtime_options(runtime))
        for engine in engines:
            for teams, threads in grid:
                for w in workloads:
                    cells.extend(
                        measure_config(compiled, runtime, engine, teams, threads, w)
                    )

    # Engine parity: modeled numbers must be bit-identical across engines.
    by_key: Dict[Tuple, Dict[str, Tuple]] = {}
    for cell in cells:
        by_key.setdefault(_parity_key(cell), {})[cell["engine"]] = _modeled_fields(cell)
    parity_ok = all(
        len(set(per_engine.values())) == 1 for per_engine in by_key.values()
    )

    # Per-(construct, runtime) summary + scaling fit over the decoded
    # (or only) engine's grid points.
    summary_engine = ENGINE_DECODED if ENGINE_DECODED in engines else engines[0]
    constructs: Dict[str, Dict[str, Any]] = {}
    for construct in CONSTRUCT_ORDER:
        constructs[construct] = {"category": CONSTRUCT_CATEGORY[construct]}
        for runtime in runtimes:
            sample = [
                c for c in cells
                if c["construct"] == construct and c["runtime"] == runtime
                and c["engine"] == summary_engine
                and c["cycles_per_call"] is not None
            ]
            costs = [c["cycles_per_call"] for c in sample]
            entry: Dict[str, Any] = {
                "cycles_per_call": (
                    round(sum(costs) / len(costs), 3) if costs else None
                ),
                "min": min(costs) if costs else None,
                "max": max(costs) if costs else None,
                "cells": len(sample),
                "fit": fit_scaling(
                    [(c["teams"], c["threads"], c["cycles_per_call"]) for c in sample]
                ),
            }
            constructs[construct][runtime] = entry

    return {
        "benchmark": "micro",
        "meta": meta_block(),
        "config": {
            "grid": [list(point) for point in grid],
            "workloads": workloads,
            "runtimes": runtimes,
            "engines": engines,
            "smoke": smoke,
        },
        "wall_seconds": round(time.perf_counter() - t0, 3),
        "parity_ok": parity_ok,
        "cells": cells,
        "constructs": constructs,
    }


# ----------------------------------------------------------------- reports --


def meta_block() -> Dict[str, Any]:
    """The machine/python identity block of the report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "platform": platform.system(),
    }


def render_json(report: Dict[str, Any], indent: int = 2) -> str:
    return json.dumps(report, indent=indent, sort_keys=True)


def write_report(report: Dict[str, Any], path: str = DEFAULT_OUTPUT) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(report) + "\n")
    return path


def format_micro(report: Dict[str, Any]) -> str:
    """Human-readable per-construct cost table."""
    runtimes = report["config"]["runtimes"]
    grid = report["config"]["grid"]
    lines = [
        "Per-construct modeled overhead (cycles/call, decoded engine, "
        f"{len(grid)} grid point{'s' if len(grid) != 1 else ''})",
        f"{'construct':<16} {'category':<16} "
        + " ".join(f"{rt:>12}" for rt in runtimes),
    ]
    for construct in CONSTRUCT_ORDER:
        entry = report["constructs"][construct]
        row = f"{construct:<16} {entry['category']:<16} "
        vals = []
        for rt in runtimes:
            cost = entry[rt]["cycles_per_call"]
            vals.append(f"{cost:>12.1f}" if cost is not None else f"{'-':>12}")
        lines.append(row + " ".join(vals))
    lines.append("")
    for construct in CONSTRUCT_ORDER:
        entry = report["constructs"][construct]
        for rt in runtimes:
            fit = entry[rt]["fit"]
            if fit is not None:
                lines.append(
                    f"  {construct}/{rt}: cost ~= {fit['a']:.1f} "
                    f"+ {fit['b']:.2f}*teams + {fit['c']:.2f}*threads "
                    f"(r2={fit['r2']:.3f})"
                )
    lines.append(
        f"engine parity: {'ok' if report['parity_ok'] else 'MISMATCH'}; "
        f"{len(report['cells'])} cells in {report['wall_seconds']:.1f}s"
    )
    return "\n".join(lines)
