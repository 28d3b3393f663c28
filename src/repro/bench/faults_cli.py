"""``python -m repro.bench faults`` — the fault-injection matrix.

Runs a fixed scenario matrix (testsnap under the ``-O0`` pipeline,
where every runtime call is still outlined and therefore hookable)
through :class:`repro.serve.SimulationService`, which turns program
faults into crash reports and reruns an internal engine fault once:

* a clean baseline and a ``sanitize=True`` run that must produce a
  **bit-identical** profile (the sanitizer charges no cycles);
* ``shared_stack_exhaust`` — completes, but every ``alloc_shared``
  takes the §III-D global-malloc fallback (visible as
  ``global_fallback.mallocs`` in the profile);
* crashing plans (``malloc_fail``, ``rt_trap``, ``barrier_skip`` under
  the sanitizer) that must produce structured
  :class:`~repro.faults.report.CrashReport` artifacts.

Every scenario runs in three cells: ``decoded`` (fused runs),
``per-op`` (the decoded engine executing op by op through its ``_h_*``
handlers, the private ``VirtualGPU._per_op`` switch the service's
retry uses) and ``warp``.  Warp teams with an armed fault plan or
under the sanitizer take the decoded fallback, so without the per-op
cell most rows would compare the fused decoded engine with itself.
The matrix PASSes only if profiles are bit-identical and crash reports
compare equal (``comparable_dict``) across all three cells — the
executable form of the determinism acceptance criterion.

``--smoke`` keeps the three cheapest scenarios (baseline, exhaust,
rt_trap) for ``make verify``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.apps import testsnap
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.passes.pass_manager import PipelineConfig
from repro.serve import SimulationService
from repro.vgpu import LaunchSpec, VirtualGPU
from repro.vgpu.config import ENGINE_DECODED, ENGINE_WARP

#: Fixed cell: small testsnap grid, -O0 so runtime calls stay outlined.
TEAMS = 4
THREADS = 32
SIZE = {"n_atoms": TEAMS * THREADS, "n_neighbors": 4}


@dataclass(frozen=True)
class Scenario:
    """One row of the injection matrix."""

    name: str
    faults: Optional[str]  # REPRO_FAULTS-grammar spec, or None
    sanitize: bool = False
    #: "ok" or the expected error_type of the CrashReport.
    expect: str = "ok"
    #: Required minimum of profile.device_mallocs (fallback evidence).
    min_mallocs: int = 0


SCENARIOS = (
    Scenario("baseline", None),
    Scenario("sanitize", None, sanitize=True),
    Scenario("stack-exhaust", "shared_stack_exhaust", min_mallocs=1),
    Scenario("exhaust-malloc-fail", "shared_stack_exhaust;malloc_fail:n=2",
             expect="InjectedFault"),
    Scenario("rt-trap", "rt_trap:n=5;seed=11", expect="InjectedFault"),
    Scenario("barrier-skip", "barrier_skip:n=1;seed=3", sanitize=True,
             expect="BarrierDivergence"),
)

SMOKE_NAMES = ("baseline", "stack-exhaust", "rt-trap")

#: Label of the decoded cell that runs op by op, without fused runs.
PER_OP = "per-op"
#: The cells of every row, the reference first.
CELLS = (ENGINE_DECODED, PER_OP, ENGINE_WARP)


@contextmanager
def _cell_engine(label: str) -> Iterator[str]:
    """The engine a cell requests; ``per-op`` requests ``decoded`` with
    every device running op by op while the cell runs (the service has
    one worker and serves the cell's one request before this returns)."""
    if label != PER_OP:
        yield label
        return
    old, VirtualGPU._per_op = VirtualGPU._per_op, True
    try:
        yield ENGINE_DECODED
    finally:
        VirtualGPU._per_op = old


def _compile():
    options = CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig.o0())
    return compile_program(testsnap.build_program(SIZE), options)


def _run_cell(service: SimulationService, compiled, scenario: Scenario,
              engine: str) -> Dict[str, Any]:
    """One served launch; returns the comparable facts of the outcome."""

    def make_args(gpu, _compiled):
        host_args, _ = testsnap.prepare(gpu, SIZE)
        return compiled.abi(testsnap.KERNEL).marshal(gpu, host_args)

    spec = LaunchSpec(kernel=testsnap.KERNEL, num_teams=TEAMS,
                      threads_per_team=THREADS, engine=engine,
                      faults=scenario.faults, sanitize=scenario.sanitize)
    result = service.run(spec, module=compiled.module, make_args=make_args)
    cell: Dict[str, Any] = {
        "ok": result.ok,
        "engine": result.engine,
        "retried": result.retried,
    }
    if result.ok:
        cell["profile"] = result.profile.to_dict()
        cell["device_mallocs"] = result.profile.device_mallocs
        cell["cycles"] = result.profile.cycles
    if result.report is not None:
        cell["error_type"] = result.report.error_type
        cell["report"] = result.report.comparable_dict()
        cell["report_path"] = result.report_path
    return cell


def _judge(scenario: Scenario, cells: Dict[str, Dict[str, Any]]) -> List[str]:
    """Problems with one scenario's row (empty list = PASS)."""
    problems: List[str] = []
    ref = cells[ENGINE_DECODED]
    if scenario.expect == "ok":
        for label, cell in cells.items():
            if not cell["ok"]:
                problems.append(f"{label}: unexpected "
                                f"{cell.get('error_type', 'failure')}")
        if not problems:
            if ref["device_mallocs"] < scenario.min_mallocs:
                problems.append(
                    f"expected >= {scenario.min_mallocs} global-fallback "
                    f"mallocs, saw {ref['device_mallocs']}")
            for label, cell in cells.items():
                if cell["profile"] != ref["profile"]:
                    problems.append(f"{label}: profile differs from decoded")
    else:
        for label, cell in cells.items():
            if cell["ok"]:
                problems.append(f"{label}: expected {scenario.expect}, ran clean")
            elif cell["error_type"] != scenario.expect:
                problems.append(f"{label}: expected {scenario.expect}, got "
                                f"{cell['error_type']}")
        if not problems:
            for label, cell in cells.items():
                if cell["report"] != ref["report"]:
                    problems.append(f"{label}: crash report differs from decoded")
    return problems


def run_faults(smoke: bool = False) -> Dict[str, Any]:
    """Run the matrix; returns the machine-readable report."""
    compiled = _compile()
    scenarios = [s for s in SCENARIOS if not smoke or s.name in SMOKE_NAMES]
    rows = []
    with SimulationService(save_reports=True) as service:
        for scenario in scenarios:
            cells = {}
            for label in CELLS:
                with _cell_engine(label) as engine:
                    cells[label] = _run_cell(service, compiled, scenario, engine)
            rows.append({
                "scenario": scenario.name,
                "faults": scenario.faults,
                "sanitize": scenario.sanitize,
                "expect": scenario.expect,
                "cells": cells,
                "problems": _judge(scenario, cells),
            })
    # The sanitize-clean run must be cycle-identical to the baseline.
    by_name = {r["scenario"]: r for r in rows}
    if "baseline" in by_name and "sanitize" in by_name:
        base = by_name["baseline"]["cells"][ENGINE_DECODED]
        san = by_name["sanitize"]["cells"][ENGINE_DECODED]
        if base.get("profile") != san.get("profile"):
            by_name["sanitize"]["problems"].append(
                "sanitized profile differs from baseline (overhead leak)")
    return {
        "cell": {"app": "testsnap", "pipeline": "O0",
                 "teams": TEAMS, "threads": THREADS},
        "scenarios": rows,
        "ok": all(not r["problems"] for r in rows),
    }


def format_faults(report: Dict[str, Any]) -> str:
    lines = [
        f"fault-injection matrix: testsnap -O0, "
        f"{report['cell']['teams']}x{report['cell']['threads']} "
        f"({' / '.join(CELLS)})",
    ]
    for row in report["scenarios"]:
        cells = row["cells"]
        ref = cells["decoded"]
        if ref["ok"]:
            what = (f"ok, {ref['cycles']} cycles, "
                    f"{ref['device_mallocs']} fallback mallocs")
        else:
            what = ref.get("error_type", "failed")
        status = "PASS" if not row["problems"] else "FAIL"
        spec = row["faults"] or "-"
        san = " +sanitize" if row["sanitize"] else ""
        lines.append(f"  [{status}] {row['scenario']:<20} "
                     f"{spec}{san}: {what}")
        for problem in row["problems"]:
            lines.append(f"         !! {problem}")
        for label, cell in cells.items():
            path = cell.get("report_path")
            if label == "decoded" and path:
                lines.append(f"         report -> {path}")
    lines.append("matrix OK" if report["ok"] else "matrix FAILED")
    return "\n".join(lines)


def render_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
