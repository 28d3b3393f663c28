"""Benchmark harness: runs apps across the build matrix and collects
profiles for the figure generators.

Each cell is one :func:`repro.apps.common.run_app` call.
:func:`map_cells` runs a list of cells, fanning them out over a
process-based :mod:`concurrent.futures` pool when more than one worker
is in effect; :func:`run_build_matrix` runs one app across named build
configurations through it.  The worker count comes from (most specific
wins) ``jobs=`` / ``--jobs`` on the CLI / the ``REPRO_JOBS`` environment
variable, and defaults to 1 — the serial path stays byte-for-byte
deterministic for the tests that rely on it.  Every cell compiles
through one session's cache: in-process cells through the session
itself, pool workers through a copy of it that shares the cache's
on-disk store (see ``CompileCache`` pickling).
"""

from __future__ import annotations

import concurrent.futures
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import envconfig
from repro.apps import gridmini, minifmm, rsbench, testsnap, xsbench
from repro.apps.common import AppRunResult, run_app
from repro.bench.builds import BUILD_ORDER, CUDA, OLD_RT_NIGHTLY, build_options
from repro.frontend.driver import CompileOptions
from repro.toolchain.fingerprint import deep_recursion
from repro.toolchain.service import ToolchainSession

#: App registry: name -> module with the common app surface.
APPS = {
    "xsbench": xsbench,
    "rsbench": rsbench,
    "gridmini": gridmini,
    "testsnap": testsnap,
    "minifmm": minifmm,
}

#: The paper could not establish a one-to-one CUDA kernel mapping for
#: TestSNAP (Kokkos), so its CUDA column is omitted from figures.
SKIP_CUDA = {"testsnap"}


@dataclass
class MatrixResult:
    """All build results for one application.

    Downstream consumers (figures, reports) go through the stable
    accessor surface — ``speedups()``, ``resource_table()``,
    ``to_json()`` — instead of reaching into per-build profiles.
    """

    app: str
    results: Dict[str, AppRunResult] = field(default_factory=dict)

    def cycles(self, build: str) -> int:
        return self.results[build].profile.cycles

    def speedups(self, baseline: str = OLD_RT_NIGHTLY) -> Dict[str, float]:
        """Speedup of each build relative to *baseline* (higher=faster),
        the normalization of the paper's Fig. 10."""
        base = self.cycles(baseline)
        return {build: base / self.cycles(build) for build in self.results}

    def resource_table(self) -> List[Dict[str, Any]]:
        """Fig.-11-style rows: one dict per build with the static and
        dynamic resource measurements.

        Rows are projected from :meth:`KernelProfile.to_dict` so the
        report, the figures and the trace metrics all read the same
        serialization.
        """
        rows: List[Dict[str, Any]] = []
        for build, result in self.results.items():
            p = result.profile.to_dict()
            rows.append({
                "app": self.app,
                "build": build,
                "kernel_cycles": p["cycles"],
                "time_ms": p["time_ms"],
                "registers": p["registers"],
                "shared_memory_bytes": p["shared_memory_bytes"],
                "barriers": p["barriers"],
                "gflops": p["gflops"],
                "verified": result.verified,
            })
        return rows

    def to_json(self, indent: Optional[int] = None) -> str:
        """Machine-readable summary of the whole matrix."""
        return json.dumps(
            {
                "app": self.app,
                "builds": list(self.results),
                "rows": self.resource_table(),
                "profiles": {
                    build: result.profile.to_dict()
                    for build, result in self.results.items()
                },
            },
            indent=indent,
            sort_keys=True,
        )

    def all_verified(self) -> bool:
        return all(r.verified for r in self.results.values())


def resolve_jobs(jobs: Optional[int] = None, cells: Optional[int] = None) -> int:
    """Effective worker count: explicit *jobs*, else ``REPRO_JOBS``,
    else 1 (serial); never more than the number of *cells*."""
    if jobs is None:
        jobs = envconfig.jobs()
    jobs = max(1, jobs)
    if cells is not None:
        jobs = min(jobs, max(1, cells))
    return jobs


#: One cell of :func:`map_cells`: (app name, label, options, run_app kwargs).
Cell = Tuple[str, str, CompileOptions, Dict[str, Any]]


def _run_cell(app_name: str, label: str, options: CompileOptions,
              kwargs: Dict[str, Any],
              session: ToolchainSession) -> Tuple[str, AppRunResult]:
    """Run one (app, build) cell, compiling through *session*; executes
    in pool workers, so it must stay a module-level, picklable function."""
    # The result embeds the compiled module — a deep object graph whose
    # pickling back to the parent overflows the default recursion limit.
    if sys.getrecursionlimit() < 100_000:
        sys.setrecursionlimit(100_000)
    return label, run_app(APPS[app_name], options, session=session, **kwargs)


def map_cells(tasks: Sequence[Cell], *, jobs: Optional[int] = None,
              session: Optional[ToolchainSession] = None,
              ) -> List[Tuple[str, AppRunResult]]:
    """Run ``(app, label, options, kwargs)`` cells through *session*
    (default: a session over the process-wide compile cache), fanning
    out over a process pool when more than one worker is in effect.

    Results come back in task order regardless of worker count, so
    parallel and serial execution build identical matrices.
    """
    session = session or ToolchainSession()
    jobs = resolve_jobs(jobs, len(tasks))
    if jobs <= 1:
        return [_run_cell(*task, session) for task in tasks]
    with deep_recursion():
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_cell, *task, session) for task in tasks]
            return [f.result() for f in futures]


def run_build_matrix(
    app: str,
    builds: Optional[Sequence[str]] = None,
    *,
    size: Optional[Dict[str, int]] = None,
    jobs: Optional[int] = None,
    session: Optional[ToolchainSession] = None,
    **run_kwargs: Any,
) -> MatrixResult:
    """Run the app named *app* under each named build configuration
    (None = the paper's full matrix, without CUDA for :data:`SKIP_CUDA`
    apps); *run_kwargs* go to every :func:`~repro.apps.common.run_app`.

    With ``jobs > 1`` (or ``REPRO_JOBS``) the independent cells fan out
    over a process pool; the result is identical to the serial run.
    """
    if app not in APPS:
        raise KeyError(f"unknown app {app!r}; pick one of {list(APPS)}")
    options = build_options()
    wanted = list(builds) if builds is not None else list(BUILD_ORDER)
    if app in SKIP_CUDA:
        wanted = [b for b in wanted if b != CUDA]
    if size is not None:
        run_kwargs["size"] = size
    tasks = [(app, build, options[build], run_kwargs) for build in wanted]
    out = MatrixResult(app=app)
    out.results.update(map_cells(tasks, jobs=jobs, session=session))
    return out
