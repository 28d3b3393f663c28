"""Toolchain sessions: the one way to construct runs.

``ToolchainSession.run(RunRequest)`` is the single entry point the
bench harness, the figure generators and the examples all go through;
``run_build_matrix``/``run_single`` in :mod:`repro.bench.harness` are
thin wrappers over it.

Independent (app, build) cells of a request fan out over a
process-based :mod:`concurrent.futures` pool.  The worker count comes
from (most specific wins) ``RunRequest.jobs`` / ``--jobs`` on the CLI /
the ``REPRO_JOBS`` environment variable, and defaults to 1 — the
serial path stays byte-for-byte deterministic for the tests that rely
on it.  Every cell compiles through its session's cache: in-process
cells through the session itself, pool workers through a copy of it
that shares the cache's on-disk store (see ``CompileCache`` pickling).
"""

from __future__ import annotations

import concurrent.futures
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import envconfig
from repro.frontend.driver import CompileOptions
from repro.toolchain.cache import CompileCache, get_compile_cache
from repro.toolchain.fingerprint import deep_recursion
from repro.trace.collector import active_or_none as _active_trace


def resolve_jobs(jobs: Optional[int] = None, cells: Optional[int] = None) -> int:
    """Effective worker count: explicit *jobs*, else ``REPRO_JOBS``,
    else 1 (serial); never more than the number of *cells*."""
    if jobs is None:
        jobs = envconfig.jobs()
    jobs = max(1, jobs)
    if cells is not None:
        jobs = min(jobs, max(1, cells))
    return jobs


def _emit_pipeline_spans(trace, compiled, since_s: float) -> None:
    """Export, as host spans (tid 2), the per-pass timings of the
    pipeline run this compile made: only records stamped at or after
    *since_s*, when the compile started.  A cache hit ran no pipeline,
    so it exports nothing, although its program carries the timings of
    the compile that made it."""
    stats = getattr(compiled, "stats", None)
    if stats is None:
        return
    for t in stats.timings:
        started = getattr(t, "started_s", 0.0)
        if started < since_s:
            continue
        trace.span_at(
            f"pass {t.name}", "toolchain", started, t.wall_time_s,
            tid=2, phase=t.phase, changed=t.changed,
            instructions_removed=t.instructions_removed,
        )


@dataclass
class RunRequest:
    """One unit of work for a :class:`ToolchainSession`.

    Either a *matrix* request (``builds``: named build configurations,
    None = the full paper matrix) or a *single* request (an explicit
    ``options``, labelled ``label``).
    """

    app: str
    builds: Optional[Sequence[str]] = None
    options: Optional[CompileOptions] = None
    label: str = "custom"
    size: Optional[Dict[str, int]] = None
    jobs: Optional[int] = None
    #: Simulator execution engine (``decoded``/``warp``; None = the
    #: :func:`repro.vgpu.resolve_sim_engine` default).
    engine: Optional[str] = None
    #: Extra keyword arguments forwarded to the app's ``run()``.
    run_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.options is not None and self.builds is not None:
            raise ValueError("a RunRequest is either builds= or options=, not both")


def _app_run_kwargs(request: RunRequest) -> Dict[str, Any]:
    kwargs = dict(request.run_kwargs)
    if request.size is not None:
        kwargs.setdefault("size", request.size)
    if request.engine is not None:
        kwargs.setdefault("engine", request.engine)
    return kwargs


def _run_cell(
    app_name: str,
    label: str,
    options: CompileOptions,
    kwargs: Dict[str, Any],
    session: "ToolchainSession",
) -> Tuple[str, Any]:
    """Run one (app, build) cell, compiling through *session*; executes
    in pool workers, so it must stay a module-level, picklable function."""
    # The result embeds the compiled module — a deep object graph whose
    # pickling back to the parent overflows the default recursion limit.
    if sys.getrecursionlimit() < 100_000:
        sys.setrecursionlimit(100_000)
    from repro.bench.harness import APPS

    return label, APPS[app_name].run(options, session=session, **kwargs)


class ToolchainSession:
    """Caching, parallelizing façade over the frontend driver.

    *cache* is the :class:`CompileCache` this session compiles through.
    ``cache=None`` does not mean "no cache": it means the process-global
    cache (``get_compile_cache()``), which is itself ``None``, and
    compiles uncached, only when caching is disabled process-wide
    (``REPRO_CACHE=0`` or ``configure_compile_cache(None)``).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[CompileCache] = None,
    ) -> None:
        self.jobs = jobs
        self.cache = cache if cache is not None else get_compile_cache()

    # ------------------------------------------------------------ compile --

    def compile(self, program, options: Optional[CompileOptions] = None):
        """Compile through this session's cache (uncached if disabled).

        With a cache, every call for one fingerprint returns the same
        frozen :class:`~repro.frontend.driver.CompiledProgram`: its
        module refuses edits, so take ``mutable_copy()`` to change it."""
        from repro.frontend.driver import compile_program_uncached

        options = options or CompileOptions()
        trace = _active_trace()
        if trace is None:
            if self.cache is None:
                return compile_program_uncached(program, options)
            return self.cache.get_or_compile(program, options)
        since_s = time.perf_counter()
        with trace.span(
            "toolchain.compile", cat="toolchain",
            program=getattr(program, "name", type(program).__name__),
            cached=self.cache is not None,
        ):
            if self.cache is None:
                compiled = compile_program_uncached(program, options)
            else:
                compiled = self.cache.get_or_compile(program, options)
        _emit_pipeline_spans(trace, compiled, since_s)
        return compiled

    # ---------------------------------------------------------------- run --

    def run(self, request: RunRequest):
        """Execute *request* and return a
        :class:`repro.bench.harness.MatrixResult`."""
        from repro.bench.harness import APPS, SKIP_CUDA, MatrixResult
        from repro.bench.builds import BUILD_ORDER, CUDA, build_options

        if request.app not in APPS:
            raise KeyError(
                f"unknown app {request.app!r}; pick one of {list(APPS)}"
            )
        out = MatrixResult(app=request.app)
        kwargs = _app_run_kwargs(request)
        if request.options is not None:
            cells = [(request.label, request.options)]
        else:
            options = build_options()
            wanted = list(request.builds) if request.builds is not None else list(BUILD_ORDER)
            if request.app in SKIP_CUDA and CUDA in wanted:
                wanted = [b for b in wanted if b != CUDA]
            cells = [(build, options[build]) for build in wanted]
        tasks = [(request.app, label, opts, kwargs) for label, opts in cells]
        for label, result in self.map_cells(tasks, jobs=request.jobs):
            out.results[label] = result
        return out

    def run_single(self, request: RunRequest):
        """Run a single-cell request and return its ``AppRunResult``."""
        if request.options is None:
            raise ValueError("run_single needs an explicit options=")
        return self.run(request).results[request.label]

    # ------------------------------------------------------------ fan-out --

    def map_cells(
        self,
        tasks: Sequence[Tuple[str, str, CompileOptions, Dict[str, Any]]],
        jobs: Optional[int] = None,
    ) -> List[Tuple[str, Any]]:
        """Run ``(app, label, options, kwargs)`` cells, fanning out over
        a process pool when more than one worker is in effect.

        Results come back in task order regardless of worker count, so
        parallel and serial execution build identical matrices.
        """
        jobs = resolve_jobs(jobs if jobs is not None else self.jobs, len(tasks))
        if jobs <= 1 or len(tasks) <= 1:
            return [_run_cell(*task, self) for task in tasks]
        with deep_recursion():
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_run_cell, *task, self) for task in tasks]
                return [f.result() for f in futures]
