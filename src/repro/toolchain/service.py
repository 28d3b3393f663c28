"""Toolchain sessions: compiling through a compile cache.

:class:`ToolchainSession` is the one compile entry point of the apps,
the bench harness, the serve layer and the examples: it compiles
through its :class:`~repro.toolchain.cache.CompileCache` and, under an
active trace collector, exports a ``toolchain.compile`` span plus the
per-pass spans of the pipeline run a miss made.  Running what it
compiles is the business of the layers above it
(:func:`repro.apps.common.run_app`, the process-pool fan-out of
:mod:`repro.bench.harness`); this module imports none of them.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.frontend.driver import CompileOptions
from repro.toolchain.cache import CompileCache, get_compile_cache
from repro.trace.collector import active_or_none as _active_trace


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


class ToolchainSession:
    """Caching façade over the frontend driver.

    *cache* is the :class:`CompileCache` this session compiles through.
    ``cache=None`` does not mean "no cache": it means the process-global
    cache (``get_compile_cache()``), which is itself ``None``, and
    compiles uncached, only when caching is disabled process-wide
    (``REPRO_CACHE=0`` or ``configure_compile_cache(None)``).
    """

    def __init__(self, *, cache: Optional[CompileCache] = None) -> None:
        self.cache = cache if cache is not None else get_compile_cache()

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
