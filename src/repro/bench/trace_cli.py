"""``python -m repro.bench trace`` — traced single-cell run.

Runs one (app, build) cell with a fresh :class:`repro.trace.
TraceCollector` installed, so events from all four layers land in one
timeline: toolchain (compile span, cache hit/miss instants, per-pass
spans), runtime (overhead counters, barrier spans), vgpu (kernel /
team / phase spans) and bench (prepare / launch spans).  The result is
written as Chrome Trace Format JSON — drag it onto
https://ui.perfetto.dev — plus a flat metrics JSON for dashboards.

The document is schema-checked with :func:`repro.trace.
validate_chrome_trace` before this module reports success; the tests
run the same check.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.apps.common import run_app
from repro.bench.builds import BUILD_ORDER, build_options
from repro.bench.harness import APPS
from repro.toolchain.service import ToolchainSession
from repro.trace.collector import TraceCollector, TraceConfig, install
from repro.trace.export import (
    build_metrics,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.vgpu import resolve_sim_engine

def _slug(label: str) -> str:
    """Filesystem-safe version of a build label."""
    out = "".join(c if c.isalnum() else "-" for c in label.lower())
    while "--" in out:
        out = out.replace("--", "-")
    return out.strip("-")


def default_out(app: str, build: str) -> str:
    return f"TRACE_{app}_{_slug(build)}.json"


def default_metrics_out(app: str, build: str) -> str:
    return f"TRACE_{app}_{_slug(build)}.metrics.json"


def run_trace(
    app_name: str,
    build: str,
    out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    engine: Optional[str] = None,
    size: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Run one traced cell and write the trace + metrics documents.

    The returned dict carries the cell's :class:`~repro.apps.common.
    AppRunResult` as ``"run"``; its ``verified`` is the run's verdict."""
    if app_name not in APPS:
        raise KeyError(f"unknown app {app_name!r}; pick one of {sorted(APPS)}")
    options = build_options()
    if build not in options:
        raise KeyError(f"unknown build {build!r}; pick one of {BUILD_ORDER}")
    out = out or default_out(app_name, build)
    metrics_out = metrics_out or default_metrics_out(app_name, build)

    collector = TraceCollector(TraceConfig(labels={
        "app": app_name, "build": build,
    }))
    session = ToolchainSession()
    with install(collector):
        with collector.span("bench.trace", cat="bench", app=app_name, build=build):
            run = run_app(APPS[app_name], options[build], size=size,
                          session=session, engine=engine)

    doc = chrome_trace(collector)
    errors = validate_chrome_trace(doc)
    if errors:
        raise RuntimeError(
            "trace failed schema validation: " + "; ".join(errors[:5])
        )
    write_chrome_trace(collector, out)
    cache_stats = session.cache.stats if session.cache is not None else None
    engine = resolve_sim_engine(engine)
    metrics = build_metrics(
        profile=run.profile,
        cache_stats=cache_stats,
        pipeline_stats=run.compiled.stats,
        extra={
            "app": app_name,
            "build": build,
            "engine": engine,
            "max_error": run.max_error,
        },
    )
    write_metrics(metrics, metrics_out)
    cats = sorted({e.get("cat") for e in doc["traceEvents"] if e.get("cat")})
    return {
        "app": app_name,
        "build": build,
        "engine": engine,
        "events": len(doc["traceEvents"]),
        "categories": cats,
        "out": out,
        "metrics_out": metrics_out,
        "max_error": run.max_error,
        "profile": run.profile,
        "run": run,
    }


def format_trace_result(result: Dict[str, Any]) -> str:
    profile = result["profile"]
    return "\n".join([
        f"traced {result['app']} × {result['build']} "
        f"({result['engine']} engine)",
        f"  {profile.summary()}",
        f"  {result['events']} events "
        f"[{', '.join(result['categories'])}] -> {result['out']}",
        f"  metrics -> {result['metrics_out']}",
        "  view: open https://ui.perfetto.dev and drag the trace file in",
    ])
