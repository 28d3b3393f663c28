"""``python -m repro.bench serve`` — load generator for ``repro.serve``.

Spins up one :class:`~repro.serve.SimulationService` and drives it from
N concurrent tenant threads, each submitting a deterministic per-tenant
mix of (app, engine) requests.  A saturated service answers
with :class:`~repro.serve.AdmissionRejected`; tenants back off and
resubmit, so the benchmark also exercises the admission path under
honest overload.

The report — throughput, latency percentiles (p50/p95/p99), queue-wait
percentiles, pool/service counters — is written to ``BENCH_serve.json``
(tracked in git).  Like ``BENCH_sim.json`` it is deterministic in
*structure* (sorted keys, fixed request mix); the wall-clock numbers
vary by machine.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench import record
from repro.bench.builds import BUILD_ORDER
from repro.serve import AdmissionRejected, SimulationService

#: Default output file, committed at the repo root.
DEFAULT_OUTPUT = "BENCH_serve.json"

#: Request mix: tenants cycle through these (app, engine) cells,
#: offset by tenant index so concurrent tenants hit different cells at
#: any instant.  Apps chosen for speed; both engines are exercised.
REQUEST_MIX: Sequence[Dict[str, Any]] = (
    {"app": "testsnap", "engine": "decoded"},
    {"app": "xsbench", "engine": "decoded"},
    {"app": "testsnap", "engine": "warp"},
    {"app": "gridmini", "engine": "decoded"},
)

#: Back-off between resubmissions after an AdmissionRejected.
BACKOFF_S = 0.01


def percentiles(values: Sequence[float],
                points: Sequence[int] = (50, 95, 99)) -> Dict[str, float]:
    """Nearest-rank percentiles of *values*, rounded for the report."""
    out: Dict[str, float] = {}
    ordered = sorted(values)
    for p in points:
        if not ordered:
            out[f"p{p}"] = 0.0
            continue
        rank = max(1, -(-p * len(ordered) // 100))  # ceil without math
        out[f"p{p}"] = round(ordered[rank - 1], 6)
    dist = record.stats(ordered)
    out["mean"] = round(dist["mean"], 6)
    out["stddev"] = round(dist["stddev"], 6)
    out["n"] = dist["n"]
    out["max"] = round(dist["max"], 6) if ordered else 0.0
    return out


def _tenant(
    service: SimulationService,
    tenant: int,
    requests: int,
    build: str,
    results: List[Dict[str, Any]],
    errors: List[str],
) -> None:
    """One tenant: submit *requests* launches, waiting each one out."""
    mix = REQUEST_MIX
    for i in range(requests):
        cell = mix[(tenant + i) % len(mix)]
        rejections = 0
        while True:
            try:
                job = service.submit_app(
                    cell["app"],
                    build=build,
                    engine=cell["engine"],
                    request_id=f"t{tenant:02d}-{i:03d}",
                    tag=f"tenant{tenant:02d}",
                )
                break
            except AdmissionRejected:
                rejections += 1
                time.sleep(BACKOFF_S)
        try:
            result = job.result(timeout=600)
        except Exception as exc:  # internal failure: record, keep driving
            errors.append(f"{job.request_id}: {type(exc).__name__}: {exc}")
            continue
        results.append({
            "tenant": tenant,
            "request_id": result.request_id,
            "app": cell["app"],
            "engine": result.engine,
            "ok": result.ok,
            "retried": result.retried,
            "cycles": result.cycles,
            "max_error": (result.payload or {}).get("max_error"),
            "latency_s": result.latency_s,
            "queue_wait_s": result.queue_wait_s,
            "duration_s": result.duration_s,
            "rejections": rejections,
        })


def serve_load(
    tenants: int = 8,
    requests: int = 3,
    workers: Optional[int] = None,
    queue_depth: Optional[int] = None,
    build: Optional[str] = None,
) -> Dict[str, Any]:
    """Drive the service from *tenants* threads and return the report."""
    build = build if build is not None else BUILD_ORDER[0]
    results: List[Dict[str, Any]] = []
    errors: List[str] = []
    with SimulationService(workers=workers, queue_depth=queue_depth) as svc:
        threads = [
            threading.Thread(
                target=_tenant, name=f"tenant-{t:02d}",
                args=(svc, t, requests, build, results, errors),
            )
            for t in range(tenants)
        ]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = max(time.perf_counter() - t0, 1e-9)
        service_stats = svc.stats.to_dict()
        pool_stats = svc.pool.stats.to_dict()
        capacity = svc.capacity
        effective_workers = svc.workers

    results.sort(key=lambda r: r["request_id"])
    completed = [r for r in results if r["ok"]]
    verified = [r for r in completed if (r["max_error"] or 0.0) < 1e-9]
    meta = record.meta_block()
    return {
        "benchmark": "serve",
        "schema_version": record.SCHEMA_VERSION,
        "meta": meta,
        "config": {
            "tenants": tenants,
            "requests_per_tenant": requests,
            "workers": effective_workers,
            "capacity": capacity,
            "build": build,
            "mix": [dict(cell) for cell in REQUEST_MIX],
            "python": meta["python"],
            "machine": meta["machine"],
        },
        "totals": {
            "requests": tenants * requests,
            "completed": len(results),
            "ok": len(completed),
            "verified": len(verified),
            "failed": len(results) - len(completed),
            "rejections": sum(r["rejections"] for r in results),
            "retried": sum(1 for r in results if r["retried"]),
            "errors": errors,
        },
        "wall_seconds": round(wall, 6),
        "throughput_rps": round(len(results) / wall, 3),
        "latency_s": percentiles([r["latency_s"] for r in results]),
        "queue_wait_s": percentiles([r["queue_wait_s"] for r in results]),
        "service": service_stats,
        "pool": pool_stats,
        "requests": results,
    }


def render_json(report: Dict[str, Any], indent: int = 2) -> str:
    return json.dumps(report, indent=indent, sort_keys=True)


def write_report(report: Dict[str, Any], path: str = DEFAULT_OUTPUT) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(report) + "\n")
    return path


def format_serve(report: Dict[str, Any]) -> str:
    """Human-readable summary of the serve load report."""
    cfg = report["config"]
    tot = report["totals"]
    lat = report["latency_s"]
    wait = report["queue_wait_s"]
    lines = [
        f"serve load: {cfg['tenants']} tenants x "
        f"{cfg['requests_per_tenant']} requests over "
        f"{cfg['workers']} workers (capacity {cfg['capacity']})",
        f"  completed {tot['completed']}/{tot['requests']} "
        f"(ok {tot['ok']}, verified {tot['verified']}, "
        f"retried {tot['retried']}, rejections {tot['rejections']})",
        f"  throughput {report['throughput_rps']:.2f} req/s "
        f"in {report['wall_seconds']:.2f}s",
        f"  latency    p50 {lat['p50'] * 1e3:8.1f} ms   "
        f"p95 {lat['p95'] * 1e3:8.1f} ms   p99 {lat['p99'] * 1e3:8.1f} ms",
        f"  queue wait p50 {wait['p50'] * 1e3:8.1f} ms   "
        f"p95 {wait['p95'] * 1e3:8.1f} ms   p99 {wait['p99'] * 1e3:8.1f} ms",
        f"  pool: {report['pool']['builds']} builds, "
        f"{report['pool']['reuses']} reuses, "
        f"{report['pool']['discards']} discards; "
        f"{report['service']['compiles']} compiles",
    ]
    if tot["errors"]:
        lines.append(f"  ERRORS: {tot['errors']}")
    return "\n".join(lines)
