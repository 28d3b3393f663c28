"""Persistent benchmark history + noise-aware regression compare.

The store is deliberately primitive: ``$REPRO_BENCH_HISTORY_DIR/
history.jsonl`` (default ``.repro-bench/``, gitignored), one
:func:`repro.bench.record.make_record` JSON object per line, append
only.  Every CLI run of ``micro`` and ``chaos`` appends one record, so
a working tree accumulates its own perf timeline for free.

``python -m repro.bench compare`` diffs two records metric-by-metric
over the *intersection* of their metric names (so a ``--smoke`` run
still compares against a full-sweep baseline on the cells it ran).
A metric only counts as a regression when its delta is worse than
**max(rel_threshold · |baseline|, k · stddev)** — the relative
threshold (``REPRO_BENCH_REGRESSION_PCT``) absorbs small drift, and
the k·stddev term widens the gate for metrics whose own repeats were
noisy.  Within-noise metrics contribute a neutral 1.0 to the geomean,
so jitter cannot accumulate into a fail; the gate trips only when the
per-kind geomean (wall-clock and modeled-cycle metrics are gated
separately) falls below ``1 - rel_threshold``.  Modeled metrics carry
``stddev = 0`` — they are deterministic by construction, so the noise
term vanishes and only genuine model changes move them.

Wall metrics are only comparable between records from the same
machine, Python and run configuration; otherwise the compare gates on
modeled metrics only and says so, so a ``--smoke`` run is never gated
against a full run's wall clock.  Records of benchmarks no CLI records
any more (a kept ``.repro-bench/`` outlives the code that wrote them)
are reported as retired, never gated.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import envconfig
from repro.bench import record

#: History file name inside the store directory.
HISTORY_FILE = "history.jsonl"

#: Widening multiplier on the per-metric stddev in the noise gate.
NOISE_K = 2.0

#: Tracked repo-root reports usable as a fallback baseline when the
#: local history has no earlier comparable record.
TRACKED_BASELINES = {
    "micro": "BENCH_micro.json",
    "chaos": "BENCH_chaos.json",
}


def history_path(directory: Optional[str] = None) -> str:
    directory = directory or envconfig.bench_history_dir()
    return os.path.join(directory, HISTORY_FILE)


def append_record(rec: Dict[str, Any], directory: Optional[str] = None) -> str:
    """Append one record to the store (creating it on first use)."""
    path = history_path(directory)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def load_records(directory: Optional[str] = None) -> List[Dict[str, Any]]:
    """All well-formed records, in append (= chronological) order.

    Unparseable or foreign-schema lines are skipped, not fatal: an
    append-only file shared across checkouts must tolerate versions it
    predates.
    """
    path = history_path(directory)
    if not os.path.exists(path):
        return []
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(rec, dict)
                and rec.get("schema_version") == record.SCHEMA_VERSION
                and isinstance(rec.get("metrics"), dict)
            ):
                records.append(rec)
    return records


# ------------------------------------------------- report -> record --------


def record_from_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """Convert one bench report into a history record.

    Metric names are hierarchical (``kind/quantity/cell...``) and
    stable across sweep sizes, so records from partial runs intersect
    full-sweep baselines on exactly the cells both measured.
    """
    benchmark = report.get("benchmark")
    if benchmark not in _METRICS:
        raise KeyError(f"cannot build a history record from {benchmark!r}")
    return record.make_record(
        benchmark,
        config={
            k: v for k, v in report.get("config", {}).items() if k != "repeats"
        },
        metrics=_METRICS[benchmark](report),
        meta=report.get("meta"),
    )


def _chaos_metrics(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Wall metrics of the chaos suite: total time and the speed of
    shedding (p99 time-to-verdict of shed requests).  Invariant
    verdicts are pass/fail, not metrics — the CLI exits non-zero on a
    violation instead of recording a regression."""
    shed = report.get("shed_latency_s") or {}
    metrics = {
        "wall/suite_s": record.metric(
            report["wall_seconds"],
            better=record.BETTER_LOWER, kind=record.KIND_WALL,
        ),
    }
    if shed.get("n"):
        metrics["wall/shed_verdict_p99_s"] = record.metric(
            shed["p99"], stddev=shed.get("stddev", 0.0), n=shed["n"],
            better=record.BETTER_LOWER, kind=record.KIND_WALL,
        )
    return metrics


def _micro_metrics(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """One modeled metric per measured (construct, runtime, grid, W)
    cell — deterministic, so stddev is honestly zero."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for cell in report["cells"]:
        if cell["engine"] != "decoded" or cell["cycles_per_call"] is None:
            continue
        name = (
            f"model/{cell['construct']}/{cell['runtime']}/"
            f"t{cell['teams']}x{cell['threads']}/w{cell['workload']}"
        )
        metrics[name] = record.metric(
            cell["cycles_per_call"],
            better=record.BETTER_LOWER,
            kind=record.KIND_MODEL,
        )
    return metrics


#: Metric extractor of each benchmark a CLI still records.
_METRICS = {"micro": _micro_metrics, "chaos": _chaos_metrics}


# ----------------------------------------------------------- comparison --


def _geomean(ratios: Sequence[float]) -> Optional[float]:
    if not ratios:
        return None
    return math.exp(sum(math.log(max(r, 1e-9)) for r in ratios) / len(ratios))


def _wall_comparable(base: Dict[str, Any], new: Dict[str, Any]) -> bool:
    """Whether the wall metrics of two records measure the same thing:
    same machine, Python and run configuration."""
    base_meta, new_meta = base.get("meta", {}), new.get("meta", {})
    return (base_meta.get("machine") == new_meta.get("machine")
            and base_meta.get("python") == new_meta.get("python")
            and base.get("config") == new.get("config"))


def _gated_names(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """The shared metric names a compare of *base* and *new* gates on."""
    common = set(base["metrics"]) & set(new["metrics"])
    if not _wall_comparable(base, new):
        common = {
            name for name in common
            if new["metrics"][name].get("kind", record.KIND_WALL)
            != record.KIND_WALL
        }
    return sorted(common)


def compare_records(
    base: Dict[str, Any],
    new: Dict[str, Any],
    rel_pct: Optional[float] = None,
    k: float = NOISE_K,
) -> Dict[str, Any]:
    """Diff two history records with the noise-aware gate.

    Returns a result dict with per-metric rows, per-kind geomeans of
    the gated improvement ratios (>1 better), and the overall verdict
    ``ok`` (False only when a kind's geomean regresses beyond the
    relative threshold).
    """
    rel = (rel_pct if rel_pct is not None
           else envconfig.bench_regression_pct()) / 100.0
    common = _gated_names(base, new)
    skipped_wall = len(set(base["metrics"]) & set(new["metrics"])) - len(common)
    rows: List[Dict[str, Any]] = []
    gated: Dict[str, List[float]] = {}
    for name in common:
        bm, nm = base["metrics"][name], new["metrics"][name]
        kind = nm.get("kind", record.KIND_WALL)
        better = nm.get("better", record.BETTER_HIGHER)
        bv, nv = float(bm["value"]), float(nm["value"])
        delta = nv - bv
        tol = max(
            rel * abs(bv),
            k * max(float(bm.get("stddev", 0.0)), float(nm.get("stddev", 0.0))),
        )
        worse = delta < -tol if better == record.BETTER_HIGHER else delta > tol
        improved = delta > tol if better == record.BETTER_HIGHER else delta < -tol
        if abs(delta) <= tol or bv <= 0 or nv <= 0:
            ratio = 1.0  # within noise (or unratioable): neutral
        elif better == record.BETTER_HIGHER:
            ratio = nv / bv
        else:
            ratio = bv / nv
        gated.setdefault(kind, []).append(ratio)
        rows.append({
            "metric": name,
            "kind": kind,
            "base": bv,
            "new": nv,
            "delta": round(delta, 6),
            "tolerance": round(tol, 6),
            "ratio": round(ratio, 4),
            "regressed": worse,
            "improved": improved,
        })
    geomeans = {kind: _geomean(ratios) for kind, ratios in gated.items()}
    ok = all(g is None or g >= 1.0 - rel for g in geomeans.values())
    return {
        "base_run": base.get("run_id"),
        "new_run": new.get("run_id"),
        "benchmark": new.get("benchmark"),
        "rel_threshold_pct": rel * 100.0,
        "noise_k": k,
        "wall_comparable": _wall_comparable(base, new),
        "metrics_compared": len(rows),
        "metrics_skipped_wall": skipped_wall,
        "regressions": [r["metric"] for r in rows if r["regressed"]],
        "improvements": [r["metric"] for r in rows if r["improved"]],
        "geomean": {
            kind: (round(g, 4) if g is not None else None)
            for kind, g in geomeans.items()
        },
        "ok": ok,
        "rows": rows,
    }


def find_baseline(
    records: Sequence[Dict[str, Any]],
    latest: Dict[str, Any],
) -> Optional[Dict[str, Any]]:
    """Most recent earlier same-benchmark record sharing a metric the
    compare would gate on."""
    for rec in reversed(records):
        if rec.get("run_id") == latest.get("run_id"):
            continue
        if rec.get("benchmark") != latest.get("benchmark"):
            continue
        if rec.get("timestamp", 0) > latest.get("timestamp", 0):
            continue
        if _gated_names(rec, latest):
            return rec
    return None


def tracked_baseline(benchmark: str, root: str = ".") -> Optional[Dict[str, Any]]:
    """The committed BENCH_*.json of *benchmark* as a record, if usable."""
    name = TRACKED_BASELINES.get(benchmark)
    if name is None:
        return None
    path = os.path.join(root, name)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        return record_from_report(report)
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def baseline_compare(
    directory: Optional[str] = None,
    rel_pct: Optional[float] = None,
    root: str = ".",
) -> Dict[str, Any]:
    """The ``make verify`` gate: latest run of each benchmark vs its
    baseline (previous comparable history record, else the tracked
    BENCH_*.json).  Benchmarks with no usable baseline, and stored
    benchmarks no CLI records any more, are reported as skipped, never
    failed — a fresh checkout must pass, and so must a kept history."""
    records = load_records(directory)
    latest: Dict[str, Dict[str, Any]] = {}
    for rec in records:
        latest[rec["benchmark"]] = rec
    results: List[Dict[str, Any]] = []
    ok = True
    for benchmark in sorted(latest):
        if benchmark not in _METRICS:
            results.append({"benchmark": benchmark, "skipped": "retired"})
            continue
        new = latest[benchmark]
        base = find_baseline(records, new)
        source = "history"
        if base is None:
            base = tracked_baseline(benchmark, root=root)
            source = "tracked"
        if base is None or not _gated_names(base, new):
            results.append({
                "benchmark": benchmark,
                "skipped": "no comparable baseline",
            })
            continue
        result = compare_records(base, new, rel_pct=rel_pct)
        result["baseline_source"] = source
        results.append(result)
        ok = ok and result["ok"]
    return {"ok": ok, "results": results}


# ------------------------------------------------------------- rendering --


def format_history(records: Sequence[Dict[str, Any]]) -> str:
    if not records:
        return f"history: empty ({history_path()})"
    lines = [f"history: {len(records)} records in {history_path()}"]
    for rec in records:
        lines.append(
            f"  {rec['run_id']:<28} {rec['benchmark']:<8} "
            f"{len(rec['metrics']):>4} metrics  "
            f"{rec.get('meta', {}).get('machine', '?')}"
        )
    return "\n".join(lines)


def format_compare(result: Dict[str, Any]) -> str:
    if "skipped" in result:
        return f"{result['benchmark']}: skipped ({result['skipped']})"
    lines = [
        f"{result['benchmark']}: {result['base_run']} -> {result['new_run']} "
        f"({result['metrics_compared']} metrics, "
        f"threshold {result['rel_threshold_pct']:.1f}% "
        f"or {result['noise_k']:.0f}*stddev)"
    ]
    if result["metrics_skipped_wall"]:
        lines.append(
            f"  wall metrics skipped ({result['metrics_skipped_wall']}): "
            "records come from different machine/python or run "
            "configuration"
        )
    for kind in sorted(result["geomean"]):
        g = result["geomean"][kind]
        if g is not None:
            lines.append(f"  geomean[{kind}]: {g:.4f}x")
    for row in result["rows"]:
        if row["regressed"] or row["improved"]:
            tag = "REGRESSED" if row["regressed"] else "improved"
            lines.append(
                f"  {tag:<9} {row['metric']}: {row['base']:.6g} -> "
                f"{row['new']:.6g} (tol {row['tolerance']:.6g})"
            )
    lines.append(f"  verdict: {'ok' if result['ok'] else 'FAIL'}")
    return "\n".join(lines)


def format_baseline_compare(outcome: Dict[str, Any]) -> str:
    lines = [format_compare(res) for res in outcome["results"]]
    if not lines:
        lines = ["compare: no history records yet"]
    lines.append(f"compare: {'ok' if outcome['ok'] else 'FAIL'}")
    return "\n".join(lines)
