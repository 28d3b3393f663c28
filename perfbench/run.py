"""End-to-end benchmark of the host path: source -> lower -> passes/cache
-> device build -> run -> verify, with serving on top.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-warp --seed 1 --seconds 20 --trace 0

Prints a human-readable report, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Every time is in reference seconds (see calib.py).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calib import RefClock, Timing, quantile  # noqa: E402
from spans import LAYERS, LayerTracer, SpanRecorder, layer_metrics, self_times  # noqa: E402

WORKLOAD_NAMES = ("compile-cold", "sweep-decoded", "sweep-warp", "serve-mixed")
#: On a traced run, the benchmark's own glue (span self time of the
#: ``bench.op`` roots) may be at most this share of the op time: the
#: layers' self times must add up to the op time within it.
SPAN_COVERAGE_TOLERANCE = 0.05
#: Settle time before a serve-mixed calibration, so the service worker
#: has gone back to waiting on its queue.
SERVE_SETTLE_S = 0.002
#: Units of the per-layer metrics that are not times in reference seconds.
LAYER_UNITS = {
    "passes.insts_removed": "count",
    "toolchain.hit_ratio": "ratio",
    "vgpu.insts_per_s": "1/s",
    "vgpu.warp_fallback_ratio": "ratio",
    "serve.pool_reuse_ratio": "ratio",
    "serve.compiles": "count",
    "serve.retried": "count",
    "serve.rejected": "count",
    "bench.calib_spread": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.span_coverage": "ratio",
}


class Bench:
    """State of one benchmark run, shared with the workload."""

    def __init__(self, args, tmp: Path) -> None:
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.rng = random.Random(args.seed)
        settle = (lambda: time.sleep(SERVE_SETTLE_S)) if args.workload == "serve-mixed" else None
        self.clock = RefClock(settle=settle)
        self.rec = SpanRecorder(self.clock)
        self.tracer: Optional[LayerTracer] = None
        self.tmp = tmp
        self.setup_rep = 0
        #: Timings of the current set-up's steps.
        self.setup_timings: List[Timing] = []
        self.errors: List[str] = []
        #: (timing, error or None, traced) per measured op.
        self.ops: List[tuple] = []

    # -- set-up ----------------------------------------------------------

    def step(self, fn: Callable[[], object]):
        """Run and time one set-up step."""
        out, timing = self.clock.measure(fn)
        self.setup_timings.append(timing)
        return out

    def setup_check(self, error: Optional[str]) -> None:
        if error is not None:
            self.errors.append(f"set-up: {error}")

    # -- measurement -----------------------------------------------------

    def begin_pass(self, index: int) -> bool:
        """Traced runs trace every other pass; the untraced ones give
        the tracing overhead."""
        traced = self.trace and index % 2 == 1
        if traced:
            self.tracer.install()
        return traced

    def end_pass(self, traced: bool) -> None:
        if traced:
            self.tracer.uninstall()

    def record_op(self, timing: Timing, error: Optional[str], traced: bool) -> None:
        self.ops.append((timing, error, traced))
        if error is not None:
            self.errors.append(error)


def _isolate_env(tmp: Path) -> None:
    """Drop inherited REPRO_* knobs and point the default compile cache
    at the run's private directory, so no run reads what another left
    behind.  The workloads set engines per launch, never through the
    environment."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "default-cache")


def _p90(values: List[float]):
    """p90 and the number of samples ranked beyond it."""
    return quantile(values, 0.9), len(values) - math.ceil(0.9 * len(values))


def _print_table(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")


def run(args) -> int:
    # One CPU for the whole process: the calibration loop then always
    # runs on the CPU that did the work it normalises (in serve-mixed
    # the work runs on the service's worker thread, not on this one).
    # Under the GIL the program's threads never compute in parallel.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        _isolate_env(tmp)
        return _run(args, Bench(args, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, b: Bench) -> int:
    workloads, import_t = b.clock.measure(lambda: importlib.import_module("workloads"))
    workload = workloads.WORKLOADS[args.workload](b)
    if b.trace:
        b.tracer = LayerTracer(b.rec, workloads.matrix_cell_of)
        b.tracer.install()
    try:
        rep_timings: List[List[Timing]] = []
        for rep in range(workload.setup_reps):
            b.setup_rep = rep
            b.setup_timings = []
            workload.setup()
            rep_timings.append(b.setup_timings)
        if b.trace:
            b.tracer.uninstall()
        b.rec.phase = "run"
        workload.measure()
        b.clock.finish()
        b.rec.scale()
    finally:
        workload.close()

    setup_ref = [sum(t.ref for t in ts) for ts in rep_timings]
    setup_s = import_t.ref + statistics.median(setup_ref)
    times = [t.ref for t, _, _ in b.ops]
    attempted = len(b.ops)
    failed = sum(err is not None for _, err, _ in b.ops)
    busy = workload.busy_time()
    p90, beyond = _p90(times)
    if beyond < 10:
        b.errors.append(f"only {beyond} samples beyond p90; the run is too short")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": (attempted - failed) / busy, "unit": "1/s"},
        "op_p50_s": {"value": quantile(times, 0.5), "unit": "s"},
        "op_p90_s": {"value": p90, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    raw = [t.raw for t, _, _ in b.ops]
    print(f"perfbench {args.workload}: seed {args.seed}, {attempted} ops "
          f"({len(setup_ref)} set-ups, {beyond} samples beyond p90), "
          f"trace {int(b.trace)}")
    _print_table("end-to-end (reference seconds):", e2e)
    print("diagnostics (raw wall seconds, not gated):")
    print(f"  error_ratio {failed / attempted:.6g}; wall op p50 "
          f"{statistics.median(raw):.6g} s, p90 {_p90(raw)[0]:.6g} s; import "
          f"{import_t.raw:.6g} s")
    print(f"  calibration: {len(b.clock.samples)} samples, median "
          f"{b.clock.median_s():.6g} s, spread {b.clock.spread():.4g}")

    metrics = e2e
    if b.trace:
        metrics = _per_layer(b, workload, workloads)
        _print_table("per-layer (reference seconds; see README for scopes):", metrics)
    for error in b.errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    correct = not b.errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _per_layer(b: Bench, workload, workloads) -> Dict[str, dict]:
    spans = b.rec.spans
    seen = {s.name[len("passes."):] for s in spans if s.name.startswith("passes.")}
    unknown = sorted(seen - set(workloads.PASS_NAMES) - {"pipeline"})
    if unknown:
        b.errors.append(f"passes missing from the metric list: {unknown}")
    values = layer_metrics(spans, workloads.PASS_NAMES, workloads.CELL_KEYS)
    values.update(workload.layer_metrics())

    traced, untraced = workload.overhead_samples()
    values["bench.calib_s"] = b.clock.median_s()
    values["bench.calib_spread"] = b.clock.spread()
    values["bench.trace_overhead"] = statistics.mean(traced) / statistics.mean(untraced)
    self_by_layer, op_total, n_ops = self_times(spans)
    coverage = 1.0 - self_by_layer["bench"] / op_total
    values["bench.span_coverage"] = coverage
    if coverage < 1.0 - SPAN_COVERAGE_TOLERANCE:
        b.errors.append(f"layer self times cover only {coverage:.4f} of the op "
                        f"time (tolerance {SPAN_COVERAGE_TOLERANCE})")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_by_layer[layer] / n_ops
    return {name: {"value": value, "unit": LAYER_UNITS.get(name, "s")}
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
