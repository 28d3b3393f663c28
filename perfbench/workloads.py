"""The four workloads: compile-cold, sweep-decoded, sweep-warp, serve-mixed.

Importing this module imports the program (``repro``); the benchmark
times that import as the first step of set-up.  Each workload does
fixed work: a whole number of passes over its op list, with the op
order of every pass drawn from the seeded RNG.  The programs only ever
receive their generated inputs, never the seed.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calib import quantile
from repro.bench.builds import (
    BUILD_ORDER,
    CUDA,
    NEW_RT,
    NEW_RT_NO_ASSUME,
    OLD_RT_NIGHTLY,
    ablation_configs,
    build_options,
)
from repro.bench.harness import APPS, SKIP_CUDA
from repro.frontend.driver import CompileOptions, Target
from repro.passes.pass_manager import module_instruction_count
from repro.serve import SimulationService
from repro.toolchain.cache import CompileCache
from repro.toolchain.service import ToolchainSession
from repro.vgpu import ENGINE_DECODED, ENGINE_WARP, GPUConfig, LaunchSpec, VirtualGPU

#: Max abs error a verified result may have (AppRunResult.verified).
MAX_ERROR = 1e-9
#: Fewest measured ops per run: at least 10 samples must lie beyond p90.
MIN_OPS = 100

BUILD_SLUGS = {
    "Old RT (Nightly)": "oldrt-nightly",
    "New RT (Nightly)": "newrt-nightly",
    NEW_RT_NO_ASSUME: "newrt-noassume",
    NEW_RT: "newrt",
    CUDA: "cuda",
}
#: Fig. 13 ablations; "full" is the New RT w/o Assumptions cell.
ABLATION_SLUGS = {
    "no field-sensitive (IV-B1)": "no-ivb1",
    "no reach/dom (IV-B2)": "no-ivb2",
    "no assumed content (IV-B3)": "no-ivb3",
    "no invariant prop (IV-B4)": "no-ivb4",
    "no aligned exec (IV-C)": "no-ivc",
    "no barrier elim (IV-D)": "no-ivd",
}

#: Pass names of CompiledProgram.stats, one passes.<name>_s metric each.
PASS_NAMES = [
    "cleanup", "gvn", "inline", "internalize", "licm", "mem2reg",
    "openmp-opt-barrier-elim", "openmp-opt-dse", "openmp-opt-globalization",
    "openmp-opt-spmdization", "openmp-opt-value-prop", "strip-assumes",
]
SERVE_METRICS = (
    "serve.queue_wait_p50_s", "serve.queue_wait_p90_s", "serve.service_s",
    "serve.pool_reuse_ratio", "serve.compiles", "serve.retried", "serve.rejected",
)

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())


def matrix_cells() -> List[Tuple[str, str]]:
    """The 24 (app, build) cells of the paper's matrix."""
    return [(app, build) for app in sorted(APPS) for build in BUILD_ORDER
            if not (app in SKIP_CUDA and build == CUDA)]


def cell_key(app: str, build: str) -> str:
    return f"{app}.{BUILD_SLUGS.get(build) or ABLATION_SLUGS[build]}"


CELL_KEYS = [cell_key(app, build) for app, build in matrix_cells()]


def all_options() -> Dict[str, CompileOptions]:
    """Build name (matrix and ablation) -> CompileOptions."""
    options = build_options()
    for label, pipeline in ablation_configs().items():
        if label in ABLATION_SLUGS:
            options[label] = CompileOptions(Target.OPENMP_NEW, pipeline=pipeline)
    return options


_MATRIX_OPTIONS = build_options()


def matrix_cell_of(program_name: str, options) -> Optional[str]:
    """Name the matrix cell a compile belongs to (for per-cell spans)."""
    for build, candidate in _MATRIX_OPTIONS.items():
        if candidate == options:
            return cell_key(program_name, build)
    return None


def check_run(key: str, profile, max_error: float) -> Optional[str]:
    """Correctness gate of one launch: verified output and modeled
    instructions/cycles equal to the pinned values."""
    pin = PINS["runs"][key]
    if not max_error < MAX_ERROR:
        return f"{key}: verify() max error {max_error!r} >= {MAX_ERROR}"
    got = {"instructions": profile.instructions, "cycles": profile.cycles}
    if got != pin:
        return f"{key}: modeled {got} != pinned {pin}"
    return None


def launch_cell(session: ToolchainSession, program, app: str, options,
                engine: str) -> Tuple[Any, float]:
    """Cache-hit compile, device build, prepare, run and verify:
    (profile, max error)."""
    mod = APPS[app]
    compiled = session.compile(program, options)
    gpu = VirtualGPU(compiled.module, config=GPUConfig(), engine=engine)
    host_args, verify = mod.prepare(gpu, mod.default_size())
    spec = LaunchSpec(
        kernel=mod.KERNEL,
        num_teams=mod.TEAMS,
        threads_per_team=mod.THREADS,
        args=tuple(compiled.abi(mod.KERNEL).marshal(gpu, host_args)),
    )
    result = gpu.run(spec)
    return result.profile, verify(gpu, host_args)


class Workload:
    """A workload: repeated set-up, then passes over an op list."""

    name = ""
    #: Set-ups per run; setup_s is the import time plus their median.
    setup_reps = 1
    #: Reference seconds one pass over the op list takes on the
    #: reference host; sets the pass count for a given --seconds.
    nominal_pass_s = 1.0

    def __init__(self, bench) -> None:
        self.bench = bench

    def passes(self, n_ops: int) -> int:
        return max(math.ceil(MIN_OPS / n_ops),
                   round(self.bench.seconds / self.nominal_pass_s))

    def setup(self) -> None:
        """One set-up; fills ``op_list``."""
        raise NotImplementedError

    def run_op(self, op) -> Any:
        raise NotImplementedError

    def check(self, op, out) -> Optional[str]:
        raise NotImplementedError

    def after_op(self, op) -> None:
        """Untimed per-op cleanup."""

    def close(self) -> None:
        """Release what set-up made (threads, files)."""

    def busy_time(self) -> float:
        """Reference seconds the measured ops kept the program busy."""
        return sum(t.ref for t, _, _ in self.bench.ops)

    def overhead_samples(self) -> Tuple[List[float], List[float]]:
        """(traced, untraced) reference times of like units of work."""
        ops = self.bench.ops
        return ([t.ref for t, _, tr in ops if tr],
                [t.ref for t, _, tr in ops if not tr])

    def layer_metrics(self) -> Dict[str, float]:
        """Layer metrics the spans do not give; the serve layer is off
        the path of every workload but serve-mixed."""
        return {name: 0.0 for name in SERVE_METRICS}

    def measure(self) -> None:
        """Run the passes over the op list (single thread)."""
        b = self.bench
        ops = self.op_list
        for p in range(self.passes(len(ops))):
            order = b.rng.sample(ops, len(ops))
            traced = b.begin_pass(p)
            for op in order:
                span = b.rec.begin("bench.op") if traced else None
                t0 = time.perf_counter()
                try:
                    out = self.run_op(op)
                    error = None
                except Exception:
                    out, error = None, traceback.format_exc()
                raw = time.perf_counter() - t0
                if span is not None:
                    b.rec.end(span)
                if error is None:
                    error = self.check(op, out)
                self.after_op(op)
                b.record_op(b.clock.stamp(raw), error, traced)
                b.clock.account(raw)
            b.end_pass(traced)


class CompileCold(Workload):
    """Each op compiles one program through ToolchainSession.compile
    against an empty private cache (a fresh on-disk store per op)."""

    name = "compile-cold"
    setup_reps = 5
    nominal_pass_s = 10.0

    def setup(self) -> None:
        b = self.bench
        self.programs = b.step(lambda: {
            app: APPS[app].build_program(APPS[app].default_size())
            for app in sorted(APPS)})
        self.options = all_options()
        self.op_list = matrix_cells() + [
            (app, label) for app in sorted(APPS) for label in ABLATION_SLUGS]
        self._seq = 0

    def run_op(self, op):
        app, build = op
        self._seq += 1
        self._dir = self.bench.tmp / f"cold-{self._seq}"
        session = ToolchainSession(cache=CompileCache(disk_dir=self._dir))
        return session.compile(self.programs[app], self.options[build])

    def check(self, op, compiled) -> Optional[str]:
        key = cell_key(*op)
        got = module_instruction_count(compiled.module)
        if got != PINS["compiles"][key]:
            return f"{key}: {got} IR instructions != pinned {PINS['compiles'][key]}"
        return None

    def after_op(self, op) -> None:
        shutil.rmtree(self._dir, ignore_errors=True)


class Sweep(Workload):
    """Each op runs one of the 24 app x build cells on one engine: a
    cache-hit compile, device build, prepare, run and verify."""

    engine = ENGINE_DECODED

    def setup(self) -> None:
        b = self.bench
        programs = b.step(lambda: {
            app: APPS[app].build_program(APPS[app].default_size())
            for app in sorted(APPS)})
        options = build_options()
        cache_dir = b.tmp / f"cache-{b.setup_rep}"
        self.session = ToolchainSession(cache=CompileCache(disk_dir=cache_dir))
        self.op_list = [(app, build, programs[app], options[build])
                        for app, build in matrix_cells()]
        for app, build, program, opts in self.op_list:
            b.step(lambda: self.session.compile(program, opts))
        for op in self.op_list:
            out = b.step(lambda: self.run_op(op))
            b.setup_check(self.check(op, out))

    def run_op(self, op):
        app, build, program, options = op
        return launch_cell(self.session, program, app, options, self.engine)

    def check(self, op, out) -> Optional[str]:
        profile, max_error = out
        return check_run(cell_key(op[0], op[1]), profile, max_error)


class SweepDecoded(Sweep):
    name = "sweep-decoded"
    engine = ENGINE_DECODED
    nominal_pass_s = 7.7


class SweepWarp(Sweep):
    name = "sweep-warp"
    engine = ENGINE_WARP
    nominal_pass_s = 3.8


#: serve-mixed request mix, one round: warp-eligible New RT / CUDA
#: builds, decoded Old RT builds, and repeated fingerprints.
SERVE_MIX = [
    ("xsbench", NEW_RT, ENGINE_WARP),
    ("xsbench", NEW_RT, ENGINE_WARP),
    ("rsbench", CUDA, ENGINE_WARP),
    ("rsbench", CUDA, ENGINE_WARP),
    ("gridmini", NEW_RT, ENGINE_WARP),
    ("gridmini", NEW_RT, ENGINE_WARP),
    ("xsbench", NEW_RT_NO_ASSUME, ENGINE_WARP),
    ("testsnap", NEW_RT_NO_ASSUME, ENGINE_WARP),
    ("testsnap", OLD_RT_NIGHTLY, ENGINE_DECODED),
    ("gridmini", OLD_RT_NIGHTLY, ENGINE_DECODED),
]
SERVE_CLIENTS = 2
#: A served request that takes longer than this counts as failed.
REQUEST_TIMEOUT_S = 60.0


class ServeMixed(Workload):
    """A closed loop of 2 client threads against one SimulationService
    with 1 worker and an in-memory compile cache.  A pass goes over
    SERVE_MIX in seeded order, in rounds of one request per client; the
    clients are quiesced (and the clock calibrated) between rounds."""

    name = "serve-mixed"
    setup_reps = 3
    nominal_pass_s = 0.9

    def __init__(self, bench) -> None:
        super().__init__(bench)
        self.service: Optional[SimulationService] = None
        #: (queue wait, launch duration) Timings of the served results.
        self.served: List[Tuple[Any, Any]] = []
        #: (pass index, traced, Timing) per round.
        self.rounds: List[Tuple[int, bool, Any]] = []

    def setup(self) -> None:
        b = self.bench
        if self.service is not None:
            # Free the previous set-up's service before building the
            # next, so two services never hold memory at once.
            self.service.close()
            self.service = None
            gc.collect()
        self.service = b.step(lambda: SimulationService(
            workers=1, queue_depth=SERVE_CLIENTS,
            session=ToolchainSession(cache=CompileCache(disk_dir=None))))
        for request in dict.fromkeys(SERVE_MIX):
            out = b.step(lambda: self._request(request))
            b.setup_check(out[2])

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def _request(self, request) -> Tuple[float, Any, Optional[str]]:
        """Submit one request and wait for it: (latency, result, error)."""
        app, build, engine = request
        t0 = time.perf_counter()
        try:
            result = self.service.submit_app(app, build=build, engine=engine).result(
                timeout=REQUEST_TIMEOUT_S)
        except Exception:
            return time.perf_counter() - t0, None, traceback.format_exc()
        latency = time.perf_counter() - t0
        if not result.ok:
            return latency, result, f"{app}/{build}: served result not ok"
        return latency, result, check_run(
            cell_key(app, build), result.profile, result.payload["max_error"])

    def _client(self, request, out: List, traced: bool) -> None:
        rec = self.bench.rec
        span = rec.begin("bench.op") if traced else None
        out.append(self._request(request))
        if span is not None:
            rec.end(span)

    def measure(self) -> None:
        b = self.bench
        pool = self.service.pool.stats
        base = (pool.builds, pool.reuses)
        for p in range(self.passes(len(SERVE_MIX))):
            order = b.rng.sample(SERVE_MIX, len(SERVE_MIX))
            traced = b.begin_pass(p)
            for i in range(0, len(order), SERVE_CLIENTS):
                self._round(p, order[i:i + SERVE_CLIENTS], traced)
            b.end_pass(traced)
        self.pool_delta = (pool.builds - base[0], pool.reuses - base[1])

    def _round(self, index: int, requests, traced: bool) -> None:
        b = self.bench
        out: List[Tuple[float, Any, Optional[str]]] = []
        threads = [threading.Thread(target=self._client, args=(request, out, traced),
                                    name=f"perfbench-client-{c}")
                   for c, request in enumerate(requests)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(REQUEST_TIMEOUT_S * len(requests))
        raw = time.perf_counter() - t0
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve-mixed client did not finish")
        self.rounds.append((index, traced, b.clock.stamp(raw)))
        for latency, result, error in out:
            b.record_op(b.clock.stamp(latency), error, traced)
            if result is not None and result.ok:
                self.served.append((b.clock.stamp(result.queue_wait_s),
                                    b.clock.stamp(result.duration_s)))
        b.clock.account(raw)

    def busy_time(self) -> float:
        """Reference seconds the measured rounds took (wall, 2 clients)."""
        return sum(t.ref for _, _, t in self.rounds)

    def overhead_samples(self) -> Tuple[List[float], List[float]]:
        per_pass: Dict[int, float] = {}
        traced_pass: Dict[int, bool] = {}
        for index, traced, t in self.rounds:
            per_pass[index] = per_pass.get(index, 0.0) + t.ref
            traced_pass[index] = traced
        return ([v for i, v in per_pass.items() if traced_pass[i]],
                [v for i, v in per_pass.items() if not traced_pass[i]])

    def layer_metrics(self) -> Dict[str, float]:
        waits = [w.ref for w, _ in self.served]
        builds, reuses = self.pool_delta
        stats = self.service.stats
        return {
            "serve.queue_wait_p50_s": quantile(waits, 0.5),
            "serve.queue_wait_p90_s": quantile(waits, 0.9),
            "serve.service_s": sum(d.ref for _, d in self.served) / len(waits),
            "serve.pool_reuse_ratio": reuses / max(1, builds + reuses),
            "serve.compiles": stats.compiles,
            "serve.retried": stats.retried,
            "serve.rejected": stats.rejected,
        }


WORKLOADS = {w.name: w for w in (CompileCold, SweepDecoded, SweepWarp, ServeMixed)}
