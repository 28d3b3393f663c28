"""Benchmark-side spans around calls into each layer's public functions.

Nothing inside ``src/`` is traced.  For a traced pass, :class:`LayerTracer`
swaps the public entry points of ``repro.frontend``, ``repro.ir``,
``repro.passes``, ``repro.toolchain``, ``repro.vgpu``, ``repro.apps`` and
``repro.serve`` for thin wrappers that record a span around the
original call, and puts the originals back afterwards, so untraced
passes run the unmodified program.

A span's *self time* is its duration minus the time its child spans
(same thread, strictly nested) cover.  Under every ``bench.op`` root the
self times of all spans add up to the op's duration exactly; the
benchmark's own glue is the root's self time, reported as
``bench.self_s``.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers, in the order their self times are reported.
LAYERS = ("frontend", "ir", "passes", "toolchain", "vgpu", "apps", "serve", "bench")


class Span:
    __slots__ = ("name", "start", "end", "child_s", "parent", "op", "phase",
                 "attrs", "window", "factor")

    def __init__(self, name: str, parent: Optional["Span"], phase: str) -> None:
        self.name = name
        self.parent = parent
        self.op = parent.op if parent is not None else None
        self.phase = phase
        self.attrs: Dict[str, Any] = {}
        self.child_s = 0.0
        self.window = 0
        self.factor = 1.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        """Duration in reference seconds (after SpanRecorder.scale())."""
        return (self.end - self.start) * self.factor

    @property
    def self_s(self) -> float:
        return (self.end - self.start - self.child_s) * self.factor


class SpanRecorder:
    """Thread-aware in-memory span store; *clock* (a RefClock) tells
    which calibration window each span ended in."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.phase)
        if span.op is None and name == "bench.op":
            span.op = span
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.window = self.clock.window
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        with self._lock:
            self.spans.append(span)

    def scale(self) -> None:
        """Convert every span to reference seconds (after clock.finish())."""
        for span in self.spans:
            span.factor = self.clock.factor(span.window)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced


class LayerTracer:
    """Installs and removes the layer wrappers.

    *cell_of(program_name, options)* names the app x build cell of a
    compile (or None), so ``vgpu.run`` spans can be attributed per cell.
    """

    def __init__(self, rec: SpanRecorder,
                 cell_of: Callable[[str, Any], Optional[str]]) -> None:
        self.rec = rec
        self.cell_of = cell_of
        self._saved: List[Tuple[Any, str, Any]] = []
        #: id(module) -> cell, filled by traced compiles.
        self._module_cell: Dict[int, str] = {}

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.rec.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        from repro.bench.harness import APPS
        from repro.frontend import abi, driver
        from repro.passes import pipeline
        from repro.serve.pool import DevicePool
        from repro.serve.service import ServeJob, SimulationService
        from repro.toolchain.service import ToolchainSession
        from repro.vgpu import ENGINE_WARP, VirtualGPU

        rec = self.rec
        self._wrap(driver, "lower_program_openmp", "frontend.lower")
        self._wrap(driver, "lower_program_cuda", "frontend.lower")
        self._wrap(driver, "verify_module", "ir.verify")
        self._wrap(driver, "run_openmp_opt_pipeline", "passes.pipeline")
        self._wrap(abi.KernelABI, "marshal", "frontend.marshal")
        for obj in vars(pipeline).values():
            if (isinstance(obj, type) and "run" in vars(obj)
                    and isinstance(vars(obj).get("name"), str)):
                self._wrap(obj, "run", f"passes.{obj.name}")

        compile_ = ToolchainSession.compile

        def traced_compile(session, program, options=None):
            span = rec.begin("toolchain.compile")
            misses = session.cache.stats.misses if session.cache else None
            try:
                compiled = compile_(session, program, options)
            finally:
                rec.end(span)
            span.attrs["miss"] = (misses is None
                                  or session.cache.stats.misses > misses)
            if span.attrs["miss"] and compiled.stats is not None:
                span.attrs["insts_removed"] = (
                    compiled.stats.total_instructions_removed())
            cell = self.cell_of(program.name, compiled.options)
            if cell is not None:
                self._module_cell[id(compiled.module)] = cell
            return compiled

        self._patch(ToolchainSession, "compile", traced_compile)

        self._wrap(VirtualGPU, "__init__", "vgpu.build")
        self._wrap(VirtualGPU, "reset_device", "vgpu.reset")
        run_ = VirtualGPU.run

        def traced_run(gpu, spec):
            span = rec.begin("vgpu.run")
            try:
                result = run_(gpu, spec)
            finally:
                rec.end(span)
            engine = spec.engine or gpu.engine
            span.attrs["cell"] = self._module_cell.get(id(gpu.module))
            span.attrs["insts"] = result.profile.instructions
            span.attrs["warp"] = engine == ENGINE_WARP
            span.attrs["fallback"] = engine == ENGINE_WARP and not gpu._warp_lockstep_ok
            return result

        self._patch(VirtualGPU, "run", traced_run)

        for app in APPS.values():
            self._wrap(app, "build_program", "apps.build_program")
            prepare_ = app.prepare

            def traced_prepare(gpu, size, _prepare=prepare_):
                span = rec.begin("apps.prepare")
                try:
                    host_args, verify = _prepare(gpu, size)
                finally:
                    rec.end(span)
                return host_args, rec.wrap("apps.verify", verify)

            self._patch(app, "prepare", traced_prepare)

        self._wrap(SimulationService, "submit_app", "serve.submit")
        self._wrap(ServeJob, "result", "serve.wait")
        self._wrap(DevicePool, "acquire", "serve.pool_acquire")
        self._wrap(DevicePool, "release", "serve.pool_release")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: List[Span], pass_names: List[str],
                  cells: List[str]) -> Dict[str, float]:
    """Per-layer numbers from the traced spans (reference seconds).

    Compile-internal layers (frontend.lower, ir.verify, passes.*) are
    per cold compile; every other ``_s`` metric is per call, except the
    ``<layer>.self_s`` family, which is per op.
    """
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    compiles = by_name["toolchain.compile"]
    misses = [s for s in compiles if s.attrs["miss"]]
    hits = [s for s in compiles if not s.attrs["miss"]]
    n_cold = max(1, len(misses))

    def per_cold(name: str) -> float:
        return sum(s.dur for s in by_name[name]) / n_cold

    out: Dict[str, float] = {
        "frontend.lower_s": per_cold("frontend.lower"),
        "ir.verify_s": per_cold("ir.verify"),
        "passes.pipeline_s": per_cold("passes.pipeline"),
    }
    for name in pass_names:
        out[f"passes.{name}_s"] = per_cold(f"passes.{name}")
    out["passes.insts_removed"] = _mean(
        [s.attrs["insts_removed"] for s in misses if "insts_removed" in s.attrs])
    out["toolchain.compile_miss_s"] = _mean([s.dur for s in misses])
    out["toolchain.compile_hit_s"] = _mean([s.dur for s in hits])
    out["toolchain.hit_ratio"] = len(hits) / len(compiles) if compiles else 0.0

    runs = by_name["vgpu.run"]
    first = [s for s in runs if s.phase == "setup"]
    measured = [s for s in runs if s.phase == "run"]
    out["vgpu.build_s"] = _mean([s.dur for s in by_name["vgpu.build"]])
    out["vgpu.first_launch_s"] = _mean([s.dur for s in first])
    out["vgpu.run_s"] = _mean([s.dur for s in measured])
    run_time = sum(s.dur for s in measured)
    out["vgpu.insts_per_s"] = (sum(s.attrs["insts"] for s in measured) / run_time
                               if run_time else 0.0)
    per_cell: Dict[str, List[float]] = defaultdict(list)
    for span in measured:
        per_cell[span.attrs["cell"]].append(span.dur)
    for cell in cells:
        durs = per_cell.get(cell)
        out[f"vgpu.run_s.{cell}"] = statistics.median(durs) if durs else 0.0
    warp = [s for s in measured if s.attrs["warp"]]
    out["vgpu.warp_fallback_ratio"] = (
        sum(s.attrs["fallback"] for s in warp) / len(warp) if warp else 0.0)
    out["apps.prepare_s"] = _mean([s.dur for s in by_name["apps.prepare"]])
    out["apps.verify_s"] = _mean([s.dur for s in by_name["apps.verify"]])
    return out


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], float, int]:
    """Per-layer self time summed over the spans under ``bench.op``
    roots, the summed op time, and the op count."""
    per_layer = {layer: 0.0 for layer in LAYERS}
    op_total = 0.0
    ops = 0
    for span in spans:
        if span.op is None:
            continue
        per_layer[span.layer] += span.self_s
        if span.op is span:
            op_total += span.dur
            ops += 1
    return per_layer, op_total, ops
