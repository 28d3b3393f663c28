"""Near-zero-overhead guard: with tracing disabled, the simulator must
execute the exact pre-tracing hot loops — no traced variants, no
per-instruction attribution, no phase logging."""

from __future__ import annotations

import time

import pytest

from repro.bench.builds import BUILD_ORDER, build_options
from repro.bench.harness import APPS
from repro.trace import NULL_COLLECTOR, TraceCollector
from repro.trace.collector import get_collector, install, reset
from repro.vgpu import GPUConfig, LaunchSpec, VirtualGPU
from repro.vgpu import decode as decode_mod
from tests.conftest import PER_OP, engine_mode

SIZE = {"n_atoms": 64, "n_neighbors": 4}


def _launch(label, trace=None):
    app = APPS["testsnap"]
    options = build_options()[BUILD_ORDER[0]]
    from repro.toolchain.service import ToolchainSession

    compiled = ToolchainSession().compile(app.build_program(SIZE), options)
    with engine_mode(label) as engine:
        gpu = VirtualGPU(compiled.module, config=GPUConfig(), engine=engine,
                         trace=trace)
        host_args, _ = app.prepare(gpu, SIZE)
        args = compiled.abi(app.KERNEL).marshal(gpu, host_args)
        profile = gpu.run(LaunchSpec(kernel=app.KERNEL, num_teams=app.TEAMS,
                                     threads_per_team=app.THREADS,
                                     args=args)).profile
    return gpu, profile


class TestDisabledPath:
    def test_disabled_collector_is_the_shared_noop_singleton(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset()
        try:
            assert get_collector() is NULL_COLLECTOR
        finally:
            reset()

    def test_gpu_trace_is_none_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset()
        try:
            gpu, _ = _launch("decoded")
            assert gpu._trace is None
        finally:
            reset()

    @pytest.mark.parametrize("engine", [PER_OP, "decoded"])
    def test_traced_loops_never_run_when_disabled(self, engine, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - must not execute
            raise AssertionError("traced loop entered with tracing disabled")

        monkeypatch.setattr(decode_mod, "_run_thread_traced", boom)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset()
        try:
            _, profile = _launch(engine)
        finally:
            reset()
        # ...and the trace-only fields stay untouched.
        assert profile.function_cycles == {}

    @pytest.mark.parametrize("engine", [PER_OP, "decoded"])
    def test_traced_loops_do_run_when_enabled(self, engine):
        collector = TraceCollector()
        with install(collector):
            _, profile = _launch(engine, trace=collector)
        assert profile.function_cycles
        assert any(e.get("ph") == "C" and e["name"] == "runtime_overhead"
                   for e in collector.events_snapshot())


class TestBenchMachineryStaysOffHotPath:
    """The microbenchmark suite must cost a plain launch nothing: no
    imports, no extra Python per instruction."""

    def test_plain_launch_never_imports_bench_observability(self, monkeypatch):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.bench.harness import APPS\n"
            "from repro.bench.builds import BUILD_ORDER, build_options\n"
            "from repro.toolchain.service import ToolchainSession\n"
            "from repro.vgpu import GPUConfig, LaunchSpec, VirtualGPU\n"
            "app = APPS['testsnap']\n"
            "size = {'n_atoms': 64, 'n_neighbors': 4}\n"
            "compiled = ToolchainSession().compile(\n"
            "    app.build_program(size), build_options()[BUILD_ORDER[0]])\n"
            "gpu = VirtualGPU(compiled.module, config=GPUConfig())\n"
            "host_args, _ = app.prepare(gpu, size)\n"
            "args = compiled.abi(app.KERNEL).marshal(gpu, host_args)\n"
            "gpu.run(LaunchSpec(kernel=app.KERNEL, num_teams=app.TEAMS,\n"
            "                   threads_per_team=app.THREADS, args=args))\n"
            "assert 'repro.bench.micro' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("engine", [PER_OP, "decoded"])
    def test_profile_summary_reads_only_existing_counters(self, engine,
                                                          monkeypatch):
        """``profile_summary`` is pure post-hoc aggregation: asking for
        it after an untraced launch must not re-enter any traced loop
        or populate trace-only fields."""
        def boom(*a, **k):  # pragma: no cover - must not execute
            raise AssertionError("traced loop entered for profile_summary")

        monkeypatch.setattr(decode_mod, "_run_thread_traced", boom)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset()
        try:
            gpu, profile = _launch(engine)
        finally:
            reset()
        from repro.trace.snapshot import profile_summary

        summary = profile_summary(profile)
        assert profile.function_cycles == {}
        assert summary["barriers"]["total"] >= 0
        # Consistent with the fast-path counters the launch did keep.
        assert sum(summary["runtime_calls"].values()) == sum(
            profile.runtime_calls.values()
        )


@pytest.mark.trace
def test_disabled_tracing_throughput_guard():
    """Generous wall-clock smoke: the best of three disabled-trace
    launches must be faster than ten times the best of three
    enabled-trace launches, which do strictly more bookkeeping.  It
    catches the failure mode where the disabled path accidentally
    routes through the traced loop *and* the traced loop grows
    pathological; that the disabled path never enters the traced
    loops at all is pinned structurally by :class:`TestDisabledPath`,
    and the host-wall cost of the engines by perfbench's workloads."""
    reset()
    try:
        def timed(trace):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                _launch("decoded", trace=trace)
                best = min(best, time.perf_counter() - t0)
            return best

        with install(NULL_COLLECTOR):
            disabled = timed(None)
        collector = TraceCollector()
        with install(collector):
            enabled = timed(collector)
        assert disabled < enabled * 10, (disabled, enabled)
    finally:
        reset()
