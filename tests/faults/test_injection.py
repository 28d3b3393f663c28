"""Fault injection fires identically in every engine.

The acceptance criterion of the robustness work: the same FaultPlan
produces the same exception — type, frozen message, attached device
context — under per-op and fused decoded execution and the warp engine
(whose armed teams take the decoded fallback); and a plan that never
fires leaves the KernelProfile bit-identical.  (The compiled-app version of these checks — including
CrashReport comparability — runs in ``tests/bench/test_faults_cli.py``
and ``python -m repro.bench faults``.)
"""

import pytest

from repro.ir import I64, Module, verify_module
from repro.vgpu import BarrierDivergence, InjectedFault, LaunchSpec, VirtualGPU
from tests.conftest import ENGINE_LABELS, engine_mode, make_kernel

GEOMETRY = dict(num_teams=1, threads_per_team=1)


def _malloc_module():
    """kern(): three device mallocs, then return."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    for _ in range(3):
        b.intrinsic("malloc", [b.i64(16)])
    b.ret()
    verify_module(module)
    return module


def _barrier_module():
    """kern(): one team-wide barrier, then return."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    b.barrier()
    b.ret()
    verify_module(module)
    return module


def _divergent_barrier_module():
    """kern(): thread 0 and thread 1 arrive at *different* aligned barriers."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    left = func.add_block("left")
    right = func.add_block("right")
    done = func.add_block("done")
    tid = b.thread_id()
    b.cond_br(b.icmp("eq", tid, b.i32(0)), left, right)
    b.set_insert_point(left)
    b.aligned_barrier()
    b.br(done)
    b.set_insert_point(right)
    b.aligned_barrier()
    b.br(done)
    b.set_insert_point(done)
    b.ret()
    verify_module(module)
    return module


def _failure(module, label, faults, sanitize=False, threads=1):
    with engine_mode(label) as engine:
        gpu = VirtualGPU(module, engine=engine, faults=faults,
                         sanitize=sanitize)
        with pytest.raises(Exception) as excinfo:
            gpu.run(LaunchSpec(kernel="kern", threads_per_team=threads))
    return excinfo.value


class TestMallocFail:
    def test_fires_at_the_nth_malloc_with_the_frozen_message(self):
        for label in ENGINE_LABELS:
            exc = _failure(_malloc_module(), label, "malloc_fail:n=2")
            assert isinstance(exc, InjectedFault)
            assert str(exc) == ("injected device malloc failure #2 in @kern "
                                "(team 0, thread 0)")

    def test_context_is_identical_across_engines(self):
        contexts = []
        for label in ENGINE_LABELS:
            exc = _failure(_malloc_module(), label, "malloc_fail:n=2")
            assert exc.context is not None
            contexts.append(exc.context.to_dict())
        assert all(ctx == contexts[0] for ctx in contexts)
        assert contexts[0]["function"] == "kern"

    def test_failed_malloc_is_not_counted(self):
        gpu = VirtualGPU(_malloc_module(), faults="malloc_fail:n=2")
        with pytest.raises(InjectedFault):
            gpu.run(LaunchSpec(kernel="kern"))
        # Only the first malloc completed before the injected failure.
        assert gpu.memory.global_seg.brk > 0  # device is still sane


class TestZeroPerturbation:
    def test_armed_plan_that_never_fires_leaves_the_profile_identical(self):
        module = _malloc_module()
        spec = LaunchSpec(kernel="kern", **GEOMETRY)
        baseline = VirtualGPU(module).run(spec).profile
        armed = VirtualGPU(module, faults="malloc_fail:n=99").run(spec).profile
        assert armed.to_dict() == baseline.to_dict()
        assert armed.device_mallocs == 3


class TestBarrierSkip:
    def test_sanitizer_turns_the_hang_into_a_diagnostic(self):
        messages = []
        for label in ENGINE_LABELS:
            exc = _failure(_barrier_module(), label, "barrier_skip:n=1",
                           sanitize=True, threads=2)
            assert isinstance(exc, BarrierDivergence)
            assert exc.team == 0
            messages.append(str(exc))
        assert len(set(messages)) == 1
        assert "finished the kernel while threads" in messages[0]

    def test_without_sanitizer_the_simulator_releases_the_barrier(self):
        # On hardware this hangs; the simulator completes the launch so
        # the sanitize=True diagnostic is strictly additive.
        gpu = VirtualGPU(_barrier_module(), faults="barrier_skip:n=1")
        profile = gpu.run(LaunchSpec(kernel="kern",
                                     threads_per_team=2)).profile
        assert profile.cycles > 0


class TestDivergentAlignedBarriers:
    def test_sanitizer_flags_mismatched_aligned_barriers(self):
        messages = []
        for label in ENGINE_LABELS:
            with engine_mode(label) as engine:
                gpu = VirtualGPU(_divergent_barrier_module(), engine=engine,
                                 sanitize=True)
                with pytest.raises(BarrierDivergence) as excinfo:
                    gpu.run(LaunchSpec(kernel="kern", threads_per_team=2))
            messages.append(str(excinfo.value))
        assert len(set(messages)) == 1
        assert "different aligned barrier instructions" in messages[0]
