"""Zero-overhead guard: a clean launch never touches the fault or
sanitizer machinery.

The engines gate every hook behind ``thread.faults is not None`` and
select the sanitized memory system / slow decode handlers only at
construction time.  These tests booby-trap the machinery and run a
clean launch: if any guarded path is consulted, the booby trap fires
and the test fails — the executable form of the "sanitizer-off
overhead is zero extra cycles" acceptance criterion.
"""

import pytest

from repro.faults.plan import TeamFaultState
from repro.ir import I64, Module, verify_module
from repro.vgpu import LaunchSpec, VirtualGPU
from repro.vgpu import sanitizer as sanitizer_mod
from repro.vgpu.config import ENGINES
from tests.conftest import make_kernel


def _busy_module():
    """kern(): malloc + barrier + arithmetic — every hook site's path."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    ptr = b.intrinsic("malloc", [b.i64(16)])
    b.store(b.i64(7), ptr)
    b.load(I64, ptr)
    b.barrier()
    b.intrinsic("free", [ptr])
    b.ret()
    verify_module(module)
    return module


@pytest.fixture
def booby_trapped(monkeypatch):
    """Make every fault hook and the sanitizer constructor explode."""

    def boom(*args, **kwargs):
        raise AssertionError("clean launch touched the robustness machinery")

    for hook in ("on_runtime_call", "on_device_malloc", "skip_barrier"):
        monkeypatch.setattr(TeamFaultState, hook, boom)
    monkeypatch.setattr(
        sanitizer_mod.SanitizedMemorySystem, "__init__", boom)


@pytest.mark.parametrize("engine", ENGINES)
def test_clean_launch_never_consults_the_machinery(booby_trapped, engine):
    gpu = VirtualGPU(_busy_module(), engine=engine)
    profile = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                 threads_per_team=4)).profile
    assert profile.device_mallocs == 2 * 4  # the launch really ran


@pytest.mark.parametrize("engine", ENGINES)
def test_fault_run_does_consult_it(engine):
    """Control for the guard: with a plan armed, the hooks *are* live."""
    gpu = VirtualGPU(_busy_module(), engine=engine, faults="malloc_fail:n=1")
    with pytest.raises(Exception):
        gpu.run(LaunchSpec(kernel="kern"))


def test_plain_gpu_uses_the_plain_memory_system():
    gpu = VirtualGPU(_busy_module())
    assert type(gpu.memory).__name__ == "MemorySystem"
    assert gpu.fault_plan is None
