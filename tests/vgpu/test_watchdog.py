"""Wall-clock watchdog for team simulation — serial and parallel.

Both phase drivers honour the same cooperative abort
(:class:`repro.vgpu.CooperativeWatchdog`): teams poll the deadline at
phase boundaries, so ``sim_jobs=1`` launches are bounded exactly like
``sim_jobs=N`` ones (historically the serial path ignored
``watchdog_s`` silently).
"""

import pytest

from repro.ir import I64, Module, verify_module
from repro.vgpu import LaunchSpec, VirtualGPU, WatchdogExpired
from tests.conftest import make_kernel


def _barrier_loop_module(iterations):
    """kern(): *iterations* barrier phases — abortable at each one."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    entry = b.block
    loop = func.add_block("loop")
    done = func.add_block("done")
    b.br(loop)
    b.set_insert_point(loop)
    i = b.phi(I64, "i")
    i.add_incoming(b.i64(0), entry)
    b.barrier()
    ni = b.add(i, b.i64(1))
    i.add_incoming(ni, loop)
    b.cond_br(b.icmp("slt", ni, b.i64(iterations)), loop, done)
    b.set_insert_point(done)
    b.ret()
    verify_module(module)
    return module


def test_watchdog_aborts_a_long_parallel_launch():
    gpu = VirtualGPU(_barrier_loop_module(500_000))
    with pytest.raises(WatchdogExpired, match="watchdog"):
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                           sim_jobs=2, watchdog_s=0.05))


def test_watchdog_env_knob_is_honoured(monkeypatch):
    monkeypatch.setenv("REPRO_WATCHDOG_S", "0.05")
    gpu = VirtualGPU(_barrier_loop_module(500_000))
    with pytest.raises(WatchdogExpired):
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                           sim_jobs=2))


def test_fast_launch_beats_the_watchdog():
    gpu = VirtualGPU(_barrier_loop_module(3))
    profile = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                 threads_per_team=2, sim_jobs=2,
                                 watchdog_s=30.0)).profile
    assert profile.cycles > 0


def test_watchdog_aborts_a_long_serial_launch():
    # Regression: the serial (sim_jobs=1) phase driver used to ignore
    # watchdog_s silently; it now polls the same cooperative deadline
    # the parallel driver uses.
    gpu = VirtualGPU(_barrier_loop_module(500_000))
    with pytest.raises(WatchdogExpired, match="watchdog"):
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                           watchdog_s=0.05))


def test_fast_serial_launch_beats_the_watchdog():
    gpu = VirtualGPU(_barrier_loop_module(3))
    profile = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                 threads_per_team=2, watchdog_s=30.0)).profile
    assert profile.cycles > 0


def test_serial_and_parallel_watchdogs_raise_the_same_type():
    for sim_jobs in (1, 2):
        gpu = VirtualGPU(_barrier_loop_module(500_000))
        with pytest.raises(WatchdogExpired):
            gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                               sim_jobs=sim_jobs, watchdog_s=0.02))
