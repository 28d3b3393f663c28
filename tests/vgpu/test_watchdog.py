"""Wall-clock watchdog for team simulation.

The team driver honours a cooperative abort
(:class:`repro.vgpu.CooperativeWatchdog`): teams poll the deadline at
phase boundaries, whichever engine runs them.
"""

import pytest

from repro.ir import I64, Module, verify_module
from repro.vgpu import LaunchSpec, VirtualGPU, WatchdogExpired
from tests.conftest import ENGINE_LABELS, engine_mode, make_kernel


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


def test_watchdog_env_knob_is_honoured(monkeypatch):
    monkeypatch.setenv("REPRO_WATCHDOG_S", "0.05")
    gpu = VirtualGPU(_barrier_loop_module(500_000))
    with pytest.raises(WatchdogExpired):
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2))


def test_fast_launch_beats_the_watchdog():
    gpu = VirtualGPU(_barrier_loop_module(3), engine="warp")
    result = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                threads_per_team=2, watchdog_s=30.0))
    assert result.executed_engine == "warp"
    assert result.profile.cycles > 0


def test_watchdog_aborts_a_long_serial_launch():
    # Regression: the team driver used to ignore watchdog_s silently.
    gpu = VirtualGPU(_barrier_loop_module(500_000))
    with pytest.raises(WatchdogExpired, match="watchdog"):
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                           watchdog_s=0.05))


def test_fast_serial_launch_beats_the_watchdog():
    gpu = VirtualGPU(_barrier_loop_module(3))
    profile = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                 threads_per_team=2, watchdog_s=30.0)).profile
    assert profile.cycles > 0


@pytest.mark.parametrize("label", ENGINE_LABELS)
def test_every_engine_honours_the_watchdog(label):
    with engine_mode(label) as engine:
        gpu = VirtualGPU(_barrier_loop_module(500_000), engine=engine)
        with pytest.raises(WatchdogExpired, match="team 0 of @kern"):
            gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                               watchdog_s=0.02))
