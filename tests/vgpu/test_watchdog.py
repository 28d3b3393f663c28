"""A launch's time budget, ``LaunchSpec.deadline_s``.

The team driver honours it as a cooperative abort
(:class:`repro.vgpu.CooperativeWatchdog`, counted from ``run()``):
teams poll the deadline at phase boundaries, whichever engine runs
them, and an expiry raises :class:`WatchdogExpired`.
"""

import time

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


def test_fast_launch_beats_the_watchdog():
    gpu = VirtualGPU(_barrier_loop_module(3), engine="warp")
    result = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                threads_per_team=2, deadline_s=30.0))
    assert result.executed_engine == "warp"
    assert result.profile.cycles > 0


def test_watchdog_aborts_a_long_serial_launch():
    # Regression: the team driver used to ignore the budget silently.
    gpu = VirtualGPU(_barrier_loop_module(500_000))
    with pytest.raises(WatchdogExpired, match="watchdog"):
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                           deadline_s=0.05))


def test_fast_serial_launch_beats_the_watchdog():
    gpu = VirtualGPU(_barrier_loop_module(3))
    profile = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                 threads_per_team=2, deadline_s=30.0)).profile
    assert profile.cycles > 0


@pytest.mark.parametrize("label", ENGINE_LABELS)
def test_every_engine_honours_the_watchdog(label):
    with engine_mode(label) as engine:
        gpu = VirtualGPU(_barrier_loop_module(500_000), engine=engine)
        with pytest.raises(WatchdogExpired, match="team 0 of @kern"):
            gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                               deadline_s=0.02))


def test_zero_budget_expires_at_once_instead_of_disabling():
    """A spent budget (0 s left, as the serve layer passes on) aborts
    the launch at its first poll; 0 never means "no budget"."""
    gpu = VirtualGPU(_barrier_loop_module(500_000))
    with pytest.raises(WatchdogExpired):
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                           deadline_s=0.0))


def test_budget_counts_from_run_not_from_spec_construction():
    spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                      deadline_s=0.5)
    time.sleep(0.6)  # longer than the budget, before the launch
    result = VirtualGPU(_barrier_loop_module(3)).run(spec)
    assert result.profile.cycles > 0


def test_stale_watchdog_env_var_is_ignored(monkeypatch):
    """``REPRO_WATCHDOG_S`` is gone: a leftover setting in the
    environment can no longer abort a launch that has no budget."""
    monkeypatch.setenv("REPRO_WATCHDOG_S", "0.000001")
    result = VirtualGPU(_barrier_loop_module(2_000)).run(
        LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2))
    assert result.spec.deadline_s is None
    assert result.profile.cycles > 0
