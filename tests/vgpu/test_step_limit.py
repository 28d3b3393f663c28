"""S2: step-limit accounting is pinned and engine-identical.

A runaway thread must be stopped after *exactly*
``max_steps_per_thread`` retired steps by both engines, with the same
frozen message and the same ``steps`` count in the attached context —
drift here would make StepLimitExceeded CrashReports engine-dependent.
"""

import numpy as np
import pytest

from repro.ir import I64, Module, verify_module
from repro.vgpu import GPUConfig, LaunchSpec, StepLimitExceeded, VirtualGPU
from tests.conftest import ENGINE_LABELS, PER_OP, engine_mode, make_kernel

LIMIT = 64


def _spin_module():
    """kern(): an infinite counting loop."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    entry = b.block
    loop = func.add_block("loop")
    b.br(loop)
    b.set_insert_point(loop)
    i = b.phi(I64, "i")
    i.add_incoming(b.i64(0), entry)
    ni = b.add(i, b.i64(1))
    i.add_incoming(ni, loop)
    b.br(loop)
    verify_module(module)
    return module


def _limit_hit(label):
    with engine_mode(label) as engine:
        gpu = VirtualGPU(_spin_module(),
                         config=GPUConfig(max_steps_per_thread=LIMIT),
                         engine=engine)
        with pytest.raises(StepLimitExceeded) as excinfo:
            gpu.run(LaunchSpec(kernel="kern"))
    return excinfo.value


def test_message_and_steps_are_engine_identical():
    results = [_limit_hit(label) for label in ENGINE_LABELS]
    messages = {str(e) for e in results}
    assert messages == {
        f"thread (0,0) exceeded {LIMIT} steps in @kern"}
    contexts = [e.context.to_dict() for e in results]
    assert all(ctx == contexts[0] for ctx in contexts)
    # The pin: the thread retired exactly LIMIT steps, in every engine.
    assert contexts[0]["steps"] == LIMIT
    assert contexts[0]["block"] == "loop"


def _long_body_module():
    """kern(): an infinite loop whose body is one fused run: 8 adds
    and the back-edge br."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    entry = b.block
    loop = func.add_block("loop")
    b.br(loop)
    b.set_insert_point(loop)
    i = b.phi(I64, "i")
    i.add_incoming(b.i64(0), entry)
    v = i
    for k in range(8):
        v = b.add(v, b.i64(k + 1))
    i.add_incoming(v, loop)
    b.br(loop)
    verify_module(module)
    return module


@pytest.mark.parametrize("limit", [59, 60, 64])
def test_limit_inside_a_fused_run_retires_exactly_max_steps(limit, monkeypatch):
    """1 entry op + 9 ops per iteration: 59 and 60 stop inside the
    9-op run, 64 right after it.  The run must fall back to per-op
    execution and retire exactly the budget, with the same counters and
    cycles as per-op execution."""
    from tests.vgpu.test_decode import _capture

    states = []
    for label in (PER_OP, "decoded"):
        with monkeypatch.context() as m, engine_mode(label) as engine:
            seen = _capture(m)
            gpu = VirtualGPU(_long_body_module(),
                             config=GPUConfig(max_steps_per_thread=limit),
                             engine=engine)
            with pytest.raises(StepLimitExceeded) as excinfo:
                gpu.run(LaunchSpec(kernel="kern"))
        (stats,), (thread,) = seen["stats"], seen["threads"]
        states.append((str(excinfo.value), excinfo.value.context.to_dict(),
                       thread.steps, thread.phase_cycles,
                       dict(stats.opcode_counts)))
    assert states[0] == states[1]
    assert states[1][2] == limit
    assert sum(states[1][4].values()) == limit


#: swap_loop_module steps: entry br, then per trip "condbr": mul add add
#: icmp condbr (5); "brn": icmp condbr | mul add add br (2 + 4).  Each
#: limit stops the thread one op before the latch, on the latch, or
#: right after it (the latch retired, at the next block's start).
SWAP_LOOP_LIMITS = {
    "condbr": {"before": 1 + 5 * 9 + 3, "on": 1 + 5 * 9 + 4, "after": 1 + 5 * 10},
    "brn": {"before": 1 + 6 * 9 + 2 + 2, "on": 1 + 6 * 9 + 2 + 3,
            "after": 1 + 6 * 10},
}


@pytest.mark.parametrize("latch", ["condbr", "brn"])
@pytest.mark.parametrize("stop", ["before", "on", "after"])
def test_limit_at_a_fused_block_terminator(latch, stop, monkeypatch):
    """The budget ends on the terminator of a block run, one op before
    it, or right after it: fused and per-op decoded retire the same
    steps and leave the same counters, cycles and position."""
    from repro.vgpu import decode as D
    from tests.vgpu.test_decode import _capture, swap_loop_module, where

    limit = SWAP_LOOP_LIMITS[latch][stop]
    states = []
    for label in (PER_OP, "decoded"):
        with monkeypatch.context() as m, engine_mode(label) as engine:
            seen = _capture(m)
            gpu = VirtualGPU(swap_loop_module(latch),
                             config=GPUConfig(max_steps_per_thread=limit),
                             engine=engine)
            out = gpu.alloc_array(np.zeros(3, dtype=np.int64))
            with pytest.raises(StepLimitExceeded) as excinfo:
                gpu.run(LaunchSpec(kernel="kern", args=(out, 1000)))
        (stats,), (thread,) = seen["stats"], seen["threads"]
        states.append((str(excinfo.value), excinfo.value.context.to_dict(),
                       where(thread), thread.steps, thread.phase_cycles,
                       dict(stats.opcode_counts), stats.flops))
    assert states[0] == states[1]
    assert states[1][3] == limit
    block, index = states[1][2]
    code = D.bind_function(gpu, gpu.module.get_function("kern")).code
    pcs, names = code.block_starts
    op = code.ops[pcs[names.index(block)] + index]
    if stop == "on":
        assert op[0] in D._TERMINATORS
    elif stop == "before":
        assert code.ops[pcs[names.index(block)] + index + 1][0] in D._TERMINATORS
    else:
        assert index == 0
