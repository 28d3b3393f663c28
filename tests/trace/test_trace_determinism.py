"""Trace determinism: fused decoded execution must agree with the
per-op reference on every trace-visible counter and event.

Device events are assembled post-merge from per-team phase logs (in
team order), never while teams run — these tests pin that design.
"""

from __future__ import annotations

import pytest

from repro.bench.builds import BUILD_ORDER, build_options
from repro.bench.harness import APPS
from repro.frontend.driver import CompileOptions
from repro.passes.pass_manager import PipelineConfig
from repro.trace import PID_DEVICE, TraceCollector
from repro.trace.collector import install
from tests.conftest import PER_OP, engine_mode

SIZE = {"n_atoms": 64, "n_neighbors": 4}
GEOMETRY = dict(num_teams=4, threads_per_team=32)

#: Build cells: an optimized build (runtime inlined away, counters near
#: zero) and an -O0 build (raw runtime call traffic, §III categories).
CELLS = {
    "optimized": lambda: build_options()[BUILD_ORDER[0]],
    "o0": lambda: CompileOptions(pipeline=PipelineConfig.o0()),
}


def _traced_run(options, label):
    collector = TraceCollector()
    with install(collector), engine_mode(label) as engine:
        result = APPS["testsnap"].run(
            options, size=SIZE, engine=engine, **GEOMETRY
        )
    assert result.verified
    return result.profile, collector


def _device_events(collector):
    return [e for e in collector.events_snapshot() if e.get("pid") == PID_DEVICE]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_legacy_vs_decoded_trace_equal(cell):
    """Fused decoded traces equal the per-op reference's (the test id
    predates it: the reference used to be the legacy engine)."""
    options = CELLS[cell]()
    ref_profile, ref = _traced_run(options, PER_OP)
    decoded_profile, decoded = _traced_run(options, "decoded")

    assert ref_profile.runtime_calls == decoded_profile.runtime_calls
    assert ref_profile.barriers_aligned == decoded_profile.barriers_aligned
    assert ref_profile.barriers_unaligned == decoded_profile.barriers_unaligned
    assert ref_profile.device_mallocs == decoded_profile.device_mallocs
    assert ref_profile.device_frees == decoded_profile.device_frees
    assert ref_profile.function_cycles == decoded_profile.function_cycles
    assert ref_profile.overhead_counters() == decoded_profile.overhead_counters()
    # Both run the decoded engine: the device timelines are identical,
    # engine label included.
    assert _device_events(ref) == _device_events(decoded)


def test_o0_build_shows_raw_runtime_traffic():
    """The measured face of the paper's claim: without openmp-opt the
    runtime call categories are hot; the optimized build zeroes them."""
    o0_profile, _ = _traced_run(CELLS["o0"](), "decoded")
    opt_profile, _ = _traced_run(CELLS["optimized"](), "decoded")

    assert o0_profile.runtime_calls["target_init"] > 0
    assert o0_profile.runtime_calls["parallel_region"] > 0
    assert o0_profile.runtime_calls["worksharing"] > 0
    assert sum(opt_profile.runtime_calls.values()) < \
        sum(o0_profile.runtime_calls.values())
