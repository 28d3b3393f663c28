"""Fig. 12 — GridMini floating-point throughput (GFlops) per build.

The flop count is identical across builds by construction, so the
GFlops series is a pure runtime-overhead measurement: the co-designed
runtime must match CUDA and the old runtime must trail."""

import pytest

from repro.apps.common import run_app
from repro.bench.builds import (
    BUILD_ORDER,
    CUDA,
    NEW_RT,
    NEW_RT_NIGHTLY,
    NEW_RT_NO_ASSUME,
    OLD_RT_NIGHTLY,
    build_options,
)
from repro.bench.harness import APPS
from benchmarks.conftest import run_once


@pytest.mark.parametrize("build", BUILD_ORDER)
def test_fig12_gridmini_build(benchmark, record, build):
    options = build_options()[build]
    result = run_once(benchmark, lambda: run_app(APPS["gridmini"], options))
    record(result, app="gridmini", build=build, figure="fig12")


class TestFig12Shape:
    @pytest.fixture(scope="class")
    def gflops(self):
        options = build_options()
        return {
            build: run_app(APPS["gridmini"], options[build]).profile.gflops
            for build in BUILD_ORDER
        }

    def test_new_rt_matches_cuda(self, gflops):
        assert abs(gflops[NEW_RT] - gflops[CUDA]) / gflops[CUDA] < 0.05

    def test_monotone_improvement_series(self, gflops):
        assert gflops[OLD_RT_NIGHTLY] <= gflops[NEW_RT_NIGHTLY] + 0.5
        assert gflops[NEW_RT_NIGHTLY] < gflops[NEW_RT_NO_ASSUME]
        assert gflops[NEW_RT_NO_ASSUME] <= gflops[NEW_RT] + 0.01

    def test_substantial_improvement_over_old(self, gflops):
        assert gflops[NEW_RT] / gflops[OLD_RT_NIGHTLY] > 1.05
