"""Fig. 11 — kernel time, register count and static shared memory for
every app × build.  The SMem column is the sharpest co-design signal:
Old RT ~2.3KB, New RT (Nightly) ~11.8KB, optimized New RT 0B."""

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
from repro.bench.harness import APPS, SKIP_CUDA
from benchmarks.conftest import run_once

ALL_APPS = list(APPS)


def _cases():
    for app in ALL_APPS:
        for build in BUILD_ORDER:
            if app in SKIP_CUDA and build == CUDA:
                continue
            yield app, build


@pytest.mark.parametrize("app,build", list(_cases()),
                         ids=[f"{a}-{b}" for a, b in _cases()])
def test_fig11_row(benchmark, record, app, build):
    options = build_options()[build]
    result = run_once(benchmark, lambda: run_app(APPS[app], options))
    record(result, app=app, build=build, figure="fig11")


class TestFig11SMemPattern:
    """Static shared-memory shape across builds (fully-foldable apps)."""

    @pytest.mark.parametrize("app", ["xsbench", "rsbench", "testsnap"])
    def test_smem_columns(self, app):
        options = build_options()
        smem = {
            build: run_app(APPS[app], options[build]).profile.shared_memory_bytes
            for build in (OLD_RT_NIGHTLY, NEW_RT_NIGHTLY, NEW_RT_NO_ASSUME, NEW_RT)
        }
        assert 2000 < smem[OLD_RT_NIGHTLY] < 3000       # paper: 2,336B
        assert 10000 < smem[NEW_RT_NIGHTLY] < 13000     # paper: 11,304B
        assert smem[NEW_RT_NO_ASSUME] == 0              # paper: 0B
        assert smem[NEW_RT] == 0                        # paper: 0B

    def test_minifmm_keeps_partial_smem(self):
        options = build_options()
        smem = run_app(APPS["minifmm"], options[NEW_RT_NO_ASSUME]).profile.shared_memory_bytes
        assert 1500 < smem < 4000                       # paper: 3,076B


class TestFig11Registers:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_optimized_build_uses_fewest_registers_among_openmp(self, app):
        options = build_options()
        regs = {
            build: run_app(APPS[app], options[build]).profile.registers
            for build in (OLD_RT_NIGHTLY, NEW_RT_NIGHTLY, NEW_RT)
        }
        assert regs[NEW_RT] <= regs[NEW_RT_NIGHTLY]
        assert regs[NEW_RT] < regs[OLD_RT_NIGHTLY]

    @pytest.mark.parametrize("app", [a for a in ALL_APPS if a not in SKIP_CUDA])
    def test_openmp_registers_approach_cuda(self, app):
        options = build_options()
        new = run_app(APPS[app], options[NEW_RT]).profile.registers
        cuda = run_app(APPS[app], options[CUDA]).profile.registers
        assert new <= cuda + 8
