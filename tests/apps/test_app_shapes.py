"""Per-app qualitative shapes from the paper's evaluation (§V), on
reduced problem sizes.  Absolute numbers are not asserted — orderings
and resource categories are."""

import pytest

from repro.apps import gridmini, minifmm, rsbench, xsbench
from repro.apps.common import run_app
from repro.bench.builds import (
    CUDA,
    NEW_RT,
    NEW_RT_NIGHTLY,
    NEW_RT_NO_ASSUME,
    OLD_RT_NIGHTLY,
    build_options,
)


@pytest.fixture(scope="module")
def xs_matrix():
    options = build_options()
    return {b: run_app(xsbench, o) for b, o in options.items()}


@pytest.fixture(scope="module")
def grid_matrix():
    options = build_options()
    return {b: run_app(gridmini, o) for b, o in options.items()}


@pytest.fixture(scope="module")
def fmm_matrix():
    options = build_options()
    return {b: run_app(minifmm, o) for b, o in options.items()}


class TestXSBenchShapes:
    def test_new_rt_beats_old_rt(self, xs_matrix):
        assert xs_matrix[NEW_RT].cycles < xs_matrix[OLD_RT_NIGHTLY].cycles

    def test_new_rt_close_to_cuda(self, xs_matrix):
        """Paper: within ~5% of CUDA with assumptions enabled."""
        gap = xs_matrix[NEW_RT].cycles / xs_matrix[CUDA].cycles
        assert gap < 1.10

    def test_cuda_still_fastest(self, xs_matrix):
        """§VII: the by-reference aggregate keeps a small residual gap."""
        assert xs_matrix[CUDA].cycles <= xs_matrix[NEW_RT].cycles

    def test_smem_pattern(self, xs_matrix):
        """Fig. 11: old ~2.3KB, new-nightly ~11.3KB, optimized 0."""
        assert 2000 < xs_matrix[OLD_RT_NIGHTLY].profile.shared_memory_bytes < 3000
        assert xs_matrix[NEW_RT_NIGHTLY].profile.shared_memory_bytes > 10000
        assert xs_matrix[NEW_RT_NO_ASSUME].profile.shared_memory_bytes == 0
        assert xs_matrix[NEW_RT].profile.shared_memory_bytes == 0
        assert xs_matrix[CUDA].profile.shared_memory_bytes == 0

    def test_oversubscription_cuts_registers(self, xs_matrix):
        """§V-B: assumptions reduce the register count."""
        assert (xs_matrix[NEW_RT].profile.registers
                < xs_matrix[NEW_RT_NO_ASSUME].profile.registers)

    def test_optimized_build_has_no_barriers(self, xs_matrix):
        assert xs_matrix[NEW_RT].profile.barriers == 0
        assert xs_matrix[OLD_RT_NIGHTLY].profile.barriers > 0


class TestRSBenchShapes:
    def test_all_builds_near_parity(self):
        """Fig. 10b: compute-bound, overhead is a small fraction."""
        options = build_options()
        cycles = {b: run_app(rsbench, o).cycles for b, o in options.items()}
        assert cycles[OLD_RT_NIGHTLY] / cycles[CUDA] < 1.35
        assert abs(cycles[NEW_RT] - cycles[CUDA]) / cycles[CUDA] < 0.05


class TestGridMiniShapes:
    def test_gflops_match_cuda(self, grid_matrix):
        """Fig. 12: the co-designed build matches CUDA GFlops."""
        new = grid_matrix[NEW_RT].profile.gflops
        cuda = grid_matrix[CUDA].profile.gflops
        assert abs(new - cuda) / cuda < 0.05

    def test_old_rt_lower_gflops(self, grid_matrix):
        assert (grid_matrix[OLD_RT_NIGHTLY].profile.gflops
                < grid_matrix[NEW_RT].profile.gflops)

    def test_flop_count_identical_across_builds(self, grid_matrix):
        flops = {b: r.profile.flops for b, r in grid_matrix.items()}
        assert len(set(flops.values())) == 1, flops

    def test_user_shared_tile_retained_everywhere(self, grid_matrix):
        """User-declared shared memory is semantics, not overhead."""
        for build, result in grid_matrix.items():
            assert result.profile.shared_memory_bytes >= 1024, build


class TestMiniFMMShapes:
    def test_new_rt_improves_substantially_over_old(self, fmm_matrix):
        """Paper: 1.85x improvement over the old runtime."""
        speedup = fmm_matrix[OLD_RT_NIGHTLY].cycles / fmm_matrix[NEW_RT].cycles
        assert speedup > 1.3

    def test_cuda_gap_remains(self, fmm_matrix):
        """Paper: recursion blocks full optimization; CUDA stays ahead."""
        gap = fmm_matrix[NEW_RT].cycles / fmm_matrix[CUDA].cycles
        assert gap > 1.10

    def test_residual_shared_state(self, fmm_matrix):
        """Fig. 11: MiniFMM keeps some runtime shared memory (~3KB),
        unlike the fully-folded apps."""
        omp = fmm_matrix[NEW_RT_NO_ASSUME].profile.shared_memory_bytes
        cuda = fmm_matrix[CUDA].profile.shared_memory_bytes
        assert omp > cuda
        assert 1500 < omp < 4000

    def test_recursion_not_inlined(self, fmm_matrix):
        module = fmm_matrix[NEW_RT].compiled.module
        assert "traverse" in module.functions
        assert not module.get_function("traverse").is_declaration
