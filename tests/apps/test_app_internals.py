"""App-internal pieces: input generators, references, device RNG."""

import numpy as np
import pytest

from repro.apps import gridmini, minifmm, rsbench, testsnap, xsbench
from repro.apps.common import lcg_rand01_host


class TestDeviceRNG:
    def test_host_reference_in_unit_interval(self):
        vals = lcg_rand01_host(np.arange(10000, dtype=np.int64))
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)

    def test_reasonably_uniform(self):
        vals = lcg_rand01_host(np.arange(10000, dtype=np.int64))
        hist, _ = np.histogram(vals, bins=10, range=(0, 1))
        assert hist.min() > 500  # no empty decile

    def test_deterministic(self):
        a = lcg_rand01_host(np.arange(64, dtype=np.int64))
        b = lcg_rand01_host(np.arange(64, dtype=np.int64))
        assert np.array_equal(a, b)

    def test_device_matches_host(self):
        """The DSL rand01 and its NumPy mirror must agree bitwise."""
        from repro.frontend import ast as A
        from repro.frontend.driver import CompileOptions, Target, compile_program
        from repro.ir.types import I64, PTR
        from repro.apps.common import lcg_rand01_function
        from repro.vgpu import LaunchSpec, VirtualGPU

        prog = A.Program("rng", kernels=[A.KernelDef(
            "rng", params=[A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), A.Var("iv"),
                             A.FuncCall("rand01", A.Var("iv")))],
        )], device_functions=[lcg_rand01_function()])
        compiled = compile_program(prog, CompileOptions(Target.CUDA))
        gpu = VirtualGPU(compiled.module)
        out = gpu.alloc_array(np.zeros(64))
        args = compiled.abi("rng").marshal(gpu, {"out": out, "n": 64})
        gpu.run(LaunchSpec(kernel="rng", num_teams=2, threads_per_team=32,
                           args=args))
        got = gpu.read_array(out, np.float64, 64)
        assert np.array_equal(got, lcg_rand01_host(np.arange(64, dtype=np.int64)))


class TestXSBenchInputs:
    def test_energy_grids_sorted_and_bracketing(self):
        size = xsbench.default_size()
        egrids, xs_data, mats, concs = xsbench.make_inputs(size)
        assert np.all(np.diff(egrids, axis=1) >= 0)
        assert np.all(egrids[:, 0] == 0.0)
        assert np.all(egrids[:, -1] == 1.0)

    def test_material_indices_valid(self):
        size = xsbench.default_size()
        _, _, mats, _ = xsbench.make_inputs(size)
        assert mats.min() >= 0 and mats.max() < size["n_nuclides"]

    def test_reference_shape(self):
        size = {"n_lookups": 8, "n_nuclides": 4, "n_gridpoints": 8,
                "n_mats": 2, "nucs_per_mat": 2}
        out = xsbench.reference(size, *xsbench.make_inputs(size))
        assert out.shape == (8, xsbench.N_XS)
        assert np.all(out > 0)  # positive cross sections


class TestGridMiniInputs:
    def test_neighbors_wrap(self):
        size = {"n_sites": 16}
        _, _, neighbors = gridmini.make_inputs(size)
        assert neighbors.max() < 16 and neighbors.min() >= 0
        assert np.all(neighbors[:, 0] == (np.arange(16) + 1) % 16)

    def test_reference_linear_in_psi(self):
        size = {"n_sites": 8}
        links, psi, neighbors = gridmini.make_inputs(size)
        ref1 = gridmini.reference(size, links, psi, neighbors)
        ref2 = gridmini.reference(size, links, 2.0 * psi, neighbors)
        assert np.allclose(ref2, 2.0 * ref1)


class TestMiniFMMTree:
    def test_tree_structure(self):
        size = {"n_targets": 4, "depth": 3, "points_per_leaf": 2,
                "theta_x1000": 500}
        targets, centers, halves, moments, px, pm, nleaves, ppl = \
            minifmm.build_tree(size)
        assert nleaves == 8
        assert len(centers) == 2 * nleaves - 1
        # Root spans the whole domain; moments aggregate bottom-up.
        assert moments[0] == pytest.approx(pm.sum())
        assert centers[0] == pytest.approx(nleaves / 2)

    def test_points_sorted_by_leaf(self):
        size = {"n_targets": 4, "depth": 3, "points_per_leaf": 2,
                "theta_x1000": 500}
        _, _, _, _, px, _, nleaves, ppl = minifmm.build_tree(size)
        leaves = (px // 1).astype(int)
        assert np.all(np.diff(leaves) >= 0)

    def test_theta_zero_is_exact_n_body(self):
        """theta=0 disables the multipole acceptance: the traversal
        reduces to the direct particle sum."""
        size = {"n_targets": 8, "depth": 3, "points_per_leaf": 2,
                "theta_x1000": 0}
        targets, centers, halves, moments, px, pm, nleaves, ppl = \
            minifmm.build_tree(size)
        ref = minifmm.reference(size, targets, centers, halves, moments,
                                px, pm, nleaves, ppl)
        direct = np.array([
            np.sum(pm / (np.abs(px - t) + minifmm.EPS)) for t in targets
        ])
        assert np.allclose(ref, direct)


class TestTestSNAP:
    def test_forces_antisymmetric_in_pair_distance(self):
        """Moving a neighbour further reduces its force contribution."""
        size = {"n_atoms": 4, "n_neighbors": 1}
        pos, neighbors = testsnap.make_inputs(size)
        near = testsnap.reference(size, pos, neighbors)
        pos_far = pos.copy()
        pos_far[neighbors[0, 0]] += 10.0
        far = testsnap.reference(size, pos_far, neighbors)
        assert np.linalg.norm(far[0]) < np.linalg.norm(near[0])

    def test_rms_helper(self):
        from repro.frontend.driver import CompileOptions, Target

        result = testsnap.run(CompileOptions(Target.OPENMP_NEW),
                              size={"n_atoms": 64, "n_neighbors": 2},
                              num_teams=2, threads_per_team=32)
        assert testsnap.rms_force_error(result) < 1e-12


class TestRSBench:
    def test_reference_finite(self):
        size = {"n_lookups": 8, "n_nuclides": 3, "n_poles": 3,
                "n_mats": 2, "nucs_per_mat": 2}
        out = rsbench.reference(size, *rsbench.make_inputs(size))
        assert np.all(np.isfinite(out))
