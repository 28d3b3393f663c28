"""Every proxy app must verify against its NumPy reference under every
build configuration (small problem sizes for speed)."""

import pytest

from repro.apps import gridmini, minifmm, rsbench, testsnap, xsbench
from repro.bench.builds import BUILD_ORDER, CUDA, build_options
from repro.frontend.driver import CompileOptions, Target

SMALL = {
    "xsbench": {"n_lookups": 64, "n_nuclides": 6, "n_gridpoints": 16,
                "n_mats": 3, "nucs_per_mat": 2},
    "rsbench": {"n_lookups": 64, "n_nuclides": 4, "n_poles": 4,
                "n_mats": 3, "nucs_per_mat": 2},
    "gridmini": {"n_sites": 64},
    "testsnap": {"n_atoms": 64, "n_neighbors": 4},
    "minifmm": {"n_targets": 64, "depth": 3, "points_per_leaf": 2,
                "theta_x1000": 500},
}
APPS = {
    "xsbench": xsbench,
    "rsbench": rsbench,
    "gridmini": gridmini,
    "testsnap": testsnap,
    "minifmm": minifmm,
}
GEOMETRY = dict(num_teams=2, threads_per_team=32)


@pytest.mark.parametrize("app_name", list(APPS))
@pytest.mark.parametrize("build", BUILD_ORDER)
def test_app_verifies_under_build(app_name, build):
    app = APPS[app_name]
    options = build_options()[build]
    result = app.run(options, size=SMALL[app_name], **GEOMETRY)
    assert result.verified, (
        f"{app_name} under {build}: max error {result.max_error}"
    )


@pytest.mark.parametrize("app_name", list(APPS))
def test_results_bitwise_identical_across_builds(app_name):
    """All five builds run the same arithmetic in the same order —
    outputs must agree to the last bit, not just approximately."""
    app = APPS[app_name]
    errors = []
    for build, options in build_options().items():
        result = app.run(options, size=SMALL[app_name], **GEOMETRY)
        errors.append((build, result.max_error))
    assert all(err == 0.0 or err < 1e-12 for _, err in errors), errors


@pytest.mark.parametrize("app_name", list(APPS))
def test_debug_build_passes_own_assertions(app_name):
    """Running the debug build with checks on validates every runtime
    assertion and assumption along the way."""
    app = APPS[app_name]
    options = CompileOptions(Target.OPENMP_NEW).with_debug()
    result = app.run(options, size=SMALL[app_name], debug_checks=True,
                     env={"DEBUG": 3}, **GEOMETRY)
    assert result.verified


@pytest.mark.parametrize("app_name", list(APPS))
def test_release_simulation_checks_assumptions(app_name):
    """Even release builds must not violate their own assumptions when
    the simulator verifies them (pre-strip they are checked during the
    O0 run)."""
    from repro.passes import PipelineConfig

    app = APPS[app_name]
    options = CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig.o0())
    result = app.run(options, size=SMALL[app_name], debug_checks=True,
                     **GEOMETRY)
    assert result.verified
