"""Every proxy app must verify against its NumPy reference under every
build configuration (small problem sizes for speed)."""

import pytest

from repro.apps import gridmini, minifmm, rsbench, testsnap, xsbench
from repro.apps.common import run_app
from repro.bench.builds import BUILD_ORDER, CUDA, NEW_RT, build_options
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.vgpu import FALLBACK_LOW_OCCUPANCY, LaunchSpec, VirtualGPU

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
    result = run_app(app, options, size=SMALL[app_name], **GEOMETRY)
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
        result = run_app(app, options, size=SMALL[app_name], **GEOMETRY)
        errors.append((build, result.max_error))
    assert all(err == 0.0 or err < 1e-12 for _, err in errors), errors


@pytest.mark.parametrize("app_name", list(APPS))
def test_debug_build_passes_own_assertions(app_name):
    """Running the debug build with checks on validates every runtime
    assertion and assumption along the way."""
    app = APPS[app_name]
    options = CompileOptions(Target.OPENMP_NEW).with_debug()
    result = run_app(app, options, size=SMALL[app_name], debug_checks=True,
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
    result = run_app(app, options, size=SMALL[app_name], debug_checks=True,
                     **GEOMETRY)
    assert result.verified


@pytest.mark.parametrize("app,fallback", [
    (minifmm, FALLBACK_LOW_OCCUPANCY),  # about 8 of 32 lanes active
    (xsbench, None),                    # about 31 of 32
], ids=["minifmm", "xsbench"])
def test_new_rt_warp_launch_is_gated_by_lane_occupancy(app, fallback):
    """At the default size, team 0 runs warp either way; minifmm's
    later teams run decoded, xsbench's stay on warp."""
    size = app.default_size()
    compiled = compile_program(app.build_program(size), build_options()[NEW_RT])
    gpu = VirtualGPU(compiled.module, engine="warp")
    host_args, verify = app.prepare(gpu, size)
    result = gpu.run(LaunchSpec(
        kernel=app.KERNEL, num_teams=app.TEAMS, threads_per_team=app.THREADS,
        args=tuple(compiled.abi(app.KERNEL).marshal(gpu, host_args)),
    ))
    assert (result.executed_engine, result.fallback) == ("warp", fallback)
    assert verify(gpu, host_args) < 1e-9
