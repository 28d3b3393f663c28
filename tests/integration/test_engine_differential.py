"""Engine differential testing: the pre-decoded and warp-vectorized
execution engines must be observationally indistinguishable from the
legacy tree-walking interpreter on every proxy app under every build
configuration.

"Indistinguishable" is bit-level: identical KernelProfiles (cycles,
instruction and opcode counts, memory traffic, flops, barriers, static
resources, per-team cycle totals, device output, shared-stack high
water) and identical verified results — serially and with parallel
team simulation (``sim_jobs > 1``).  The legacy engine is the
deterministic reference; any decode-time shortcut or lane-batched
vector kernel that changes an observable number fails here.  (On
old-runtime builds the warp engine transparently falls back to the
decoded scalar path — see ``Interpreter._warp_lockstep_ok`` — so those
cells pin the fallback's equivalence.)
"""

import pytest

from repro.bench.builds import BUILD_ORDER, CUDA, build_options
from repro.bench.harness import APPS, SKIP_CUDA
from repro.vgpu import interpreter

# Small problem sizes (mirroring tests/apps) keep the full
# app x build x engine sweep affordable; the compile cache shares the
# compilations with the other suites.
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
GEOMETRY = dict(num_teams=4, threads_per_team=32)

PROFILE_FIELDS = (
    "cycles",
    "instructions",
    "opcode_counts",
    "loads_by_space",
    "stores_by_space",
    "flops",
    "barriers",
    "registers",
    "shared_memory_bytes",
    "team_cycles",
    "output",
    "shared_stack_high_water",
)

CELLS = [
    (app, build)
    for app in sorted(APPS)
    for build in BUILD_ORDER
    if not (app in SKIP_CUDA and build == CUDA)
]


@pytest.fixture(scope="module", autouse=True)
def _warp_on_every_team():
    """Keep every team of a warp launch on the warp engine: the
    low-occupancy gate would move later teams of sparse kernels to the
    decoded engine, which this suite already checks on its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interpreter, "_MIN_WARP_OCCUPANCY", 0)
        yield


def _assert_profiles_identical(reference, candidate, context):
    for field in PROFILE_FIELDS:
        ref, got = getattr(reference, field), getattr(candidate, field)
        assert ref == got, f"{context}: {field} differs ({ref!r} != {got!r})"


@pytest.mark.parametrize("app_name,build", CELLS,
                         ids=[f"{a}-{b}" for a, b in CELLS])
def test_decoded_engine_matches_legacy(app_name, build):
    app = APPS[app_name]
    options = build_options()[build]
    runs = {
        mode: app.run(options, size=SMALL[app_name],
                      engine=engine, sim_jobs=jobs, **GEOMETRY)
        for mode, engine, jobs in (
            ("legacy", "legacy", None),
            ("decoded", "decoded", None),
            ("decoded-parallel", "decoded", 2),
            ("warp", "warp", None),
            ("warp-parallel", "warp", 2),
        )
    }
    for mode, result in runs.items():
        assert result.verified, (
            f"{app_name}/{build}/{mode}: max error {result.max_error}"
        )
    reference = runs["legacy"].profile
    for mode in ("decoded", "decoded-parallel", "warp", "warp-parallel"):
        _assert_profiles_identical(
            reference, runs[mode].profile, f"{app_name}/{build}/{mode}"
        )
