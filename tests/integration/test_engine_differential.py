"""Engine differential testing: fused decoded execution and the
warp-vectorized engine must be observationally indistinguishable from
the per-op decoded reference (every op through its ``_h_*`` handler, no
fused runs) on every proxy app under every build configuration.

"Indistinguishable" is bit-level: identical KernelProfiles (cycles,
instruction and opcode counts, memory traffic, flops, barriers, static
resources, per-team cycle totals, device output, shared-stack high
water) and identical verified results.  Per-op decoded is the
deterministic reference; any fused-run shortcut or lane-batched vector
kernel that changes an observable number fails here.  (The test id
predates it: the reference used to be the legacy tree-walker.)  (On
old-runtime builds the warp engine transparently falls back to the
decoded scalar path — see ``Interpreter._warp_lockstep_ok`` — so those
cells pin the fallback's equivalence.)
"""

import pytest

from repro.bench.builds import build_options
from repro.bench.harness import APPS
from repro.vgpu import interpreter
from tests.conftest import PER_OP, engine_mode, matrix_cells

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

CELLS = matrix_cells()


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
    runs = {}
    for mode in (PER_OP, "decoded", "warp"):
        with engine_mode(mode) as engine:
            runs[mode] = app.run(options, size=SMALL[app_name],
                                 engine=engine, **GEOMETRY)
    for mode, result in runs.items():
        assert result.verified, (
            f"{app_name}/{build}/{mode}: max error {result.max_error}"
        )
    reference = runs[PER_OP].profile
    for mode in ("decoded", "warp"):
        _assert_profiles_identical(
            reference, runs[mode].profile, f"{app_name}/{build}/{mode}"
        )
