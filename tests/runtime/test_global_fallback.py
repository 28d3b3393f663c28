"""S3: the shared-stack -> global-malloc fallback path (paper §III-D).

Both device runtimes fall back to ``malloc`` when a team's shared
stack cannot satisfy an ``alloc_shared`` request.  Driving that path
through a real workload used to be impossible to arrange (the test
kernels never overflow the stack); the ``shared_stack_exhaust`` fault
site makes it routine: the runtime's own stack-top is pinned at
"full", every alloc takes the fallback, and the app must *still*
compute bit-correct results — degraded, not broken.
"""

import pytest

from repro.apps import testsnap
from repro.apps.common import run_app
from repro.frontend.driver import CompileOptions, Target
from repro.passes.pass_manager import PipelineConfig
from repro.vgpu.config import ENGINES
from tests.conftest import ENGINE_LABELS, engine_mode

pytestmark = pytest.mark.faults

# Small grid; -O0 keeps the alloc_shared runtime calls outlined (the
# optimized pipelines eliminate them, which is the paper's whole point).
SIZE = {"n_atoms": 64, "n_neighbors": 4}
GEOMETRY = dict(num_teams=2, threads_per_team=32)

TARGETS = {"new-rt": Target.OPENMP_NEW, "old-rt": Target.OPENMP_OLD}


def _run(target, **kwargs):
    options = CompileOptions(target, pipeline=PipelineConfig.o0())
    return run_app(testsnap, options, size=SIZE, **GEOMETRY, **kwargs)


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
@pytest.mark.parametrize("engine", ENGINES)
def test_exhausted_stack_takes_the_fallback_and_stays_correct(target, engine):
    baseline = _run(target, engine=engine)
    exhausted = _run(target, engine=engine, faults="shared_stack_exhaust")
    # Strictly more mallocs than the build's natural count (the legacy
    # runtime mallocs a little even unexhausted; the new one none).
    assert exhausted.profile.device_mallocs > baseline.profile.device_mallocs, \
        "fallback never taken"
    assert exhausted.verified, \
        f"fallback corrupted results: {exhausted.max_error}"


def test_new_runtime_never_mallocs_unexhausted():
    # §III: the co-designed runtime serves every alloc_shared from the
    # team-local stack unless it genuinely overflows.
    result = _run(Target.OPENMP_NEW)
    assert result.profile.device_mallocs == 0
    assert result.verified


def test_fallback_count_is_engine_identical():
    # Warp takes the decoded fallback under a fault plan: the per-op
    # reference is the independent implementation compared here.
    counts = {}
    for label in ENGINE_LABELS:
        with engine_mode(label) as engine:
            counts[label] = _run(Target.OPENMP_NEW, engine=engine,
                                 faults="shared_stack_exhaust"
                                 ).profile.device_mallocs
    assert len(set(counts.values())) == 1, counts


def test_fallback_shows_up_in_the_overhead_counters():
    profile = _run(Target.OPENMP_NEW, faults="shared_stack_exhaust").profile
    assert profile.overhead_counters()["global_fallback.mallocs"] > 0
