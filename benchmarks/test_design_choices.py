"""Design-choice ablations called out in DESIGN.md.

The paper's runtime makes specific micro-architectural choices; each is
benchmarked here against its rejected alternative:

1. conditional-pointer broadcast writes (Fig. 7b) vs guarded execution
   (Fig. 7a) — the guarded form costs extra control flow when the state
   survives (nightly builds) and must still optimize away fully;
2. aligned, compiler-annotated barriers vs generic barriers — without
   the alignment annotation §IV-D cannot remove anything;
3. shared-memory-stack globalization (§III-D) vs direct global malloc —
   the stack keeps unoptimized globalization off the slow path;
4. combined no-chunk worksharing (Fig. 5) vs the old split/chunked
   scheme — measured through the Old RT builds elsewhere.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import APPS
from repro.frontend.driver import CompileOptions, Target
from repro.passes.pass_manager import PipelineConfig
from benchmarks.conftest import run_once


def options_with(**runtime_kw) -> CompileOptions:
    base = CompileOptions(Target.OPENMP_NEW)
    return replace(base, runtime_config=replace(base.runtime_config, **runtime_kw))


def nightly_with(**runtime_kw) -> CompileOptions:
    base = CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig.nightly())
    return replace(base, runtime_config=replace(base.runtime_config, **runtime_kw))


class TestBroadcastScheme:
    @pytest.mark.parametrize("scheme", ["conditional-pointer", "guarded"])
    def test_bench(self, benchmark, record, scheme):
        options = nightly_with(broadcast_scheme=scheme)
        result = run_once(benchmark, lambda: APPS["gridmini"].run(options))
        record(result, scheme=scheme, figure="design-broadcast")

    def test_guarded_scheme_is_branchier(self):
        """Fig. 7a needs a branch per broadcast write; Fig. 7b does not."""
        from repro.vgpu.resources import static_instruction_count

        cp = APPS["gridmini"].run(nightly_with(broadcast_scheme="conditional-pointer"))
        gw = APPS["gridmini"].run(nightly_with(broadcast_scheme="guarded"))
        assert gw.verified and cp.verified
        cp_k = cp.compiled.module.get_function("dslash")
        gw_k = gw.compiled.module.get_function("dslash")
        assert (static_instruction_count(gw_k, gw.compiled.module)
                > static_instruction_count(cp_k, cp.compiled.module))

    def test_both_schemes_fold_away_with_assumptions(self):
        """§IV-B3's assumptions carry the folding either way — that is
        why they exist (dominance alone cannot, Fig. 7)."""
        for scheme in ("conditional-pointer", "guarded"):
            result = APPS["xsbench"].run(options_with(broadcast_scheme=scheme))
            assert result.verified
            assert result.profile.shared_memory_bytes == 0, scheme
            assert result.profile.barriers == 0, scheme


class TestAlignedBarriers:
    @pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "generic"])
    def test_bench(self, benchmark, record, aligned):
        options = options_with(use_aligned_barriers=aligned)
        result = run_once(benchmark, lambda: APPS["xsbench"].run(options))
        record(result, aligned_barriers=aligned, figure="design-barriers")

    def test_generic_barriers_survive_optimization(self):
        aligned = APPS["xsbench"].run(options_with(use_aligned_barriers=True))
        generic = APPS["xsbench"].run(options_with(use_aligned_barriers=False))
        assert aligned.verified and generic.verified
        assert aligned.profile.barriers == 0
        assert generic.profile.barriers > 0
        assert generic.profile.cycles > aligned.profile.cycles


class TestGlobalizationBacking:
    @pytest.mark.parametrize("via_malloc", [False, True], ids=["stack", "malloc"])
    def test_bench(self, benchmark, record, via_malloc):
        options = nightly_with(globalization_via_malloc=via_malloc)
        result = run_once(benchmark, lambda: APPS["xsbench"].run(options))
        record(result, via_malloc=via_malloc, figure="design-globalization")

    def test_malloc_backing_slower_when_unoptimized(self):
        stack = APPS["xsbench"].run(nightly_with(globalization_via_malloc=False))
        malloc = APPS["xsbench"].run(nightly_with(globalization_via_malloc=True))
        assert stack.verified and malloc.verified
        assert malloc.profile.cycles > stack.profile.cycles

    def test_optimized_builds_equivalent(self):
        """Demotion to thread-private stack removes the allocation path
        entirely, so the backing choice stops mattering."""
        stack = APPS["xsbench"].run(options_with(globalization_via_malloc=False))
        malloc = APPS["xsbench"].run(options_with(globalization_via_malloc=True))
        assert stack.profile.cycles == malloc.profile.cycles
