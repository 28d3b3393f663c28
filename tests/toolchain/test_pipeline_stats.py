"""Pipeline observability: per-pass timings attached to compiles."""

import pytest

from repro.apps import gridmini
from repro.frontend.driver import CompileOptions, Target, compile_program_uncached
from repro.passes.pass_manager import PipelineConfig, PipelineStats

TINY = {"n_sites": 64}


@pytest.fixture(scope="module")
def compiled():
    return compile_program_uncached(
        gridmini.build_program(TINY), CompileOptions(Target.OPENMP_NEW)
    )


class TestPipelineStats:
    def test_stats_attached(self, compiled):
        assert isinstance(compiled.stats, PipelineStats)
        assert compiled.stats.timings

    def test_totals_equal_sum_of_entries(self, compiled):
        stats = compiled.stats
        assert stats.total_pass_time_s() == pytest.approx(
            sum(t.wall_time_s for t in stats.timings)
        )
        assert stats.total_instructions_removed() == sum(
            t.instructions_removed for t in stats.timings
        )

    def test_by_pass_totals_equal_sum_of_entries(self, compiled):
        stats = compiled.stats
        aggs = stats.by_pass()
        assert sum(a.runs for a in aggs.values()) == len(stats.timings)
        assert sum(a.wall_time_s for a in aggs.values()) == pytest.approx(
            stats.total_pass_time_s()
        )
        assert sum(a.instructions_removed for a in aggs.values()) == (
            stats.total_instructions_removed()
        )

    def test_pipeline_time_covers_pass_time(self, compiled):
        assert compiled.stats.wall_time_s >= compiled.stats.total_pass_time_s()

    def test_rounds_counted(self, compiled):
        # Both fixpoint loops execute at least one round each.
        assert compiled.stats.rounds >= 2

    def test_instruction_deltas_consistent(self, compiled):
        for t in compiled.stats.timings:
            assert t.instructions_removed == (
                t.instructions_before - t.instructions_after
            )
            assert t.wall_time_s >= 0.0

    def test_phases_labelled(self, compiled):
        phases = {t.phase for t in compiled.stats.timings}
        assert {"prepare", "scalar", "fixpoint", "late-sweep"} <= phases

    def test_o0_pipeline_records_no_passes(self):
        compiled = compile_program_uncached(
            gridmini.build_program(TINY),
            CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig.o0()),
        )
        assert compiled.stats is not None
        assert compiled.stats.timings == []

    def test_to_dict(self, compiled):
        d = compiled.stats.to_dict()
        assert d["pass_runs"] == len(compiled.stats.timings)
        assert d["rounds"] == compiled.stats.rounds
        assert sum(p["runs"] for p in d["per_pass"]) == d["pass_runs"]

    def test_optimizing_pipeline_removes_instructions(self, compiled):
        # The whole point of the paper: the pipeline shrinks the kernel.
        assert compiled.stats.total_instructions_removed() > 0
