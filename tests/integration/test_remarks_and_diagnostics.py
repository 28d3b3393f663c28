"""§VII compiler diagnostics: -Rpass(-missed)=openmp-opt analogues."""

import pytest

from repro.apps import minifmm, xsbench
from repro.apps.common import run_app
from repro.frontend.driver import CompileOptions, Target
from repro.passes.remarks import RemarkKind


class TestRemarks:
    def test_spmdization_reported_for_generic_kernel(self):
        result = run_app(xsbench, CompileOptions(Target.OPENMP_NEW))
        remarks = result.compiled.remarks
        spmd = remarks.by_pass("openmp-opt-spmdization")
        assert any(r.kind is RemarkKind.PASSED for r in spmd)
        assert any("SPMD" in r.message for r in spmd)

    def test_globalization_demotion_reported(self):
        result = run_app(xsbench, CompileOptions(Target.OPENMP_NEW))
        remarks = result.compiled.remarks
        assert remarks.contains("demoted")

    def test_minifmm_missed_optimizations_reported(self):
        """The leftover abstractions must be diagnosed, not silent."""
        result = run_app(minifmm, CompileOptions(Target.OPENMP_NEW))
        remarks = result.compiled.remarks
        missed = remarks.by_kind(RemarkKind.MISSED)
        assert missed, "expected missed-optimization remarks for MiniFMM"
        text = " ".join(r.message for r in missed)
        assert "recursive" in text or "escapes" in text

    def test_value_prop_folds_reported(self):
        result = run_app(xsbench, CompileOptions(Target.OPENMP_NEW))
        folds = result.compiled.remarks.by_pass("openmp-opt-value-prop")
        assert folds

    def test_old_runtime_globalization_diagnosed(self):
        from repro.passes import PipelineConfig

        result = run_app(xsbench, CompileOptions(
            Target.OPENMP_OLD, pipeline=PipelineConfig.legacy()))
        assert result.compiled.remarks.contains("legacy data-sharing")
