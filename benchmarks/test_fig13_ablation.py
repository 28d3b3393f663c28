"""Fig. 13 / §V-C — optimization ablation: disable one §IV optimization
at a time on GridMini, XSBench and MiniFMM.

Paper expectations encoded as shape assertions:
* XSBench's improvement is directly traceable to the base
  field-sensitive analysis, with assumed memory content contributing on
  top (§V-C);
* GridMini needs field-sensitive analysis most, but aligned-execution
  reasoning and barrier elimination still matter (Fig. 13);
* MiniFMM responds to (almost) nothing but the base analysis.
"""

import pytest

from repro.apps.common import run_app
from repro.bench.builds import ablation_configs
from repro.bench.harness import APPS
from repro.frontend.driver import CompileOptions, Target
from benchmarks.conftest import run_once

ABLATION_APPS = ["gridmini", "xsbench", "minifmm"]


def _cases():
    for app in ABLATION_APPS:
        for label in ablation_configs():
            yield app, label


@pytest.mark.parametrize("app,label", list(_cases()),
                         ids=[f"{a}--{l.replace(' ', '_')}" for a, l in _cases()])
def test_fig13_cell(benchmark, record, app, label):
    pipeline = ablation_configs()[label]
    options = CompileOptions(Target.OPENMP_NEW, pipeline=pipeline)
    result = run_once(benchmark, lambda: run_app(APPS[app], options))
    record(result, app=app, ablation=label, figure="fig13")


@pytest.fixture(scope="module")
def ablation_cycles():
    out = {}
    for app in ABLATION_APPS:
        per_app = {}
        for label, pipeline in ablation_configs().items():
            options = CompileOptions(Target.OPENMP_NEW, pipeline=pipeline)
            per_app[label] = run_app(APPS[app], options).cycles
        out[app] = per_app
    return out


class TestFig13Shapes:
    def test_field_sensitive_dominates_everywhere(self, ablation_cycles):
        for app in ABLATION_APPS:
            series = ablation_cycles[app]
            slowdowns = {
                label: cycles / series["full"]
                for label, cycles in series.items() if label != "full"
            }
            worst = max(slowdowns, key=slowdowns.get)
            assert slowdowns["no field-sensitive (IV-B1)"] >= slowdowns[worst] - 0.01, (
                app, slowdowns)

    def test_xsbench_assumed_content_contributes(self, ablation_cycles):
        series = ablation_cycles["xsbench"]
        assert series["no assumed content (IV-B3)"] > series["full"] * 1.02

    def test_gridmini_aligned_exec_and_barrier_elim_matter(self, ablation_cycles):
        series = ablation_cycles["gridmini"]
        assert series["no aligned exec (IV-C)"] > series["full"] * 1.01
        assert series["no barrier elim (IV-D)"] > series["full"] * 1.01

    def test_gridmini_invariant_prop_matters(self, ablation_cycles):
        series = ablation_cycles["gridmini"]
        assert series["no invariant prop (IV-B4)"] > series["full"] * 1.01

    def test_minifmm_insensitive_to_most_flags(self, ablation_cycles):
        """Paper: 'In the case of MiniFMM no other optimization has any
        effects on performance.'"""
        series = ablation_cycles["minifmm"]
        base_effect = series["no field-sensitive (IV-B1)"] / series["full"]
        for label in ("no assumed content (IV-B3)", "no aligned exec (IV-C)"):
            other_effect = series[label] / series["full"]
            assert other_effect <= base_effect + 0.01

    def test_removing_base_disables_all_of_ivb(self, ablation_cycles):
        """Removing §IV-B1 implies removing all §IV-B optimizations, so
        its slowdown must be at least that of each sub-analysis."""
        for app in ABLATION_APPS:
            series = ablation_cycles[app]
            base = series["no field-sensitive (IV-B1)"]
            for label in ("no reach/dom (IV-B2)", "no assumed content (IV-B3)",
                          "no invariant prop (IV-B4)"):
                assert base >= series[label] - series["full"] * 0.02, (app, label)
