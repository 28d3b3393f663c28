"""Machine-readable report (python -m repro.bench json)."""

import json

import pytest

from repro.bench.report import collect_report, render_json


@pytest.fixture(scope="module")
def report():
    # Restrict the Fig.-11 sweep to one app to keep the test quick; the
    # other figures have fixed app sets.
    return collect_report(apps=["gridmini"])


#: Every section of the report; all are fully deterministic (simulated
#: cycles).
DETERMINISTIC_SECTIONS = (
    "fig10_relative_performance",
    "fig11_resources",
    "fig12_gridmini_gflops",
    "fig13_ablation_cycles",
    "oversubscription",
    "kernel_profiles",
)


class TestReport:
    def test_all_sections_present(self, report):
        assert set(report) == set(DETERMINISTIC_SECTIONS)

    def test_fig11_rows_are_dicts(self, report):
        row = report["fig11_resources"][0]
        assert {"app", "build", "kernel_cycles", "registers",
                "shared_memory_bytes"} <= set(row)

    def test_fig10_has_all_apps(self, report):
        assert set(report["fig10_relative_performance"]) == {
            "xsbench", "rsbench", "testsnap", "minifmm"}

    def test_oversubscription_summary(self, report):
        over = report["oversubscription"]
        assert over["register_delta"] < 0

    def test_json_serializable(self, report):
        text = json.dumps(report)
        fresh = json.loads(render_json(apps=["gridmini"]))
        old = json.loads(text)
        # The simulation is deterministic, so every figure section must
        # reproduce exactly across repeated collections.
        for section in DETERMINISTIC_SECTIONS:
            assert old[section] == fresh[section]
