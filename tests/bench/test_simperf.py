"""Smoke tests for the simulator-throughput benchmark
(``python -m repro.bench simperf``)."""

import json

import pytest

from repro.bench import simperf
from repro.bench.builds import BUILD_ORDER

#: The CLI's --quick build: New RT (Nightly) — a lockstep-safe build,
#: so the warp cell measures true vector execution.
QUICK_BUILD = BUILD_ORDER[1]


@pytest.fixture(scope="module")
def quick_report():
    # Single cell, single repeat: the same shape the CLI's --quick uses.
    return simperf.simperf_matrix(
        apps=["testsnap"], builds=[QUICK_BUILD], repeats=1
    )


@pytest.mark.simperf
class TestSimperfSmoke:
    def test_report_schema(self, quick_report):
        report = quick_report
        assert report["benchmark"] == "simperf"
        assert report["config"]["repeats"] == 1
        # One cell per engine.
        assert {c["engine"] for c in report["cells"]} == {"decoded", "warp"}
        for cell in report["cells"]:
            assert cell["app"] == "testsnap"
            assert cell["build"] == QUICK_BUILD
            assert cell["instructions"] > 0
            assert cell["cycles"] > 0
            assert cell["wall_seconds"] > 0
            assert cell["insts_per_sec"] > 0
            assert cell["cycles_per_sec"] > 0

    def test_engines_simulate_identical_work(self, quick_report):
        by_engine = {c["engine"]: c for c in quick_report["cells"]}
        # Same simulated work; only wall-clock may differ.
        assert (by_engine["decoded"]["instructions"]
                == by_engine["warp"]["instructions"])
        assert by_engine["decoded"]["cycles"] == by_engine["warp"]["cycles"]

    def test_warp_cell_is_not_a_fallback(self, quick_report):
        by_engine = {c["engine"]: c for c in quick_report["cells"]}
        assert by_engine["warp"]["warp_fallback"] is False
        # The decoded cell carries no fallback flag at all.
        assert "warp_fallback" not in by_engine["decoded"]

    def test_speedups_and_geomean(self, quick_report):
        by_engine = {c["engine"]: c for c in quick_report["cells"]}
        ratios = quick_report["warp_over_decoded"]
        assert list(ratios) == ["testsnap"]
        assert ratios["testsnap"][QUICK_BUILD] == round(
            by_engine["warp"]["insts_per_sec"]
            / by_engine["decoded"]["insts_per_sec"], 3)
        assert (quick_report["geomean_warp_over_decoded"]
                == ratios["testsnap"][QUICK_BUILD])
        # The ratios the legacy engine anchored are gone for good, so a
        # history record never compares an old ratio with a new one.
        for key in ("speedup_decoded_over_legacy", "geomean_speedup",
                    "speedup_warp_over_legacy", "geomean_speedup_warp"):
            assert key not in quick_report

    def test_fallback_cells_are_excluded_from_warp_geomean(self):
        # Old RT is not lockstep-safe: its warp cell is flagged and the
        # warp/decoded table (and geomean) must skip it entirely.
        report = simperf.simperf_matrix(
            apps=["testsnap"], builds=[BUILD_ORDER[0]], repeats=1
        )
        by_engine = {c["engine"]: c for c in report["cells"]}
        assert by_engine["warp"]["warp_fallback"] is True
        assert report["warp_over_decoded"] == {}
        assert report["geomean_warp_over_decoded"] == 0.0
        assert {c["engine"] for c in report["cells"]} == {"decoded", "warp"}

    def test_json_round_trip(self, quick_report, tmp_path):
        text = simperf.render_json(quick_report)
        assert json.loads(text) == quick_report
        out = tmp_path / "BENCH_sim.json"
        assert simperf.write_report(quick_report, str(out)) == str(out)
        assert json.loads(out.read_text()) == quick_report

    def test_table_mentions_every_cell(self, quick_report):
        table = simperf.format_simperf(quick_report)
        assert "testsnap" in table
        assert "decoded" in table and "warp" in table
        assert "warp/decoded" in table
        assert "geomean" in table
