"""``python -m repro.bench chaos`` — resilience-drill report contract."""

import json
import os

import pytest

from repro.bench import chaos_cli

pytestmark = [pytest.mark.serve, pytest.mark.chaos]


@pytest.fixture(scope="module")
def report():
    """One smoke-scale chaos suite shared by the schema tests."""
    return chaos_cli.chaos_suite(smoke=True)


class TestChaosSuiteReport:
    def test_all_invariants_hold(self, report):
        assert report["ok"] is True
        assert report["failed_invariants"] == []

    def test_every_scenario_ran(self, report):
        names = {s["scenario"] for s in report["scenarios_detail"]}
        assert names == {"baseline", "retry_recovers", "breaker_lifecycle",
                         "deadline_shed", "compile_stall",
                         "drain_under_load", "saturation_hints"}
        assert all(inv["ok"]
                   for s in report["scenarios_detail"]
                   for inv in s["invariants"])

    def test_schema(self, report):
        assert report["benchmark"] == "chaos"
        for section in ("schema_version", "meta", "config", "totals",
                        "wall_seconds", "shed_latency_s",
                        "scenarios_detail"):
            assert section in report
        assert report["config"]["smoke"] is True
        assert report["wall_seconds"] > 0

    def test_totals_cover_every_request(self, report):
        details = report["scenarios_detail"]
        assert report["totals"]["requests"] == sum(
            s["requests"] for s in details)
        counts = {}
        for s in details:
            for kind, n in s["counts"].items():
                counts[kind] = counts.get(kind, 0) + n
        assert counts.get("lost", 0) == 0
        assert counts.get("unstructured", 0) == 0
        # The drills actually drilled: requests were shed on deadlines,
        # shed by an open breaker, cancelled by a bounded drain, and
        # retried past an injected worker death.
        assert counts["shed_deadline"] > 0
        assert counts["shed_breaker"] > 0
        assert counts["cancelled"] > 0
        assert sum(s["stats"]["retried"] for s in details) > 0

    def test_crash_report_paths_name_no_directory(self, report):
        """The report is committed: a crash report is named by content
        hash, so its file name alone reads the same under any cache
        directory."""
        (drill,) = [s for s in report["scenarios_detail"]
                    if s["scenario"] == "breaker_lifecycle"]
        paths = [b["report_path"]
                 for b in drill["health"]["breakers"].values()]
        assert paths and all(path and os.path.basename(path) == path
                             for path in paths)

    def test_shed_latency_percentiles(self, report):
        shed = report["shed_latency_s"]
        assert shed["n"] > 0
        assert 0 <= shed["p50"] <= shed["p99"] <= shed["max"]

    def test_report_round_trips_through_json(self, report, tmp_path):
        path = tmp_path / "BENCH_chaos.json"
        chaos_cli.write_report(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(chaos_cli.render_json(report))
        assert loaded["benchmark"] == "chaos"

    def test_format_chaos_summarizes(self, report):
        text = chaos_cli.format_chaos(report)
        assert "chaos" in text
        assert "invariant" in text

