"""The `python -m repro.bench faults` matrix (and its --smoke subset).

Running the smoke matrix in-process is the compiled-app integration
test for the whole robustness stack: real kernels, both engines,
CrashReport comparability — the same entry point the CLI drives.
"""

import json

import pytest

from repro.bench import faults_cli

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def smoke_report():
    return faults_cli.run_faults(smoke=True)


class TestSmokeMatrix:
    def test_matrix_passes(self, smoke_report):
        for row in smoke_report["scenarios"]:
            assert not row["problems"], (row["scenario"], row["problems"])
        assert smoke_report["ok"] is True

    def test_smoke_runs_exactly_the_smoke_scenarios(self, smoke_report):
        names = [r["scenario"] for r in smoke_report["scenarios"]]
        assert names == list(faults_cli.SMOKE_NAMES)

    def test_every_scenario_ran_both_engines(self, smoke_report):
        """Both engines, the decoded one also op by op: every row
        compares two implementations even where warp falls back."""
        for row in smoke_report["scenarios"]:
            assert list(row["cells"]) == ["decoded", "per-op", "warp"]
            assert row["cells"]["per-op"]["engine"] == "decoded"

    def test_exhaust_shows_fallback_mallocs(self, smoke_report):
        row = next(r for r in smoke_report["scenarios"]
                   if r["scenario"] == "stack-exhaust")
        assert row["cells"]["decoded"]["device_mallocs"] > 0

    def test_rt_trap_produces_a_comparable_report(self, smoke_report):
        row = next(r for r in smoke_report["scenarios"]
                   if r["scenario"] == "rt-trap")
        reports = {label: cell["report"] for label, cell in row["cells"].items()}
        assert reports["decoded"] == reports["per-op"] == reports["warp"]
        assert reports["decoded"]["error_type"] == "InjectedFault"
        assert reports["decoded"]["context"] is not None

    def test_render_json_round_trips(self, smoke_report):
        assert json.loads(faults_cli.render_json(smoke_report)) == smoke_report

    def test_format_mentions_the_verdict(self, smoke_report):
        text = faults_cli.format_faults(smoke_report)
        assert "(decoded / per-op / warp)" in text.splitlines()[0]
        assert "matrix OK" in text
        assert text.count("[PASS]") == len(faults_cli.SMOKE_NAMES)


def test_per_op_cell_runs_every_device_op_by_op():
    from repro.vgpu import VirtualGPU

    with faults_cli._cell_engine("per-op") as engine:
        assert engine == "decoded"
        assert VirtualGPU._per_op is True
    assert VirtualGPU._per_op is False
    with faults_cli._cell_engine("warp") as engine:
        assert engine == "warp" and VirtualGPU._per_op is False


def test_scenario_table_is_well_formed():
    names = [s.name for s in faults_cli.SCENARIOS]
    assert len(names) == len(set(names))
    assert set(faults_cli.SMOKE_NAMES) <= set(names)
    for scenario in faults_cli.SCENARIOS:
        assert scenario.expect == "ok" or scenario.expect[0].isupper()


def test_cli_exit_code_follows_the_matrix_verdict(monkeypatch):
    """``bench faults`` exits 1 when the matrix fails and 0 when it
    passes; a stub report stands in for the matrix run."""
    from repro.bench.__main__ import main

    for ok, code in ((True, 0), (False, 1)):
        monkeypatch.setattr(faults_cli, "run_faults",
                            lambda smoke=False, ok=ok: {"ok": ok})
        monkeypatch.setattr(faults_cli, "format_faults", lambda report: "")
        assert main(["prog", "faults"]) == code, ok
