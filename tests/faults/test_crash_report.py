"""CrashReport: construction, comparable view, content-hash saving."""

import json
import os

from repro.faults import CrashReport, FaultPlan
from repro.faults.report import default_report_dir
from repro.vgpu.errors import TrapError, attach_context


class _FakeThread:
    """Duck-typed thread for attach_context (no engine needed)."""

    def __init__(self):
        self.team_id = 1
        self.thread_id = 4
        self.frames = []
        self.stats = None
        self.steps = 17


def _trapped():
    exc = TrapError("trap in @kern (team 1, thread 4): boom")
    return attach_context(exc, _FakeThread(), block_name=None)


class TestConstruction:
    def test_from_exception_captures_context(self):
        report = CrashReport.from_exception(
            _trapped(), kernel="kern", engine="decoded",
            fault_plan=FaultPlan.parse("rt_trap:n=5;seed=11"))
        assert report.error_type == "TrapError"
        assert "boom" in report.message
        assert report.kernel == "kern" and report.engine == "decoded"
        assert report.context["team"] == 1 and report.context["thread"] == 4
        assert report.context["steps"] == 17
        assert report.fault_plan["seed"] == 11

    def test_plain_exception_has_no_context(self):
        report = CrashReport.from_exception(ValueError("engine bug"))
        assert report.error_type == "ValueError"
        assert report.context is None and report.fault_plan is None

    def test_comparable_view_drops_run_varying_fields(self):
        report = CrashReport.from_exception(_trapped(), engine="decoded")
        report.retry = {"from_engine": "warp", "to_engine": "decoded"}
        report.trace_tail = [{"name": "crash.TrapError"}]
        comparable = report.comparable_dict()
        for key in ("engine", "retry", "trace_tail"):
            assert key not in comparable
        # ...and only those: the rest of the payload survives.
        assert comparable["error_type"] == "TrapError"
        assert comparable["context"]["team"] == 1

    def test_to_json_round_trips(self):
        report = CrashReport.from_exception(_trapped(), kernel="kern")
        assert json.loads(report.to_json()) == report.to_dict()


class TestSave:
    def test_filename_is_a_content_hash(self, tmp_path):
        path = CrashReport.from_exception(_trapped()).save(str(tmp_path))
        name = os.path.basename(path)
        assert name.startswith("crash-") and name.endswith(".json")
        assert len(name) == len("crash-") + 16 + len(".json")
        assert json.load(open(path))["error_type"] == "TrapError"

    def test_same_failure_different_engine_dedups(self, tmp_path):
        a = CrashReport.from_exception(_trapped(), engine="decoded")
        b = CrashReport.from_exception(_trapped(), engine="warp")
        b.retry = {"from_engine": "warp", "to_engine": "decoded"}
        assert a.save(str(tmp_path)) == b.save(str(tmp_path))
        assert len(list(tmp_path.iterdir())) == 1

    def test_different_failures_get_different_files(self, tmp_path):
        a = CrashReport.from_exception(_trapped())
        b = CrashReport.from_exception(ValueError("something else"))
        assert a.save(str(tmp_path)) != b.save(str(tmp_path))

    def test_default_dir_lives_under_the_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_report_dir() == str(tmp_path / "crash-reports")
        path = CrashReport.from_exception(_trapped()).save()
        assert path.startswith(str(tmp_path))
