"""History store + noise-aware regression compare (``bench compare``)."""

from __future__ import annotations

import json

import pytest

from repro.bench import history, record


def _record(benchmark="micro", metrics=None, machine=None, run_id=None, ts=None):
    rec = record.make_record(
        benchmark,
        config={"smoke": True},
        metrics=metrics or {},
        run_id=run_id,
        timestamp=ts,
    )
    if machine is not None:
        rec["meta"] = dict(rec["meta"], machine=machine)
    return rec


def _model_metric(value):
    return record.metric(value, better=record.BETTER_LOWER,
                         kind=record.KIND_MODEL)


def _wall_metric(value, stddev=0.0, n=3, better=record.BETTER_LOWER):
    return record.metric(value, stddev=stddev, n=n, better=better,
                         kind=record.KIND_WALL)


class TestRecordSchema:
    def test_stats_mean_stddev(self):
        s = record.stats([1.0, 2.0, 3.0])
        assert s["mean"] == pytest.approx(2.0)
        assert s["stddev"] == pytest.approx(1.0)
        assert (s["min"], s["max"], s["n"]) == (1.0, 3.0, 3)

    def test_stats_single_sample_has_zero_stddev(self):
        assert record.stats([4.2])["stddev"] == 0.0

    def test_metric_validates_direction_and_kind(self):
        with pytest.raises(ValueError):
            record.metric(1.0, better="sideways")
        with pytest.raises(ValueError):
            record.metric(1.0, kind="vibes")

    def test_make_record_envelope(self):
        rec = _record(metrics={"model/x": _model_metric(10.0)})
        assert rec["schema_version"] == record.SCHEMA_VERSION
        assert rec["meta"]["machine"]
        assert rec["run_id"].startswith("micro-")


class TestStore:
    def test_append_and_load_roundtrip(self, tmp_path):
        d = str(tmp_path / "hist")
        a = _record(run_id="micro-1-aaaa")
        b = _record(run_id="micro-2-bbbb")
        history.append_record(a, d)
        history.append_record(b, d)
        loaded = history.load_records(d)
        assert [r["run_id"] for r in loaded] == ["micro-1-aaaa", "micro-2-bbbb"]

    def test_load_skips_garbage_and_foreign_schema(self, tmp_path):
        d = str(tmp_path / "hist")
        history.append_record(_record(run_id="micro-1-aaaa"), d)
        with open(history.history_path(d), "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"schema_version": 99, "metrics": {}}) + "\n")
        assert len(history.load_records(d)) == 1

    def test_missing_store_is_empty(self, tmp_path):
        assert history.load_records(str(tmp_path / "nope")) == []


class TestCompare:
    def test_within_noise_jitter_is_tolerated(self):
        """Acceptance: jitter inside max(rel, k*stddev) never fails."""
        base = _record(metrics={
            "wall/a_s": _wall_metric(1.00, stddev=0.05),
            "wall/b_s": _wall_metric(2.00, stddev=0.10),
        })
        # 8% worse, but within 2*stddev — and 3% worse, within rel 5%.
        new = _record(metrics={
            "wall/a_s": _wall_metric(1.08, stddev=0.05),
            "wall/b_s": _wall_metric(2.06, stddev=0.10),
        })
        result = history.compare_records(base, new, rel_pct=5.0)
        assert result["ok"] is True
        assert result["regressions"] == []
        assert result["geomean"]["wall"] == pytest.approx(1.0)

    def test_geomean_regression_fails(self):
        """Acceptance: a synthetic >threshold regression trips the gate."""
        base = _record(metrics={
            "model/x": _model_metric(100.0),
            "model/y": _model_metric(50.0),
        })
        new = _record(metrics={
            "model/x": _model_metric(130.0),  # 30% slower, stddev 0
            "model/y": _model_metric(60.0),   # 20% slower
        })
        result = history.compare_records(base, new, rel_pct=5.0)
        assert result["ok"] is False
        assert set(result["regressions"]) == {"model/x", "model/y"}
        assert result["geomean"]["model"] < 0.95

    def test_improvements_never_fail(self):
        base = _record(metrics={"model/x": _model_metric(100.0)})
        new = _record(metrics={"model/x": _model_metric(50.0)})
        result = history.compare_records(base, new, rel_pct=5.0)
        assert result["ok"] is True
        assert result["improvements"] == ["model/x"]

    def test_higher_is_better_orientation(self):
        base = _record(metrics={
            "wall/rps": _wall_metric(100.0, better=record.BETTER_HIGHER),
        })
        new = _record(metrics={
            "wall/rps": _wall_metric(80.0, better=record.BETTER_HIGHER),
        })
        result = history.compare_records(base, new, rel_pct=5.0)
        assert result["ok"] is False
        assert result["regressions"] == ["wall/rps"]

    def test_single_noisy_metric_cannot_fail_geomean_of_many(self):
        """One within-noise wobble among stable metrics stays neutral."""
        metrics = {f"model/m{i}": _model_metric(10.0) for i in range(9)}
        base = _record(metrics=dict(metrics, **{
            "wall/hot_s": _wall_metric(1.0, stddev=0.5),
        }))
        new = _record(metrics=dict(metrics, **{
            "wall/hot_s": _wall_metric(1.9, stddev=0.5),  # < 2*stddev
        }))
        result = history.compare_records(base, new, rel_pct=5.0)
        assert result["ok"] is True

    def test_cross_machine_records_skip_wall_metrics(self):
        base = _record(machine="m1", metrics={
            "wall/a_s": _wall_metric(1.0),
            "model/x": _model_metric(10.0),
        })
        new = _record(machine="m2", metrics={
            "wall/a_s": _wall_metric(9.0),  # huge, but incomparable
            "model/x": _model_metric(10.0),
        })
        result = history.compare_records(base, new, rel_pct=5.0)
        assert result["ok"] is True
        assert result["wall_comparable"] is False
        assert result["metrics_skipped_wall"] == 1
        assert result["metrics_compared"] == 1

    def test_intersection_only(self):
        """A quick run compares against a full baseline on shared cells."""
        base = _record(metrics={
            "model/x": _model_metric(10.0),
            "model/only_in_full": _model_metric(5.0),
        })
        new = _record(metrics={"model/x": _model_metric(10.0)})
        result = history.compare_records(base, new, rel_pct=5.0)
        assert result["metrics_compared"] == 1
        assert result["ok"] is True


class TestBaseline:
    def test_find_baseline_prefers_latest_earlier_comparable(self):
        a = _record(run_id="micro-1-a", ts=1.0,
                    metrics={"model/x": _model_metric(1.0)})
        b = _record(run_id="micro-2-b", ts=2.0,
                    metrics={"model/x": _model_metric(1.0)})
        c = _record(run_id="micro-3-c", ts=3.0,
                    metrics={"model/x": _model_metric(1.0)})
        assert history.find_baseline([a, b, c], c)["run_id"] == "micro-2-b"

    def test_find_baseline_requires_metric_overlap(self):
        a = _record(run_id="micro-1-a", ts=1.0,
                    metrics={"model/other": _model_metric(1.0)})
        c = _record(run_id="micro-3-c", ts=3.0,
                    metrics={"model/x": _model_metric(1.0)})
        assert history.find_baseline([a, c], c) is None

    def test_baseline_compare_empty_history_is_ok(self, tmp_path):
        outcome = history.baseline_compare(str(tmp_path / "hist"))
        assert outcome == {"ok": True, "results": []}

    def test_baseline_compare_skips_without_baseline(self, tmp_path):
        d = str(tmp_path / "hist")
        history.append_record(
            _record(metrics={"model/x": _model_metric(1.0)}), d)
        outcome = history.baseline_compare(d, root=str(tmp_path))
        assert outcome["ok"] is True
        assert outcome["results"][0]["skipped"] == "no comparable baseline"

    def test_baseline_compare_gates_on_history_pair(self, tmp_path):
        d = str(tmp_path / "hist")
        history.append_record(_record(
            run_id="micro-1-a", ts=1.0,
            metrics={"model/x": _model_metric(100.0)}), d)
        history.append_record(_record(
            run_id="micro-2-b", ts=2.0,
            metrics={"model/x": _model_metric(200.0)}), d)
        outcome = history.baseline_compare(d, rel_pct=5.0, root=str(tmp_path))
        assert outcome["ok"] is False
        assert outcome["results"][0]["baseline_source"] == "history"

    def test_whole_run_wall_metrics_need_the_same_config(self):
        """A chaos smoke run's suite time is not gated against a full
        run's: the two runs measure different workloads."""
        full = _record("chaos", run_id="chaos-1-a", ts=1.0,
                       metrics={"wall/suite_s": _wall_metric(8.0)})
        full["config"] = {"smoke": False}
        smoke = _record("chaos", run_id="chaos-2-b", ts=2.0,
                        metrics={"wall/suite_s": _wall_metric(2.0)})
        result = history.compare_records(full, smoke, rel_pct=5.0)
        assert result["wall_comparable"] is False
        assert result["metrics_compared"] == 0
        assert history.find_baseline([full, smoke], smoke) is None
        same = dict(smoke, run_id="chaos-3-c", timestamp=3.0,
                    metrics={"wall/suite_s": _wall_metric(4.0)})
        assert history.find_baseline([full, smoke, same], same) is smoke
        assert history.compare_records(smoke, same, rel_pct=5.0)["ok"] is False

    def test_retired_benchmark_records_are_never_gated(self, tmp_path):
        """A kept history may hold records of a benchmark no CLI records
        any more; a regressing pair of them must not fail the gate that
        no new record could ever clear."""
        d = str(tmp_path / "hist")
        for i, value in enumerate((1.0, 3.0)):
            history.append_record(_record(
                "simperf", run_id=f"simperf-{i}-r", ts=float(i),
                metrics={"model/cycles/a": _model_metric(value)}), d)
        outcome = history.baseline_compare(d, rel_pct=5.0, root=str(tmp_path))
        assert outcome["ok"] is True
        assert outcome["results"] == [
            {"benchmark": "simperf", "skipped": "retired"}]

    def test_smoke_run_skips_a_full_tracked_baseline(self, tmp_path):
        d = str(tmp_path / "hist")
        tracked = {
            "benchmark": "chaos", "meta": record.meta_block(),
            "config": {"smoke": False}, "wall_seconds": 1.0,
        }
        (tmp_path / "BENCH_chaos.json").write_text(json.dumps(tracked))
        smoke = dict(tracked, config={"smoke": True}, wall_seconds=9.0)
        history.append_record(history.record_from_report(smoke), d)
        outcome = history.baseline_compare(d, rel_pct=5.0, root=str(tmp_path))
        assert outcome["ok"] is True
        assert outcome["results"][0]["skipped"] == "no comparable baseline"
        history.append_record(history.record_from_report(tracked), d)
        outcome = history.baseline_compare(d, rel_pct=5.0, root=str(tmp_path))
        assert outcome["results"][0]["baseline_source"] == "tracked"
        assert outcome["ok"] is True

    def test_tracked_baseline_fallback(self, tmp_path):
        """With no earlier history record the committed BENCH_micro.json
        becomes the baseline."""
        d = str(tmp_path / "hist")
        cell = {
            "construct": "barrier", "category": "sync",
            "runtime": "newrt", "engine": "decoded",
            "teams": 2, "threads": 4, "workload": 4,
            "calls": 16, "cycles": 384, "cycles_per_call": 24.0,
            "barriers_aligned": 0, "barriers_unaligned": 8,
            "global_fallbacks": 0,
        }
        tracked = {
            "benchmark": "micro", "meta": record.meta_block(),
            "config": {"smoke": False}, "cells": [cell], "constructs": {},
        }
        (tmp_path / "BENCH_micro.json").write_text(json.dumps(tracked))
        regressed = dict(cell, cycles_per_call=48.0, cycles=768)
        new_report = dict(tracked, config={"smoke": True}, cells=[regressed])
        history.append_record(history.record_from_report(new_report), d)
        outcome = history.baseline_compare(d, rel_pct=5.0, root=str(tmp_path))
        assert outcome["ok"] is False
        assert outcome["results"][0]["baseline_source"] == "tracked"


class TestRecordFromReport:
    def test_micro_report_metrics(self):
        report = {
            "benchmark": "micro", "meta": record.meta_block(),
            "config": {"smoke": True},
            "cells": [
                {"construct": "barrier", "runtime": "newrt",
                 "engine": "decoded", "teams": 2, "threads": 4,
                 "workload": 4, "cycles_per_call": 24.0},
                {"construct": "barrier", "runtime": "newrt",
                 "engine": "warp", "teams": 2, "threads": 4,
                 "workload": 4, "cycles_per_call": 24.0},
                {"construct": "worksharing", "runtime": "newrt",
                 "engine": "decoded", "teams": 2, "threads": 4,
                 "workload": 4, "cycles_per_call": None},
            ],
        }
        rec = history.record_from_report(report)
        assert set(rec["metrics"]) == {"model/barrier/newrt/t2x4/w4"}
        metric = rec["metrics"]["model/barrier/newrt/t2x4/w4"]
        assert metric["kind"] == record.KIND_MODEL
        assert metric["stddev"] == 0.0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            history.record_from_report({"benchmark": "mystery"})

    def test_repeats_excluded_from_config(self):
        report = {
            "benchmark": "micro", "meta": record.meta_block(),
            "config": {"smoke": True, "repeats": 3}, "cells": [],
        }
        assert "repeats" not in history.record_from_report(report)["config"]


class TestCompareCLI:
    def _seed(self, directory, values):
        for i, value in enumerate(values):
            history.append_record(_record(
                run_id=f"micro-{i}-r", ts=float(i),
                metrics={"model/x": _model_metric(value)}), directory)

    def test_cli_exits_nonzero_on_regression(self, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_HISTORY_DIR", str(tmp_path / "h"))
        self._seed(str(tmp_path / "h"), [100.0, 200.0])
        assert main(["prog", "compare", "--baseline"]) == 1

    def test_cli_ok_on_stable_history(self, tmp_path, monkeypatch, capsys):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_HISTORY_DIR", str(tmp_path / "h"))
        self._seed(str(tmp_path / "h"), [100.0, 100.0])
        assert main(["prog", "compare"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_cli_two_run_diff(self, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_HISTORY_DIR", str(tmp_path / "h"))
        self._seed(str(tmp_path / "h"), [100.0, 200.0])
        assert main(["prog", "compare", "--run-a", "micro-0-r",
                     "--run-b", "micro-1-r"]) == 1
        assert main(["prog", "compare", "--run-a", "micro-1-r",
                     "--run-b", "micro-0-r"]) == 0
        assert main(["prog", "compare", "--run-a", "micro-0-r"]) == 2
        assert main(["prog", "compare", "--run-a", "micro-0-r",
                     "--run-b", "nope"]) == 2

    def test_cli_empty_history_passes(self, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_HISTORY_DIR", str(tmp_path / "h"))
        assert main(["prog", "compare", "--baseline"]) == 0
