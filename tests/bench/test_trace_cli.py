"""CLI wiring for ``python -m repro.bench trace``."""

from __future__ import annotations

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.trace_cli import _slug, default_metrics_out, default_out
from repro.trace import validate_chrome_trace


def test_slug_is_filesystem_safe():
    assert _slug("Old RT (Nightly)") == "old-rt-nightly"
    assert default_out("xsbench", "New RT") == "TRACE_xsbench_new-rt.json"
    assert default_metrics_out("xsbench", "New RT").endswith(".metrics.json")


@pytest.mark.trace
def test_trace_command(tmp_path, capsys):
    out = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    rc = main([
        "bench", "trace", "--app", "testsnap",
        "--out", str(out), "--metrics-out", str(metrics),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "traced testsnap" in printed
    assert "perfetto" in printed

    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    assert {"toolchain", "runtime", "vgpu", "bench"} <= {
        e.get("cat") for e in doc["traceEvents"]
    }
    assert json.loads(metrics.read_text())["schema"] == "repro.trace.metrics/1"


@pytest.mark.trace
def test_trace_exits_nonzero_when_verification_fails(tmp_path, capsys,
                                                    monkeypatch):
    """A traced cell whose result fails verification is a failed run,
    the same bar ``AppRunResult.verified`` uses."""
    from repro.bench import trace_cli

    app = trace_cli.APPS["testsnap"]
    real_prepare = app.prepare

    def prepare_with_wrong_answer(gpu, size):
        host_args, _ = real_prepare(gpu, size)
        return host_args, lambda gpu, host_args: 1.0

    monkeypatch.setattr(app, "prepare", prepare_with_wrong_answer)
    rc = main([
        "bench", "trace", "--app", "testsnap",
        "--out", str(tmp_path / "trace.json"),
        "--metrics-out", str(tmp_path / "metrics.json"),
    ])
    assert rc == 1
    assert "verification failed" in capsys.readouterr().out


@pytest.mark.trace
def test_traced_minifmm_is_the_binary_the_matrix_runs(tmp_path):
    """minifmm's own build settings (its smaller device stack) apply
    to traced runs too, not only to the build matrix."""
    from repro.apps import minifmm
    from repro.apps.common import run_app
    from repro.bench.builds import NEW_RT, build_options
    from repro.bench.trace_cli import run_trace

    direct = run_app(minifmm, build_options()[NEW_RT])
    traced = run_trace("minifmm", NEW_RT, out=str(tmp_path / "t.json"),
                       metrics_out=str(tmp_path / "m.json"))
    # Per-function cycles are attributed only under a trace.
    traced_profile = traced["profile"].to_dict()
    del traced_profile["function_cycles"]
    direct_profile = direct.profile.to_dict()
    del direct_profile["function_cycles"]
    assert traced_profile == direct_profile


def test_trace_is_a_known_command():
    from repro.bench.__main__ import COMMANDS

    assert "trace" in COMMANDS
