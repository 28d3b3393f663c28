"""Tier-1 smoke: the bench CLI end-to-end, with parallel jobs.

Runs the real ``python -m repro.bench fig10 --jobs 2`` invocation in a
subprocess whose disk cache points at a tmpdir, so the test exercises
the whole stack (CLI → figures → harness → toolchain → pool workers)
without leaking ``.repro-cache/`` into the repository.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(tmp_path, *args, **env_overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=600,
    )


class TestBenchCLISmoke:
    def test_fig10_with_jobs(self, tmp_path):
        proc = _run_cli(tmp_path, "fig10", "--jobs", "2")
        assert proc.returncode == 0, proc.stderr
        assert "Fig. 10" in proc.stdout
        for app in ("xsbench", "rsbench", "testsnap", "minifmm"):
            assert app in proc.stdout
        # The CUDA column of the Kokkos app stays empty.
        assert "n/a" in proc.stdout
        # The redirected disk cache was populated, not the run's cwd.
        assert list((tmp_path / "cache").glob("*.pkl"))
        assert not (tmp_path / ".repro-cache").exists()

    def test_unknown_figure_rejected_in_process(self):
        from repro.bench.__main__ import main

        assert main(["prog", "unknown-figure"]) == 2

    def test_jobs_flag_parsed_in_process(self, capsys):
        # --jobs must be accepted by every figure command; exercise the
        # parser without paying for a figure run.
        from repro.bench.__main__ import _parser

        args = _parser().parse_args(["fig11", "--jobs", "3"])
        assert args.what == "fig11"
        assert args.jobs == 3
