"""The suite's own pytest configuration (``pyproject.toml``).

Tier-1 runs with ``error::DeprecationWarning``.  A failing hypothesis
test must still be reported as an ordinary failure with its falsifying
example, not crash pytest, while a DeprecationWarning raised by the
code under test must still fail.  Each check runs pytest in a
subprocess, with the repository's configuration, on a throwaway test
file.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _pytest(tmp_path, source):
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent(source))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(probe)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    proc = _pytest(tmp_path, """
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_always_fails(x):
            assert x != x
    """)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1, output
    assert "Falsifying example" in output


def test_deprecation_warning_still_fails_a_test(tmp_path):
    proc = _pytest(tmp_path, """
        import warnings

        def test_uses_a_deprecated_path():
            warnings.warn("old launch path", DeprecationWarning)
    """)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "DeprecationWarning: old launch path" in output
