"""The package stands on numpy alone: importing it pulls in no networkx.

The call graph is plain dicts; a fresh interpreter that imports
``repro``, every ``repro.*`` subpackage and the bench CLI module must
not have loaded networkx (its import alone cost a few hundred
milliseconds of every process's start-up).
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_PROBE = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg]
assert "repro.ir" in names and "repro.runtime.libnew" in names, names
for name in names + ["repro.bench.__main__"]:
    importlib.import_module(name)
assert "networkx" not in sys.modules, "networkx imported"
"""


def test_importing_every_subpackage_loads_no_networkx(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
