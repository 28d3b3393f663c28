"""Rewrite ``tests/integration/run_digests.json`` from the current simulator.

Run from the repository root::

    PYTHONPATH=src python tests/regen_run_digests.py

Only do this for a change that is meant to move a modeled number, and
say why in CHANGES.md; ``tests/integration/test_run_digests.py`` never
rewrites it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.integration import run_digests  # noqa: E402
from tests.passes import compile_digests  # noqa: E402


def main() -> int:
    compiled = compile_digests.compile_cells()
    digests = {name: dict(run_digests.compute(compiled, traced=name == "traced"))
               for name in run_digests.PASSES}
    run_digests.write(digests)
    print(f"wrote {sum(map(len, digests.values()))} digests to {run_digests.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
