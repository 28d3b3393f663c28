"""Rewrite ``tests/passes/compile_digests.json`` from the current pipeline.

Run from the repository root::

    PYTHONPATH=src python tests/regen_compile_digests.py

Only do this for a change that is meant to alter what the pipeline
emits; ``tests/passes/test_compile_digests.py`` never rewrites it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.passes import compile_digests  # noqa: E402


def main() -> int:
    digests = dict(compile_digests.compute(compile_digests.compile_cells()))
    compile_digests.write(digests)
    print(f"wrote {len(digests)} digests to {compile_digests.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
