"""Rewrite ``tests/frontend/lowered_digests.json`` from the current frontend.

Run from the repository root::

    PYTHONPATH=src python tests/regen_lowered_digests.py

Only do this for a change that is meant to alter what the frontend
emits; ``tests/frontend/test_lowered_digests.py`` never rewrites it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.frontend import lowered_digests  # noqa: E402


def main() -> int:
    digests = dict(lowered_digests.compute())
    lowered_digests.write(digests)
    print(f"wrote {len(digests)} digests to {lowered_digests.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
