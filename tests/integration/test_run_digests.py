"""The modeled launch results are pinned: every compile cell's launch at
the default size reports the same ``KernelProfile`` as when
``run_digests.json`` was written, untraced and traced.

A host-side speedup must not move these; a change that means to move a
modeled number regenerates the JSON with ``tests/regen_run_digests.py``.
"""

from __future__ import annotations

import pytest

from tests.integration import run_digests


def test_digests_cover_every_compile_cell(pinned_compiles):
    pinned = run_digests.load()
    assert sorted(pinned) == sorted(run_digests.PASSES)
    for name in run_digests.PASSES:
        assert set(pinned[name]) == set(pinned_compiles)


@pytest.mark.parametrize("pass_name", run_digests.PASSES)
def test_launches_match_the_pinned_digests(pinned_compiles, pass_name):
    pinned = run_digests.load()[pass_name]
    differing = [name for name, got in run_digests.compute(
                     pinned_compiles, traced=pass_name == "traced")
                 if pinned.get(name) != got]
    assert not differing, (
        f"{pass_name} launch results changed in {len(differing)} cell(s): {differing}")
