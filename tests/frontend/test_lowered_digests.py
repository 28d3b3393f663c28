"""The frontend's output is pinned: every lowered cell (each app on the
three targets plus its debug New RT build, and the microbenchmark
program on the three targets) prints the same module and ABIs as when
``lowered_digests.json`` was written.

A refactor of the lowering must not move these; a change that means to
alter the lowered IR regenerates the JSON with
``tests/regen_lowered_digests.py``.
"""

from __future__ import annotations

from tests.frontend import lowered_digests


def test_cells_cover_apps_targets_debug_and_micro():
    names = [name for name, _, _ in lowered_digests.cells()]
    assert len(names) == len(set(names)) == 23
    assert set(names) == set(lowered_digests.load())


def test_lowered_output_matches_the_pinned_digests():
    pinned = lowered_digests.load()
    differing = [name for name, got in lowered_digests.compute()
                 if pinned.get(name) != got]
    assert not differing, f"lowered output changed in {len(differing)} cell(s): {differing}"
