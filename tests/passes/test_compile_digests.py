"""The pipeline's output is pinned: every compile-cold cell (24 matrix
builds plus the six §IV ablation builds per app) prints the same module
and remarks as when ``compile_digests.json`` was written.

A speedup of the IR core or the passes must not move these; a change
that means to alter the output regenerates the JSON with
``tests/regen_compile_digests.py``.
"""

from __future__ import annotations

from tests.passes import compile_digests


def test_cells_cover_the_matrix_and_ablation_builds():
    names = [name for name, _, _ in compile_digests.cells()]
    assert len(names) == len(set(names)) == 54
    assert set(names) == set(compile_digests.load())


def test_pipeline_output_matches_the_pinned_digests(pinned_compiles):
    pinned = compile_digests.load()
    differing = [name for name, got in compile_digests.compute(pinned_compiles)
                 if pinned.get(name) != got]
    assert not differing, f"pipeline output changed in {len(differing)} cell(s): {differing}"
