"""``python -m repro.bench micro`` — directive-level microbenchmarks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import micro
from repro.trace.categories import CATEGORY_NAMES

pytestmark = pytest.mark.micro

TRACKED_REPORT = Path(__file__).resolve().parents[2] / micro.DEFAULT_OUTPUT


@pytest.fixture(scope="module")
def smoke_report():
    return micro.micro_matrix(smoke=True)


class TestMicroSmoke:
    def test_costs_for_all_constructs_runtimes_engines(self, smoke_report):
        """The acceptance bar: modeled-cycle costs for >= 6 constructs
        x both runtimes x both engines."""
        covered = {
            (c["construct"], c["runtime"], c["engine"])
            for c in smoke_report["cells"]
            if c["cycles_per_call"] is not None
        }
        constructs = {c for c, _, _ in covered}
        assert len(constructs) >= 6
        for runtime in ("oldrt", "newrt"):
            for engine in ("decoded", "warp"):
                per = {c for c, rt, en in covered
                       if rt == runtime and en == engine}
                assert len(per) >= 6, (runtime, engine, sorted(per))

    def test_engine_parity(self, smoke_report):
        assert smoke_report["parity_ok"] is True

    def test_cell_schema(self, smoke_report):
        for cell in smoke_report["cells"]:
            assert cell["construct"] in micro.CONSTRUCT_ORDER
            assert cell["category"] in CATEGORY_NAMES
            assert cell["engine"] in ("decoded", "warp")
            assert cell["cycles"] >= 0
            if cell["cycles_per_call"] is not None:
                assert cell["cycles_per_call"] > 0

    def test_summary_covers_every_construct(self, smoke_report):
        for construct in micro.CONSTRUCT_ORDER:
            entry = smoke_report["constructs"][construct]
            assert entry["category"] == micro.CONSTRUCT_CATEGORY[construct]
            for runtime in smoke_report["config"]["runtimes"]:
                assert runtime in entry

    def test_report_carries_v2_envelope(self, smoke_report):
        assert smoke_report["meta"]["schema_version"] == micro.SCHEMA_VERSION
        assert smoke_report["benchmark"] == "micro"

    def test_meta_block_identifies_the_host(self):
        """The envelope names the schema and the host, nothing else:
        no wall clock, path or user, so a rerun on the same host
        writes the same block."""
        import platform

        assert micro.meta_block() == {
            "schema_version": micro.SCHEMA_VERSION,
            "machine": platform.machine(),
            "python": platform.python_version(),
            "platform": platform.system(),
        }

    def test_report_is_json_serializable(self, smoke_report):
        json.loads(micro.render_json(smoke_report))

    def test_old_runtime_worksharing_costs_more(self, smoke_report):
        """The paper's Fig. 5 story: the old RT's chunked worksharing
        dispatch costs more per iteration than the no-chunk loop."""
        ws = smoke_report["constructs"]["worksharing"]
        assert ws["oldrt"]["cycles_per_call"] > ws["newrt"]["cycles_per_call"]

    def test_barrier_alignment_split_differs_by_runtime(self, smoke_report):
        """The new RT's launch bracket closes aligned barrier phases;
        the old RT has no aligned fast path at all (§III-E).  Explicit
        user barriers stay unaligned in both at -O0 — proving them
        aligned is the optimized pipeline's job (§IV-C)."""
        def cells(construct, runtime):
            out = [c for c in smoke_report["cells"]
                   if c["construct"] == construct and c["runtime"] == runtime
                   and c["engine"] == "decoded"]
            assert out
            return out

        # Raw empty-kernel snapshot: the bracket itself.
        for cell in cells("parallel_region", "newrt"):
            assert cell["barriers_aligned"] > 0
        for cell in cells("parallel_region", "oldrt"):
            assert cell["barriers_aligned"] == 0
        # Differential barrier cells: user barriers, unaligned at -O0.
        for runtime in ("oldrt", "newrt"):
            for cell in cells("barrier", runtime):
                assert cell["barriers_unaligned"] > 0
                assert cell["barriers_aligned"] == 0

    def test_global_fallback_counts_mallocs(self, smoke_report):
        cells = [c for c in smoke_report["cells"]
                 if c["construct"] == "global_fallback"]
        assert all(c["global_fallbacks"] > 0 for c in cells)


def _cell_key(cell):
    return "/".join(str(cell[k]) for k in (
        "construct", "runtime", "engine", "teams", "threads", "workload"))


def _diff(label, old, new):
    """``label: field old -> new`` for the fields two dicts disagree on."""
    fields = sorted(f for f in old.keys() | new.keys()
                    if old.get(f) != new.get(f))
    if not fields:
        return []
    return [f"{label}: " + ", ".join(
        f"{f} {old.get(f)!r} -> {new.get(f)!r}" for f in fields)]


def _pin_mismatches(fresh, tracked):
    """Human-readable differences between two micro reports' pinned
    sections: the sweep config, cells by key and construct summaries."""
    out = _diff("config", tracked["config"], fresh["config"])
    old_cells = {_cell_key(c): c for c in tracked["cells"]}
    new_cells = {_cell_key(c): c for c in fresh["cells"]}
    for key in sorted(old_cells.keys() | new_cells.keys()):
        out += _diff(f"cell {key}", old_cells.get(key, {}),
                     new_cells.get(key, {}))
    for construct in sorted(tracked["constructs"].keys()
                            | fresh["constructs"].keys()):
        out += _diff(f"constructs {construct}",
                     tracked["constructs"].get(construct, {}),
                     fresh["constructs"].get(construct, {}))
    return out


class TestTrackedReportPin:
    """BENCH_micro.json is the paper's §III per-construct overheads as
    this simulator models them.  Modeled numbers are deterministic, so
    the full sweep must reproduce the tracked report exactly."""

    def test_full_sweep_equals_tracked_report(self):
        fresh = json.loads(micro.render_json(micro.micro_matrix()))
        tracked = json.loads(TRACKED_REPORT.read_text())
        assert fresh["parity_ok"] is True
        mismatches = _pin_mismatches(fresh, tracked)
        assert not mismatches, (
            f"{len(mismatches)} modeled micro numbers differ from "
            f"{micro.DEFAULT_OUTPUT}; if the change is intended, "
            f"regenerate it with `python -m repro.bench micro` and explain "
            f"the change in CHANGES.md:\n  " + "\n  ".join(mismatches[:40])
        )
        for section in ("cells", "constructs", "config"):
            assert fresh[section] == tracked[section], section

    def test_mismatch_names_the_cell(self):
        tracked = json.loads(TRACKED_REPORT.read_text())
        moved = json.loads(json.dumps(tracked))
        cell = moved["cells"][7]
        cell["cycles"] += 1
        assert _pin_mismatches(moved, tracked) == [
            f"cell {_cell_key(cell)}: cycles {cell['cycles'] - 1} -> "
            f"{cell['cycles']}"
        ]


class TestScalingFit:
    def test_fit_recovers_plane(self):
        points = [
            (t, th, 10.0 + 2.0 * t + 0.5 * th)
            for t in (1, 2, 4) for th in (4, 16)
        ]
        fit = micro.fit_scaling(points)
        assert fit is not None
        assert fit["a"] == pytest.approx(10.0, abs=1e-6)
        assert fit["b"] == pytest.approx(2.0, abs=1e-6)
        assert fit["c"] == pytest.approx(0.5, abs=1e-6)
        assert fit["r2"] == pytest.approx(1.0)

    def test_fit_constant_data_is_perfect_not_negative(self):
        points = [(t, th, 10.2) for t in (1, 2, 4) for th in (4, 16)]
        fit = micro.fit_scaling(points)
        assert fit["r2"] == pytest.approx(1.0)

    def test_fit_requires_three_grid_points(self):
        assert micro.fit_scaling([(1, 4, 5.0), (2, 4, 6.0)]) is None
        # Repeats at the same grid point don't add rank.
        assert micro.fit_scaling([(1, 4, 5.0), (1, 4, 5.0), (2, 4, 6.0)]) is None


class TestMicroCLI:
    def test_smoke_never_overwrites_tracked_report(self, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["prog", "micro", "--smoke"]) == 0
        assert not (tmp_path / micro.DEFAULT_OUTPUT).exists()

    def test_explicit_out_is_written(self, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "micro.json"
        assert main(["prog", "micro", "--smoke", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["benchmark"] == "micro"
        assert report["parity_ok"] is True
