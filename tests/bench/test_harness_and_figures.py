"""Benchmark harness and figure generators (small sizes)."""

import pytest

from repro.bench.builds import (
    BUILD_ORDER,
    CUDA,
    NEW_RT,
    OLD_RT_NIGHTLY,
    ablation_configs,
    build_options,
)
from repro.bench.harness import APPS, SKIP_CUDA, run_build_matrix
from repro.bench import figures

TINY = {"n_sites": 64}


class TestBuildOptions:
    def test_five_builds(self):
        options = build_options()
        assert list(options) == BUILD_ORDER

    def test_fresh_instances(self):
        a = build_options()
        b = build_options()
        assert a[NEW_RT] is not b[NEW_RT]

    def test_new_rt_has_assumptions(self):
        options = build_options()
        cfg = options[NEW_RT].runtime_config
        assert cfg.assume_threads_oversubscription
        assert cfg.assume_teams_oversubscription

    def test_nightly_keeps_stack(self):
        options = build_options()
        assert not options["New RT (Nightly)"].pipeline.enable_globalization_elim

    def test_ablation_configs_differ_from_full(self):
        configs = ablation_configs()
        assert "full" in configs
        full = configs["full"]
        for label, cfg in configs.items():
            if label == "full":
                continue
            assert vars(cfg) != vars(full), label


class TestHarness:
    def test_matrix_runs_and_verifies(self):
        matrix = run_build_matrix("gridmini", size=TINY)
        assert matrix.all_verified()
        assert set(matrix.results) == set(BUILD_ORDER)

    def test_relative_performance_normalized(self):
        matrix = run_build_matrix("gridmini", size=TINY)
        rel = matrix.speedups(OLD_RT_NIGHTLY)
        assert rel[OLD_RT_NIGHTLY] == 1.0
        assert rel[NEW_RT] >= 1.0

    def test_testsnap_skips_cuda(self):
        assert "testsnap" in SKIP_CUDA
        matrix = run_build_matrix(
            "testsnap", size={"n_atoms": 64, "n_neighbors": 2})
        assert CUDA not in matrix.results

    def test_build_subset(self):
        matrix = run_build_matrix("gridmini", builds=[NEW_RT, CUDA], size=TINY)
        assert set(matrix.results) == {NEW_RT, CUDA}


class TestFigureFormatting:
    def test_fig10_table_renders(self):
        data = {"gridmini": run_build_matrix("gridmini", size=TINY)
                .speedups(OLD_RT_NIGHTLY)}
        text = figures.format_fig10(data)
        assert "gridmini" in text
        assert "1.00" in text

    def test_fig11_rows_render(self):
        rows = [figures.ResourceRow("app", "build", 100, 0.1, 32, 2048)]
        text = figures.format_fig11(rows)
        assert "2048B" in text and "32" in text

    def test_fig12_renders(self):
        text = figures.format_fig12({NEW_RT: 12.34, CUDA: 12.50})
        assert "12.34" in text

    def test_fig13_renders(self):
        text = figures.format_fig13({"app": {"full": 100, "no x": 150}})
        assert "1.50x" in text

    def test_oversubscription_effect_fields(self):
        effect = figures.OversubscriptionEffect("app", 1000, 950, 40, 30)
        assert effect.register_delta == -10
        assert effect.time_delta_percent == pytest.approx(-5.0)
        assert "-10" in figures.format_oversubscription(effect)


class TestCLI:
    def test_module_main_rejects_unknown(self):
        from repro.bench.__main__ import main

        assert main(["prog", "unknown-figure"]) == 2

    def test_removed_history_surfaces_are_unknown(self):
        """Removed commands (``history``, ``compare``, ``chaos``,
        ``faults``, ``timings``) and flags (``--smoke``) are usage
        errors, not silent no-ops."""
        from repro.bench.__main__ import main

        for argv in (["history"], ["compare"], ["compare", "--baseline"],
                     ["micro", "--smoke", "--run-a", "x", "--run-b", "y"],
                     ["chaos"], ["chaos", "--smoke"], ["faults"],
                     ["faults", "--smoke"], ["timings"],
                     ["trace", "--smoke"], ["micro", "--smoke"]):
            assert main(["prog", *argv]) == 2, argv
