"""Parallel build-matrix execution must be bit-identical to serial."""

import pytest

from repro.bench.builds import BUILD_ORDER
from repro.bench.harness import resolve_jobs, run_build_matrix

TINY = {"n_sites": 64}


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(2) == 2

    def test_clamped_to_cells(self):
        assert resolve_jobs(8, cells=3) == 3

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs() == 1


class TestParallelMatrix:
    def test_parallel_equals_serial(self):
        serial = run_build_matrix("gridmini", size=TINY, jobs=1)
        parallel = run_build_matrix("gridmini", size=TINY, jobs=2)
        assert set(serial.results) == set(parallel.results) == set(BUILD_ORDER)
        for build in BUILD_ORDER:
            assert serial.cycles(build) == parallel.cycles(build), build
            sp, pp = serial.results[build].profile, parallel.results[build].profile
            assert sp.registers == pp.registers
            assert sp.shared_memory_bytes == pp.shared_memory_bytes
            assert sp.barriers == pp.barriers
        assert parallel.all_verified()

    def test_parallel_preserves_build_order(self):
        parallel = run_build_matrix("gridmini", size=TINY, jobs=3)
        assert list(parallel.results) == BUILD_ORDER

    def test_env_jobs_drives_matrix(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        matrix = run_build_matrix("gridmini", builds=BUILD_ORDER[:2], size=TINY)
        assert matrix.all_verified()
        assert list(matrix.results) == BUILD_ORDER[:2]
