"""ToolchainSession / RunRequest — the unified run entry point."""

import json

import pytest

from repro.bench.builds import CUDA, NEW_RT, OLD_RT_NIGHTLY
from repro.bench.harness import MatrixResult, run_build_matrix, run_single
from repro.frontend.driver import CompileOptions, Target
from repro.toolchain import RunRequest, ToolchainSession

TINY = {"n_sites": 64}


class TestRunRequest:
    def test_builds_and_options_exclusive(self):
        with pytest.raises(ValueError):
            RunRequest(app="gridmini", builds=[NEW_RT],
                       options=CompileOptions(Target.OPENMP_NEW))

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            ToolchainSession().run(RunRequest(app="nosuchapp"))


class TestSessionRuns:
    def test_matrix_request_matches_wrapper(self):
        session = ToolchainSession()
        via_session = session.run(
            RunRequest(app="gridmini", builds=[NEW_RT, CUDA], size=TINY))
        via_wrapper = run_build_matrix("gridmini", builds=[NEW_RT, CUDA], size=TINY)
        assert isinstance(via_session, MatrixResult)
        assert {b: via_session.cycles(b) for b in via_session.results} == {
            b: via_wrapper.cycles(b) for b in via_wrapper.results}

    def test_single_request_matches_wrapper(self):
        options = CompileOptions(Target.CUDA)
        via_session = ToolchainSession().run_single(
            RunRequest(app="gridmini", options=options, size=TINY))
        via_wrapper = run_single("gridmini", options, size=TINY)
        assert via_session.profile.cycles == via_wrapper.profile.cycles
        assert via_session.verified and via_wrapper.verified

    def test_single_request_labels_cell(self):
        options = CompileOptions(Target.OPENMP_NEW)
        matrix = ToolchainSession().run(
            RunRequest(app="gridmini", options=options, label="mine", size=TINY))
        assert list(matrix.results) == ["mine"]

    def test_testsnap_cuda_still_skipped(self):
        matrix = ToolchainSession().run(RunRequest(
            app="testsnap", size={"n_atoms": 64, "n_neighbors": 2}))
        assert CUDA not in matrix.results

    def test_run_compiles_through_the_session_cache(self):
        from repro.toolchain.cache import CompileCache

        cache = CompileCache(disk_dir=None)
        ToolchainSession(cache=cache).run(
            RunRequest(app="gridmini", builds=[NEW_RT], size=TINY))
        assert cache.stats.lookups == 1

    def test_pool_workers_compile_into_the_session_disk_store(self, tmp_path):
        from repro.toolchain.cache import CompileCache

        cache = CompileCache(disk_dir=tmp_path)
        matrix = ToolchainSession(jobs=2, cache=cache).run(
            RunRequest(app="gridmini", builds=[NEW_RT, CUDA], size=TINY))
        assert matrix.all_verified()
        assert len(list(tmp_path.glob("*.pkl"))) == 2

    def test_frozen_programs_survive_the_pool_round_trip(self, tmp_path):
        from types import MappingProxyType

        from repro.apps import gridmini
        from repro.toolchain.cache import CompileCache
        from repro.toolchain.fingerprint import module_fingerprint
        from repro.vgpu import LaunchSpec, VirtualGPU

        session = ToolchainSession(cache=CompileCache(disk_dir=tmp_path))
        cells = [("gridmini", label, CompileOptions(target), {"size": TINY})
                 for label, target in (("new", Target.OPENMP_NEW), ("cuda", Target.CUDA))]
        results = dict(session.map_cells(cells, jobs=2))
        program = gridmini.build_program(TINY)
        for _, label, options, _ in cells:
            compiled = results[label].compiled
            assert compiled.module.frozen
            assert isinstance(compiled.abis, MappingProxyType)
            with pytest.raises(TypeError):
                compiled.module.functions["extra"] = None
            local = session.compile(program, options)
            assert local is not compiled
            assert module_fingerprint(compiled.module) == module_fingerprint(local.module)
            # The returned program still launches, to the same profile.
            gpu = VirtualGPU(compiled.module)
            host_args, verify = gridmini.prepare(gpu, TINY)
            profile = gpu.run(LaunchSpec(
                kernel=gridmini.KERNEL, num_teams=gridmini.TEAMS,
                threads_per_team=gridmini.THREADS,
                args=tuple(compiled.abi(gridmini.KERNEL).marshal(gpu, host_args)),
            )).profile
            assert verify(gpu, host_args) < 1e-9
            assert profile.cycles == results[label].profile.cycles

    def test_traced_hit_emits_no_pass_spans(self):
        from repro.apps import xsbench
        from repro.toolchain.cache import CompileCache
        from repro.trace.collector import TraceCollector, install

        session = ToolchainSession(cache=CompileCache(disk_dir=None))
        program = xsbench.build_program(xsbench.default_size())
        options = CompileOptions(Target.OPENMP_NEW)

        def pass_spans(trace):
            return [e for e in trace.events if e["name"].startswith("pass ")]

        with install(TraceCollector()) as trace:
            miss = session.compile(program, options)
            after_miss = len(pass_spans(trace))
            assert after_miss == len(miss.stats.timings) > 0
            hit = session.compile(program, options)
            assert session.cache.stats.hits == 1
            assert len(pass_spans(trace)) == after_miss
            assert hit is miss

    def test_session_compile_uses_cache(self):
        from repro.apps import gridmini
        from repro.toolchain.cache import CompileCache

        cache = CompileCache(disk_dir=None)
        session = ToolchainSession(cache=cache)
        program = gridmini.build_program(TINY)
        session.compile(program, CompileOptions(Target.OPENMP_NEW))
        session.compile(program, CompileOptions(Target.OPENMP_NEW))
        assert cache.stats.hits == 1


class TestMatrixResultAccessors:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_build_matrix("gridmini", size=TINY)

    def test_speedups_default_baseline(self, matrix):
        speedups = matrix.speedups()
        assert speedups[OLD_RT_NIGHTLY] == 1.0
        assert speedups[NEW_RT] >= 1.0

    def test_relative_performance_alias(self, matrix):
        assert matrix.relative_performance(OLD_RT_NIGHTLY) == matrix.speedups(
            OLD_RT_NIGHTLY)

    def test_resource_table_rows(self, matrix):
        rows = matrix.resource_table()
        assert len(rows) == len(matrix.results)
        for row in rows:
            assert {"app", "build", "kernel_cycles", "time_ms", "registers",
                    "shared_memory_bytes", "barriers", "gflops",
                    "verified"} <= set(row)
            assert row["app"] == "gridmini"
            assert row["kernel_cycles"] == matrix.cycles(row["build"])

    def test_to_json_parses(self, matrix):
        doc = json.loads(matrix.to_json())
        assert doc["app"] == "gridmini"
        assert set(doc["builds"]) == set(matrix.results)
        assert len(doc["rows"]) == len(matrix.results)
