"""ToolchainSession and the harness's cell runners (``run_build_matrix``,
``map_cells``) that compile through it."""

import json

import pytest

from repro.bench.builds import CUDA, NEW_RT, OLD_RT_NIGHTLY
from repro.bench.harness import map_cells, run_build_matrix
from repro.frontend.driver import CompileOptions, Target
from repro.toolchain import ToolchainSession

TINY = {"n_sites": 64}


class TestEntryPoints:
    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            run_build_matrix("nosuchapp")

    def test_session_takes_no_jobs(self):
        """The process-pool fan-out lives in the bench harness: a
        session only compiles."""
        with pytest.raises(TypeError, match="jobs"):
            ToolchainSession(jobs=2)
        for name in ("run", "run_single", "map_cells"):
            assert not hasattr(ToolchainSession, name)

    def test_map_cells_rejects_unknown_app(self):
        with pytest.raises(KeyError):
            map_cells([("nosuchapp", "x", CompileOptions(Target.CUDA), {})])


class TestSessionRuns:
    def test_single_request_labels_cell(self):
        options = CompileOptions(Target.OPENMP_NEW)
        results = map_cells([("gridmini", "mine", options, {"size": TINY})])
        assert [label for label, _ in results] == ["mine"]

    def test_matrix_cell_is_one_run_app_call(self):
        """Each matrix cell is a plain ``run_app`` call under the named
        build's options: both spellings give the same profile."""
        from repro.apps import gridmini
        from repro.apps.common import run_app
        from repro.bench.builds import build_options

        matrix = run_build_matrix("gridmini", [NEW_RT, CUDA], size=TINY)
        options = build_options()
        for build in (NEW_RT, CUDA):
            direct = run_app(gridmini, options[build], size=TINY)
            assert direct.verified and matrix.results[build].verified
            assert direct.profile.cycles == matrix.cycles(build)

    def test_run_app_grid_defaults_to_the_app_grid(self):
        from repro.apps import gridmini
        from repro.apps.common import run_app

        options = CompileOptions(Target.OPENMP_NEW)
        default = run_app(gridmini, options, size=TINY)
        explicit = run_app(gridmini, options, size=TINY,
                           num_teams=gridmini.TEAMS,
                           threads_per_team=gridmini.THREADS)
        assert default.verified and explicit.verified
        assert default.profile.cycles == explicit.profile.cycles

    def test_testsnap_cuda_still_skipped(self):
        matrix = run_build_matrix(
            "testsnap", size={"n_atoms": 64, "n_neighbors": 2})
        assert CUDA not in matrix.results

    def test_run_compiles_through_the_session_cache(self):
        from repro.toolchain.cache import CompileCache

        cache = CompileCache(disk_dir=None)
        run_build_matrix("gridmini", [NEW_RT], size=TINY,
                         session=ToolchainSession(cache=cache))
        assert cache.stats.lookups == 1

    def test_pool_workers_compile_into_the_session_disk_store(self, tmp_path):
        from repro.toolchain.cache import CompileCache

        cache = CompileCache(disk_dir=tmp_path)
        matrix = run_build_matrix("gridmini", [NEW_RT, CUDA], size=TINY,
                                  jobs=2, session=ToolchainSession(cache=cache))
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
        results = dict(map_cells(cells, jobs=2, session=session))
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
