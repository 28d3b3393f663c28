"""Compile-cache behaviour: hits, independence, disk store, LRU."""

import pytest

from repro.apps import gridmini
from repro.frontend.driver import (
    CompileOptions,
    Target,
    compile_program,
    compile_program_uncached,
)
from repro.toolchain.cache import (
    CompileCache,
    configure_compile_cache,
    get_compile_cache,
    reset_compile_cache,
)
from repro.toolchain.fingerprint import module_fingerprint

TINY = {"n_sites": 64}


@pytest.fixture
def program():
    return gridmini.build_program(TINY)


@pytest.fixture
def options():
    return CompileOptions(Target.OPENMP_NEW)


class TestMemoryCache:
    def test_hit_counter_increments_and_pipeline_not_rerun(
        self, program, options, monkeypatch
    ):
        cache = CompileCache(disk_dir=None)
        compiles = {"n": 0}
        import repro.frontend.driver as driver

        real = driver.compile_program_uncached

        def counting(*args, **kwargs):
            compiles["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(driver, "compile_program_uncached", counting)
        first = cache.get_or_compile(program, options)
        assert (cache.stats.hits, cache.stats.misses, compiles["n"]) == (0, 1, 1)
        second = cache.get_or_compile(program, options)
        assert (cache.stats.hits, cache.stats.misses, compiles["n"]) == (1, 1, 1)
        assert module_fingerprint(first.module) == module_fingerprint(second.module)

    def test_hit_returns_independent_copy(self, program, options):
        cache = CompileCache(disk_dir=None)
        first = cache.get_or_compile(program, options)
        pristine = module_fingerprint(first.module)
        # Mutating what the cache handed out must not poison later hits.
        first.module.functions.clear()
        first.abis.clear()
        second = cache.get_or_compile(program, options)
        assert module_fingerprint(second.module) == pristine
        assert second.module.functions
        assert second.abis

    def test_distinct_options_are_distinct_entries(self, program):
        cache = CompileCache(disk_dir=None)
        cache.get_or_compile(program, CompileOptions(Target.OPENMP_NEW))
        cache.get_or_compile(program, CompileOptions(Target.OPENMP_OLD))
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_lru_eviction(self, program):
        cache = CompileCache(max_entries=1, disk_dir=None)
        cache.get_or_compile(program, CompileOptions(Target.OPENMP_NEW))
        cache.get_or_compile(program, CompileOptions(Target.CUDA))
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # The evicted entry recompiles.
        cache.get_or_compile(program, CompileOptions(Target.OPENMP_NEW))
        assert cache.stats.misses == 3


class TestDiskCache:
    def test_cold_process_restores_from_disk(self, program, options, tmp_path):
        warm = CompileCache(disk_dir=tmp_path / "store")
        original = warm.get_or_compile(program, options)
        assert warm.stats.disk_stores == 1
        # A fresh cache (≈ new process) with the same store directory.
        cold = CompileCache(disk_dir=tmp_path / "store")
        restored = cold.get_or_compile(program, options)
        assert cold.stats.misses == 0
        assert cold.stats.hits == 1
        assert cold.stats.disk_hits == 1
        assert module_fingerprint(restored.module) == module_fingerprint(
            original.module
        )

    def test_corrupt_entry_recompiles(self, program, options, tmp_path):
        store = tmp_path / "store"
        warm = CompileCache(disk_dir=store)
        warm.get_or_compile(program, options)
        for path in store.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        cold = CompileCache(disk_dir=store)
        restored = cold.get_or_compile(program, options)
        assert cold.stats.misses == 1
        assert restored.module.functions

    def test_clear_disk(self, program, options, tmp_path):
        store = tmp_path / "store"
        cache = CompileCache(disk_dir=store)
        cache.get_or_compile(program, options)
        assert list(store.glob("*.pkl"))
        cache.clear(disk=True)
        assert not list(store.glob("*.pkl"))
        assert len(cache) == 0


class TestGlobalCache:
    def test_compile_program_routes_through_global_cache(self, program, options):
        cache = configure_compile_cache(CompileCache(disk_dir=None))
        try:
            compile_program(program, options)
            compile_program(program, options)
            assert cache.stats.hits == 1
            assert cache.stats.misses == 1
        finally:
            reset_compile_cache()

    def test_compile_program_uncached_bypasses(self, program, options):
        cache = configure_compile_cache(CompileCache(disk_dir=None))
        try:
            compile_program_uncached(program, options)
            assert cache.stats.lookups == 0
        finally:
            reset_compile_cache()

    def test_env_kill_switch(self, monkeypatch):
        reset_compile_cache()
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert get_compile_cache() is None
        reset_compile_cache()

    def test_env_cache_dir(self, monkeypatch, tmp_path):
        reset_compile_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = get_compile_cache()
        assert cache is not None
        assert cache.disk_dir == tmp_path / "elsewhere"
        reset_compile_cache()
