"""Compile-cache behaviour: shared frozen hits, disk store, LRU."""

import pytest

from repro.apps import gridmini
from repro.frontend.driver import (
    CompileOptions,
    Target,
    compile_program,
    compile_program_uncached,
)
from repro.ir import BinOp, Store, verify_module
from repro.passes import PipelineConfig, run_openmp_opt_pipeline
from repro.passes.pass_manager import module_instruction_count
from repro.passes.remarks import RemarkCollector
from repro.toolchain.cache import (
    CompileCache,
    configure_compile_cache,
    get_compile_cache,
    reset_compile_cache,
)
from repro.toolchain.fingerprint import module_fingerprint
from repro.toolchain.service import ToolchainSession
from repro.vgpu import GPUConfig, VirtualGPU

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

    def test_mutating_a_hit_raises_and_next_hit_is_pristine(self, program, options):
        cache = CompileCache(disk_dir=None)
        first = cache.get_or_compile(program, options)
        pristine = module_fingerprint(first.module)
        # An edit of what the cache handed out raises instead of
        # poisoning later hits.
        with pytest.raises(AttributeError):
            first.module.functions.clear()
        with pytest.raises(AttributeError):
            first.abis.clear()
        second = cache.get_or_compile(program, options)
        assert second is first
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


def _body_instructions(module):
    return [inst for func in module.defined_functions()
            for inst in func.instructions()]


def _first(module, kind):
    return next(i for i in _body_instructions(module) if isinstance(i, kind))


#: In-place edits of a frozen hit, each of which must raise.
EDITS = {
    "set_operand": lambda c: _first(c.module, BinOp).set_operand(
        0, _first(c.module, BinOp).operands[1]),
    "erase_from_parent": lambda c: _first(c.module, Store).erase_from_parent(),
    "build_over_frozen_value": lambda c: BinOp(
        "add", _first(c.module, BinOp), _first(c.module, BinOp)),
    "functions_setitem": lambda c: c.module.functions.__setitem__(
        "extra", next(iter(c.module.functions.values()))),
    "abis_clear": lambda c: c.abis.clear(),
}


class TestFrozenHits:
    """A hit is the cache's one live program: frozen, shared, and with
    its content-only launch work done once."""

    @pytest.mark.parametrize("edit", EDITS)
    def test_edit_of_a_hit_raises(self, program, options, edit):
        cache = CompileCache(disk_dir=None)
        hit = cache.get_or_compile(program, options)
        pristine = module_fingerprint(hit.module)
        with pytest.raises((AttributeError, TypeError)):
            EDITS[edit](hit)
        again = cache.get_or_compile(program, options)
        assert again is hit and cache.stats.hits == 1
        assert module_fingerprint(again.module) == pristine

    def test_disk_restore_is_frozen(self, program, options, tmp_path):
        CompileCache(disk_dir=tmp_path).get_or_compile(program, options)
        restored = CompileCache(disk_dir=tmp_path).get_or_compile(program, options)
        assert restored.module.frozen
        with pytest.raises(TypeError):
            restored.module.globals["extra"] = None

    def test_uncached_compile_stays_mutable(self, program, options):
        compiled = compile_program_uncached(program, options)
        assert not compiled.module.frozen
        compiled.abis.clear()

    def test_mutable_copy_runs_the_pipeline_without_touching_hits(self, program):
        o0 = CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig(opt_level=0))
        cache = CompileCache(disk_dir=None)
        hit = cache.get_or_compile(program, o0)
        pristine = module_fingerprint(hit.module)
        copy = hit.mutable_copy()
        assert not copy.module.frozen
        assert module_fingerprint(copy.module) == pristine
        before = module_instruction_count(copy.module)
        run_openmp_opt_pipeline(copy.module, PipelineConfig(), RemarkCollector())
        verify_module(copy.module)
        assert module_instruction_count(copy.module) < before
        copy.abis.clear()
        again = cache.get_or_compile(program, o0)
        assert again is hit and again.abis
        assert module_fingerprint(again.module) == pristine

    def test_devices_on_one_hit_share_resources_and_static_decode(
        self, program, options, monkeypatch
    ):
        import repro.vgpu.decode as D
        import repro.vgpu.interpreter as interpreter

        calls = {"measure": 0, "decode": 0}

        def spy(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(interpreter, "measure_resources",
                            spy("measure", interpreter.measure_resources))
        monkeypatch.setattr(D, "decode_function", spy("decode", D.decode_function))
        session = ToolchainSession(cache=CompileCache(disk_dir=None))
        first = gridmini.run(options, size=TINY, session=session)
        decodes = calls["decode"]
        assert calls["measure"] == 1 and decodes >= 1
        second = gridmini.run(options, size=TINY, session=session)
        assert second.compiled is first.compiled
        assert calls == {"measure": 1, "decode": decodes}
        assert second.profile.cycles == first.profile.cycles
        # Binding stays per device; the static decode is shared.
        module = first.compiled.module
        kernel = module.get_function(gridmini.KERNEL)
        a, b = VirtualGPU(module), VirtualGPU(module)
        bound_a, bound_b = D.bind_function(a, kernel), D.bind_function(b, kernel)
        assert bound_a is not bound_b and bound_a.code is bound_b.code
        # Another warp size decodes anew.
        other = VirtualGPU(module, config=GPUConfig(warp_size=16))
        assert D.bind_function(other, kernel).code is not bound_a.code

    def test_mutable_module_decodes_per_device(self, program, options):
        import repro.vgpu.decode as D

        module = compile_program_uncached(program, options).module
        kernel = module.get_function(gridmini.KERNEL)
        a, b = VirtualGPU(module), VirtualGPU(module)
        assert D.bind_function(a, kernel).code is not D.bind_function(b, kernel).code


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
