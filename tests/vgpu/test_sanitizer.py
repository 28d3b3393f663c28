"""Shadow-memory sanitizer: diagnostics, scoping, zero-cost guarantee."""

import pytest

from repro.ir import I32, I64, Module, verify_module
from repro.vgpu import (
    LaunchSpec,
    OutOfBoundsAccess,
    SanitizedMemorySystem,
    UninitializedRead,
    UseAfterFree,
    VirtualGPU,
)
from repro.memory.addrspace import AddressSpace, make_pointer
from repro.vgpu.config import ENGINES
from tests.conftest import ENGINE_LABELS, engine_mode, make_kernel


@pytest.fixture
def msys():
    m = SanitizedMemorySystem()
    m.begin_launch()
    return m


class TestDeviceHeapChecks:
    def test_clean_malloc_store_load_round_trip(self, msys):
        ptr = msys.malloc(8)
        msys.store(ptr, 7, I64)
        assert msys.load(ptr, I64) == 7

    def test_uninitialized_typed_read_is_flagged(self, msys):
        ptr = msys.malloc(8)
        with pytest.raises(UninitializedRead, match="never written"):
            msys.load(ptr, I64)

    def test_raw_reads_are_exempt_from_the_shadow(self, msys):
        # memcpy of structs with padding is legal: raw reads don't check
        # the written-byte shadow.
        ptr = msys.malloc(8)
        assert msys.read_raw(ptr, 8) == bytes(8)

    def test_raw_writes_mark_the_shadow(self, msys):
        ptr = msys.malloc(8)
        msys.memset(ptr, 0, 8)
        assert msys.load(ptr, I64) == 0  # memset counts as initialization

    def test_partial_initialization_still_flags_the_hole(self, msys):
        ptr = msys.malloc(8)
        msys.store(ptr, 1, I32)  # low 4 bytes only
        with pytest.raises(UninitializedRead):
            msys.load(ptr, I64)

    def test_allocation_overrun(self, msys):
        ptr = msys.malloc(8)
        msys.malloc(8)  # neighbour keeps the overrun inside the segment
        with pytest.raises(OutOfBoundsAccess, match="overruns"):
            msys.store(ptr + 4, 0, I64)  # bytes 4..12 of an 8B allocation

    def test_use_after_free(self, msys):
        ptr = msys.malloc(8)
        msys.store(ptr, 7, I64)
        msys.free(ptr)
        with pytest.raises(UseAfterFree, match="freed"):
            msys.load(ptr, I64)

    def test_raw_access_to_freed_memory_is_also_flagged(self, msys):
        ptr = msys.malloc(8)
        msys.free(ptr)
        with pytest.raises(UseAfterFree):
            msys.read_raw(ptr, 4)


class TestSegmentChecks:
    def test_guard_zone(self, msys):
        with pytest.raises(OutOfBoundsAccess, match="guard zone"):
            msys.load(make_pointer(AddressSpace.GLOBAL, 4), I32)

    def test_past_the_bump_pointer(self, msys):
        beyond = make_pointer(AddressSpace.GLOBAL, msys.global_seg.brk + 64)
        with pytest.raises(OutOfBoundsAccess, match="past the end"):
            msys.store(beyond, 1, I32)

    def test_host_prepared_data_gets_bounds_checks_only(self):
        # Allocations made before begin_launch (input arrays the host
        # staged) are exempt from the device-heap shadow: clean kernels
        # reading their inputs must run unflagged.
        m = SanitizedMemorySystem()
        host = m.malloc(8)
        m.begin_launch()
        assert m.load(host, I64) == 0  # uninit, but host-scoped: no flag


def _busy_module():
    module = Module("m")
    func, b = make_kernel(module, params=())
    ptr = b.intrinsic("malloc", [b.i64(16)])
    b.store(b.i64(7), ptr)
    b.load(I64, ptr)
    b.barrier()
    b.intrinsic("free", [ptr])
    b.ret()
    verify_module(module)
    return module


def _overrun_module():
    module = Module("m")
    func, b = make_kernel(module, params=())
    ptr = b.intrinsic("malloc", [b.i64(8)])
    b.store(b.i64(7), b.ptradd(ptr, 4, "p4"))
    b.ret()
    verify_module(module)
    return module


class TestKernelLevel:
    def test_sanitized_profile_is_bit_identical(self):
        # The zero-cycle guarantee: sanitize=True must not perturb any
        # profiled number on a clean kernel, under either engine.
        for engine in ENGINES:
            module = _busy_module()
            spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=4)
            plain = VirtualGPU(module, engine=engine).run(spec).profile
            checked = VirtualGPU(module, engine=engine,
                                 sanitize=True).run(spec).profile
            assert checked.to_dict() == plain.to_dict(), engine

    def test_overrun_diagnostic_is_identical_across_engines(self):
        # Warp teams take the decoded fallback under sanitize, so the
        # per-op reference is what keeps this a comparison of two
        # implementations.
        messages, contexts = [], []
        for label in ENGINE_LABELS:
            with engine_mode(label) as engine:
                gpu = VirtualGPU(_overrun_module(), engine=engine,
                                 sanitize=True)
                with pytest.raises(OutOfBoundsAccess) as excinfo:
                    gpu.run(LaunchSpec(kernel="kern"))
            messages.append(str(excinfo.value))
            assert excinfo.value.context is not None
            contexts.append(excinfo.value.context.to_dict())
        assert all(m == messages[0] for m in messages), messages
        assert all(c == contexts[0] for c in contexts), contexts
        assert contexts[0]["function"] == "kern"

    def test_uninitialized_read_in_a_kernel(self):
        module = Module("m")
        func, b = make_kernel(module, params=())
        ptr = b.intrinsic("malloc", [b.i64(8)])
        b.load(I64, ptr)
        b.ret()
        verify_module(module)
        messages, contexts = [], []
        for label in ENGINE_LABELS:
            with engine_mode(label) as engine:
                gpu = VirtualGPU(module, engine=engine, sanitize=True)
                with pytest.raises(UninitializedRead) as excinfo:
                    gpu.run(LaunchSpec(kernel="kern"))
            messages.append(str(excinfo.value))
            contexts.append(excinfo.value.context.to_dict())
        assert all(m == messages[0] for m in messages), messages
        assert all(c == contexts[0] for c in contexts), contexts

    def test_unsanitized_run_does_not_flag_the_overrun(self):
        # The same buggy kernel runs to completion without the sanitizer
        # (the bump allocator leaves slack) — the diagnostic is opt-in.
        gpu = VirtualGPU(_overrun_module())
        profile = gpu.run(LaunchSpec(kernel="kern")).profile
        assert profile.cycles > 0
