"""Old-runtime specifics: team-wide data stack, chunked dispatch, warp
records — the baseline behaviors the new runtime was designed away from."""

import numpy as np
import pytest

from repro.ir import (
    Function,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    Module,
    PTR,
    VOID,
    verify_module,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.interface import OLD_RUNTIME
from repro.runtime.libold.builder import (
    OFF_STACK_TOP,
    OLD_DATA_STACK_SIZE,
    OLD_TEAM_CONTEXT_SIZE,
)
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.runtime.conftest import build_runtime_module


def spmd_kernel(module, rt, emit, params=(PTR,), arg_names=("out",)):
    kern = module.add_function(Function(
        "kern", FunctionType(VOID, tuple(params)), arg_names=list(arg_names)))
    kern.attrs.add("kernel")
    b = IRBuilder(module, kern.add_block("entry"))
    r = b.call(module.get_function(rt.target_init), [b.i32(1)], "exec")
    work = kern.add_block("work")
    exit_ = kern.add_block("exit")
    b.cond_br(b.icmp("ne", r, b.i32(0)), exit_, work)
    b.set_insert_point(work)
    emit(b, kern)
    b.call(module.get_function(rt.target_deinit), [b.i32(1)])
    b.br(exit_)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return kern


class TestOldDataStack:
    def test_footprint_matches_paper(self):
        """Old RT static shared usage ~2.3KB (Fig. 11)."""
        assert OLD_TEAM_CONTEXT_SIZE + OLD_DATA_STACK_SIZE == 2320

    def test_team_wide_bump_allocation(self):
        rt = OLD_RUNTIME
        module = build_runtime_module(rt)

        def emit(b, kern):
            p1 = b.call(module.get_function(rt.alloc_shared), [b.i64(32)], "p1")
            b.aligned_barrier()
            # All threads allocated from ONE team-wide stack: the top
            # advanced by nthreads * 32.
            from repro.runtime.state import GV_OLD_TEAM_CONTEXT

            ctx = module.get_global(GV_OLD_TEAM_CONTEXT)
            top = b.load(I32, b.ptradd(ctx, OFF_STACK_TOP))
            tid = b.sext(b.thread_id(), I64)
            b.store(b.sext(top, I64), b.array_gep(kern.args[0], I64, tid))
            b.call(module.get_function(rt.free_shared), [p1, b.i64(32)])

        spmd_kernel(module, rt, emit)
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(4, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=4, args=(out,)))
        tops = gpu.read_array(out, np.int64, 4)
        # Team-wide stack: the high-water top is nthreads * 32 (a
        # per-thread-slice scheme as in the new runtime would cap at 32;
        # the interleaved frees explain the descending tail).
        assert tops.max() == 4 * 32
        assert tops.min() >= 32

    def test_fallback_to_malloc_when_exhausted(self):
        rt = OLD_RUNTIME
        module = build_runtime_module(rt)

        def emit(b, kern):
            big = OLD_DATA_STACK_SIZE + 64
            p = b.call(module.get_function(rt.alloc_shared), [b.i64(big)], "p")
            space = b.lshr(b.cast("ptrtoint", p, I64), b.i64(48))
            b.store(space, kern.args[0])
            b.call(module.get_function(rt.free_shared), [p, b.i64(big)])

        spmd_kernel(module, rt, emit)
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out,)))
        from repro.memory.addrspace import AddressSpace

        assert gpu.read_array(out, np.int64, 1)[0] == int(AddressSpace.GLOBAL)


class TestOldWorksharing:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100, 256])
    def test_chunked_dispatch_partitions_exactly(self, n):
        """The split/chunked scheme must still cover each iteration once."""
        rt = OLD_RUNTIME
        module = build_runtime_module(rt)
        body = module.add_function(Function(
            "body", FunctionType(VOID, (I64, PTR)), linkage="internal"))
        b = IRBuilder(module, body.add_block("entry"))
        counts = b.load(PTR, b.ptradd(body.args[1], 0))
        b.atomic_rmw("add", b.array_gep(counts, I64, body.args[0]), b.i64(1))
        b.ret()

        def emit(bb, kern):
            buf = bb.call(module.get_function(rt.alloc_shared), [bb.i64(8)])
            bb.store(kern.args[0], bb.ptradd(buf, 0))
            bb.call(module.get_function(rt.distribute_parallel_for),
                    [body, buf, kern.args[1]])
            bb.call(module.get_function(rt.free_shared), [buf, bb.i64(8)])

        spmd_kernel(module, rt, emit, params=(PTR, I64), arg_names=("counts", "n"))
        gpu = VirtualGPU(module)
        counts = gpu.alloc_array(np.zeros(max(n, 1), dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=16,
                           args=(counts, n)))
        got = gpu.read_array(counts, np.int64, max(n, 1))
        expected = [1] * n + [0] * (max(n, 1) - n)
        assert list(got) == expected

    def test_old_scheme_uses_more_barriers_than_new(self):
        """The per-chunk barriers are the structural overhead the
        combined Fig.-5 scheme removes."""
        from repro.runtime.interface import NEW_RUNTIME
        from tests.runtime.conftest import add_saxpy_body, add_spmd_kernel, run_saxpy

        barriers = {}
        for rt in (OLD_RUNTIME, NEW_RUNTIME):
            module = build_runtime_module(rt)
            body = add_saxpy_body(module)
            add_spmd_kernel(module, rt, body)
            profile, out, expected = run_saxpy(module, n=256, teams=2, threads=8)
            assert np.allclose(out, expected)
            barriers[rt.name] = profile.barriers
        assert barriers["old"] > barriers["new"]


class TestOldWarpRecords:
    def test_eager_records_make_context_nonzero(self):
        """The old runtime writes per-warp ICV records at init — the
        state area is never the all-zero page the zero-deduction needs."""
        rt = OLD_RUNTIME
        module = build_runtime_module(rt)

        def emit(b, kern):
            pass

        spmd_kernel(module, rt, emit, params=(PTR,), arg_names=("unused",))
        gpu = VirtualGPU(module)
        unused = gpu.alloc_array(np.zeros(1))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=64, args=(unused,)))
        from repro.runtime.state import GV_OLD_TEAM_CONTEXT
        from repro.runtime.libold.builder import OFF_WARP_RECORDS

        ctx = module.get_global(GV_OLD_TEAM_CONTEXT)
        offset = gpu.global_addresses[ctx] & ((1 << 48) - 1)
        seg = gpu.memory.shared_segment(0)
        # Two warps of 32 -> two records with nthreads == 64 at +4.
        rec0 = seg.read_bytes(offset + OFF_WARP_RECORDS + 4, 4)
        rec1 = seg.read_bytes(offset + OFF_WARP_RECORDS + 8 + 4, 4)
        assert int.from_bytes(rec0, "little") == 64
        assert int.from_bytes(rec1, "little") == 64
