"""ICV semantics: queries, nested parallelism, on-demand thread states."""

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
from repro.runtime.interface import NEW_RUNTIME
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.runtime.conftest import build_runtime_module


def spmd_kernel_calling(module, rt, emit, params=(PTR,), arg_names=("out",)):
    """SPMD kernel skeleton; `emit(b, kern)` fills the work region."""
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


class TestQueriesOutsideParallel:
    def test_team_queries(self, runtime):
        module = build_runtime_module(runtime)

        def emit(b, kern):
            team = b.call(module.get_function(runtime.get_team_num), [])
            nteams = b.call(module.get_function(runtime.get_num_teams), [])
            packed = b.add(b.mul(nteams, b.i32(100)), team)
            idx = b.sext(b.call(module.get_function(runtime.get_team_num), []), I64)
            b.store(b.sext(packed, I64), b.array_gep(kern.args[0], I64, idx))

        spmd_kernel_calling(module, runtime, emit)
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(3, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=3, threads_per_team=4,
                           args=(out,)))
        assert list(gpu.read_array(out, np.int64, 3)) == [300, 301, 302]

    def test_num_threads_is_one_outside_parallel(self, runtime):
        module = build_runtime_module(runtime)

        def emit(b, kern):
            nt = b.call(module.get_function(runtime.get_num_threads), [])
            tn = b.call(module.get_function(runtime.get_thread_num), [])
            b.atomic_rmw("max", kern.args[0], b.sext(nt, I64))
            b.atomic_rmw("max", b.ptradd(kern.args[0], 8), b.sext(tn, I64))

        spmd_kernel_calling(module, runtime, emit)
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(2, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=8, args=(out,)))
        got = gpu.read_array(out, np.int64, 2)
        assert got[0] == 1  # omp_get_num_threads() == 1 sequentially
        assert got[1] == 0  # omp_get_thread_num() == 0 sequentially


class TestQueriesInsideParallel:
    def _parallel_query_kernel(self, rt):
        module = build_runtime_module(rt)
        par = module.add_function(Function(
            "par_fn", FunctionType(VOID, (I32, PTR)), linkage="internal",
            arg_names=["tid", "args"]))
        b = IRBuilder(module, par.add_block("entry"))
        out = b.load(PTR, b.ptradd(par.args[1], 0), "out")
        nt = b.call(module.get_function(rt.get_num_threads), [])
        tn = b.call(module.get_function(rt.get_thread_num), [])
        b.atomic_rmw("max", out, b.sext(nt, I64))
        b.atomic_rmw("max", b.ptradd(out, 8), b.sext(tn, I64))
        b.ret()

        def emit(builder, kern):
            buf = builder.call(module.get_function(rt.alloc_shared), [builder.i64(8)])
            builder.store(kern.args[0], builder.ptradd(buf, 0))
            builder.call(module.get_function(rt.parallel), [par, buf])
            builder.call(module.get_function(rt.free_shared), [buf, builder.i64(8)])

        spmd_kernel_calling(module, rt, emit)
        return module

    def test_num_threads_inside_parallel(self, runtime):
        module = self._parallel_query_kernel(runtime)
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(2, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=8, args=(out,)))
        got = gpu.read_array(out, np.int64, 2)
        assert got[0] == 8  # full team inside parallel
        assert got[1] == 7  # max thread id


class TestNestedParallel:
    def _nested_kernel(self):
        rt = NEW_RUNTIME
        module = build_runtime_module(rt)
        inner = module.add_function(Function(
            "inner", FunctionType(VOID, (I32, PTR)), linkage="internal"))
        b = IRBuilder(module, inner.add_block("entry"))
        out = b.load(PTR, b.ptradd(inner.args[1], 0), "out")
        b.atomic_rmw("add", out, b.i32(1))
        lvl = b.call(module.get_function("omp_get_level"), [])
        b.atomic_rmw("max", b.ptradd(out, 8), lvl)
        nt = b.call(module.get_function(rt.get_num_threads), [])
        b.atomic_rmw("max", b.ptradd(out, 16), nt)
        b.ret()
        outer = module.add_function(Function(
            "outer", FunctionType(VOID, (I32, PTR)), linkage="internal"))
        b = IRBuilder(module, outer.add_block("entry"))
        b.call(module.get_function(rt.parallel), [inner, outer.args[1]])
        b.ret()

        def emit(builder, kern):
            buf = builder.call(module.get_function(rt.alloc_shared), [builder.i64(8)])
            builder.store(kern.args[0], builder.ptradd(buf, 0))
            builder.call(module.get_function(rt.parallel), [outer, buf])
            builder.call(module.get_function(rt.free_shared), [buf, builder.i64(8)])

        spmd_kernel_calling(module, rt, emit)
        return module

    def test_nested_region_serializes(self):
        module = self._nested_kernel()
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(6, dtype=np.int32))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=8, args=(out,)))
        got = gpu.read_array(out, np.int32, 6)
        assert got[0] == 8   # inner executed once per outer thread
        assert got[2] == 2   # omp_get_level() saw depth 2
        assert got[4] == 1   # nested team size is 1 (serialized)

    def test_thread_states_cleaned_up(self):
        """After the nested regions, thread-state slots must be NULL
        again (pop restored them)."""
        module = self._nested_kernel()
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(6, dtype=np.int32))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=4, args=(out,)))
        from repro.runtime.state import GV_THREAD_STATES

        gv = module.get_global(GV_THREAD_STATES)
        addr = gpu.global_addresses[gv]
        raw = gpu.memory.shared_segment(0).read_bytes(
            addr & ((1 << 48) - 1), 4 * 8)
        assert raw == b"\x00" * 32


class TestSharedMemoryStack:
    def test_lifo_alloc_free(self):
        rt = NEW_RUNTIME
        module = build_runtime_module(rt)

        def emit(b, kern):
            p1 = b.call(module.get_function(rt.alloc_shared), [b.i64(16)], "p1")
            p2 = b.call(module.get_function(rt.alloc_shared), [b.i64(16)], "p2")
            b.call(module.get_function(rt.free_shared), [p2, b.i64(16)])
            p3 = b.call(module.get_function(rt.alloc_shared), [b.i64(16)], "p3")
            # LIFO: p3 must reuse p2's slot.
            same = b.icmp("eq", b.cast("ptrtoint", p2, I64), b.cast("ptrtoint", p3, I64))
            b.store(b.zext(same, I64), kern.args[0])
            b.call(module.get_function(rt.free_shared), [p3, b.i64(16)])
            b.call(module.get_function(rt.free_shared), [p1, b.i64(16)])

        spmd_kernel_calling(module, rt, emit)
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out,)))
        assert gpu.read_array(out, np.int64, 1)[0] == 1

    def test_fallback_to_global_malloc_when_slice_full(self):
        rt = NEW_RUNTIME
        config = RuntimeConfig(max_threads=128, smem_stack_size=1280)  # 10B slices
        module = build_runtime_module(rt, config)

        def emit(b, kern):
            p = b.call(module.get_function(rt.alloc_shared), [b.i64(64)], "p")
            # A 64B request cannot fit a 10B slice: must be global memory.
            space = b.lshr(b.cast("ptrtoint", p, I64), b.i64(48))
            b.store(space, kern.args[0])
            b.call(module.get_function(rt.free_shared), [p, b.i64(64)])

        spmd_kernel_calling(module, rt, emit)
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out,)))
        from repro.memory.addrspace import AddressSpace

        assert gpu.read_array(out, np.int64, 1)[0] == int(AddressSpace.GLOBAL)

    def test_slices_are_thread_private(self):
        rt = NEW_RUNTIME
        module = build_runtime_module(rt)

        def emit(b, kern):
            p = b.call(module.get_function(rt.alloc_shared), [b.i64(8)], "p")
            tid = b.sext(b.thread_id(), I64)
            b.store(tid, p)
            b.aligned_barrier()
            v = b.load(I64, p)
            b.store(v, b.array_gep(kern.args[0], I64, tid))
            b.call(module.get_function(rt.free_shared), [p, b.i64(8)])

        spmd_kernel_calling(module, rt, emit)
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(8, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=8, args=(out,)))
        assert list(gpu.read_array(out, np.int64, 8)) == list(range(8))
