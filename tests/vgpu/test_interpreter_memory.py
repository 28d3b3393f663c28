"""Interpreter memory semantics: address spaces, atomics, mem intrinsics."""

import numpy as np
import pytest

from repro.memory.addrspace import AddressSpace
from repro.ir import (
    F64,
    GlobalVariable,
    I32,
    I64,
    PTR_GLOBAL,
    verify_module,
)
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.conftest import ENGINE_LABELS, engine_mode, make_kernel


class TestSharedMemory:
    def test_shared_global_is_team_private(self, module):
        gv = module.add_global(GlobalVariable("tile", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        bid = b.block_id()
        # Each team writes its own id into the shared slot, reads it back.
        b.store(b.sext(bid, I64), gv)
        v = b.load(I64, gv)
        b.store(v, b.array_gep(func.args[0], I64, b.sext(bid, I64)))
        b.ret()
        verify_module(module)
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(4, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=4, args=(out,)))
        assert list(gpu.read_array(out, np.int64, 4)) == [0, 1, 2, 3]

    def test_shared_zero_initialized_per_team(self, module):
        gv = module.add_global(GlobalVariable("slot", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        v = b.load(I64, gv)
        bid = b.sext(b.block_id(), I64)
        b.store(v, b.array_gep(func.args[0], I64, bid))
        b.store(b.i64(99), gv)
        b.ret()
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.full(2, -1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, args=(out,)))
        assert list(gpu.read_array(out, np.int64, 2)) == [0, 0]

    def test_shared_initializer_applied_per_team(self, module):
        from repro.ir import Constant

        gv = module.add_global(GlobalVariable(
            "init", I64, addrspace=AddressSpace.SHARED,
            initializer=[Constant(I64, 7)]))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        v = b.load(I64, gv)
        bid = b.sext(b.block_id(), I64)
        b.store(v, b.array_gep(func.args[0], I64, bid))
        b.ret()
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(3, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=3, args=(out,)))
        assert list(gpu.read_array(out, np.int64, 3)) == [7, 7, 7]


class TestAlloca:
    def test_alloca_is_thread_private(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        slot = b.alloca(I64)
        tid = b.sext(b.thread_id(), I64)
        b.store(tid, slot)
        b.aligned_barrier()  # other threads' allocas must not interfere
        v = b.load(I64, slot)
        b.store(v, b.array_gep(func.args[0], I64, tid))
        b.ret()
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(8, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=8, args=(out,)))
        assert list(gpu.read_array(out, np.int64, 8)) == list(range(8))


class TestAtomics:
    def test_atomic_add_accumulates_across_threads(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["counter"])
        b.atomic_rmw("add", func.args[0], b.i64(1))
        b.ret()
        gpu = VirtualGPU(module)
        counter = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=4, threads_per_team=16,
                           args=(counter,)))
        assert gpu.read_array(counter, np.int64, 1)[0] == 64

    def test_atomic_returns_old_value(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL, PTR_GLOBAL),
                              arg_names=["counter", "olds"])
        old = b.atomic_rmw("add", func.args[0], b.i64(1))
        tid = b.sext(b.thread_id(), I64)
        b.store(old, b.array_gep(func.args[1], I64, tid))
        b.ret()
        gpu = VirtualGPU(module)
        counter = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        olds = gpu.alloc_array(np.zeros(8, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=8,
                           args=(counter, olds)))
        assert sorted(gpu.read_array(olds, np.int64, 8)) == list(range(8))

    def test_atomic_max(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["m"])
        tid = b.sext(b.thread_id(), I64)
        b.atomic_rmw("max", func.args[0], tid)
        b.ret()
        gpu = VirtualGPU(module)
        m = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=8, args=(m,)))
        assert gpu.read_array(m, np.int64, 1)[0] == 7

    def test_atomic_float_add(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["acc"])
        b.atomic_rmw("add", func.args[0], b.f64(0.5))
        b.ret()
        gpu = VirtualGPU(module)
        acc = gpu.alloc_array(np.zeros(1))
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=4,
                           args=(acc,)))
        assert gpu.read_array(acc, np.float64, 1)[0] == 4.0

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_atomic_float_min_max_ignore_a_nan_either_way(self, module, op):
        """Like LLVM ``minnum``/``maxnum``: a NaN in memory or in the
        operand yields the other value."""
        func, b = make_kernel(module, params=(PTR_GLOBAL, F64),
                              arg_names=["m", "x"])
        b.atomic_rmw(op, func.args[0], func.args[1])
        b.ret()
        for old, operand in ((np.nan, 1.5), (1.5, np.nan)):
            for label in ENGINE_LABELS:
                with engine_mode(label) as engine:
                    gpu = VirtualGPU(module, engine=engine)
                    m = gpu.alloc_array(np.array([old]))
                    gpu.run(LaunchSpec(kernel="kern", args=(m, operand)))
                assert gpu.read_array(m, np.float64, 1)[0] == 1.5, (label, old)


class TestMemIntrinsics:
    def test_memset_and_memcpy(self, module):
        from repro.ir import Constant, I8, PTR

        func, b = make_kernel(module, params=(PTR_GLOBAL, PTR_GLOBAL),
                              arg_names=["a", "c"])
        a_ptr = b.cast("bitcast", func.args[0], PTR)
        c_ptr = b.cast("bitcast", func.args[1], PTR)
        b.intrinsic("llvm.memset", [a_ptr, Constant(I8, 0x2A), b.i64(16)])
        b.intrinsic("llvm.memcpy", [c_ptr, a_ptr, b.i64(16)])
        b.ret()
        gpu = VirtualGPU(module)
        a = gpu.alloc_bytes(16)
        c = gpu.alloc_bytes(16)
        gpu.run(LaunchSpec(kernel="kern", args=(a, c)))
        assert gpu.memory.read_raw(c, 16) == b"\x2a" * 16

    def test_device_malloc(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        buf = b.intrinsic("malloc", [b.i64(8)], "buf")
        b.store(b.i64(77), buf)
        v = b.load(I64, buf)
        b.store(v, func.args[0])
        b.ret()
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out,)))
        assert gpu.read_array(out, np.int64, 1)[0] == 77


class TestHostInterop:
    def test_alloc_and_read_array_roundtrip(self, module):
        func, b = make_kernel(module, params=())
        b.ret()
        gpu = VirtualGPU(module)
        data = np.arange(37, dtype=np.float64) * 1.5
        ptr = gpu.alloc_array(data)
        assert np.array_equal(gpu.read_array(ptr, np.float64, 37), data)

    def test_scalar_io(self, module):
        func, b = make_kernel(module, params=())
        b.ret()
        gpu = VirtualGPU(module)
        ptr = gpu.alloc_bytes(8)
        gpu.write_scalar(ptr, 1.25, F64)
        assert gpu.read_scalar(ptr, F64) == 1.25
