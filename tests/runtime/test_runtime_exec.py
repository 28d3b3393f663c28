"""Execution semantics of both device runtimes (unoptimized)."""

import numpy as np
import pytest

from repro.ir import (
    F64,
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
from repro.runtime.interface import NEW_RUNTIME, OLD_RUNTIME
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.runtime.conftest import (
    add_saxpy_body,
    add_spmd_kernel,
    build_runtime_module,
    run_saxpy,
)


class TestSPMDWorksharing:
    def test_saxpy_correct(self, runtime):
        module = build_runtime_module(runtime)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, runtime, body)
        _, out, expected = run_saxpy(module, n=100, teams=2, threads=8)
        assert np.allclose(out, expected)

    def test_more_iterations_than_threads(self, runtime):
        module = build_runtime_module(runtime)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, runtime, body)
        _, out, expected = run_saxpy(module, n=333, teams=2, threads=8)
        assert np.allclose(out, expected)

    def test_fewer_iterations_than_threads(self, runtime):
        module = build_runtime_module(runtime)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, runtime, body)
        _, out, expected = run_saxpy(module, n=5, teams=2, threads=8)
        assert np.allclose(out, expected)

    def test_zero_iterations(self, runtime):
        module = build_runtime_module(runtime)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, runtime, body)
        _, out, _ = run_saxpy(module, n=0, teams=2, threads=8)
        # n=0 -> read_array returns empty; just ensure no crash
        assert out.shape == (0,)

    def test_every_iteration_exactly_once(self, runtime):
        """Worksharing must partition, not duplicate, iterations."""
        module = build_runtime_module(runtime)
        body = module.add_function(Function(
            "body", FunctionType(VOID, (I64, PTR)), linkage="internal"))
        b = IRBuilder(module, body.add_block("entry"))
        counts = b.load(PTR, b.ptradd(body.args[1], 0), "counts")
        b.atomic_rmw("add", b.array_gep(counts, I64, body.args[0]), b.i64(1))
        b.ret()
        kern = module.add_function(Function(
            "kern", FunctionType(VOID, (PTR, I64)), arg_names=["counts", "n"]))
        kern.attrs.add("kernel")
        rt = NEW_RUNTIME if "old" not in module.name else OLD_RUNTIME
        b = IRBuilder(module, kern.add_block("entry"))
        from repro.runtime.interface import RUNTIMES

        rt = RUNTIMES["old" if "old" in module.name else "new"]
        r = b.call(module.get_function(rt.target_init), [b.i32(1)], "exec")
        work = kern.add_block("work")
        exit_ = kern.add_block("exit")
        b.cond_br(b.icmp("ne", r, b.i32(0)), exit_, work)
        b.set_insert_point(work)
        buf = b.call(module.get_function(rt.alloc_shared), [b.i64(8)])
        b.store(kern.args[0], b.ptradd(buf, 0))
        b.call(module.get_function(rt.distribute_parallel_for),
               [body, buf, kern.args[1]])
        b.call(module.get_function(rt.free_shared), [buf, b.i64(8)])
        b.call(module.get_function(rt.target_deinit), [b.i32(1)])
        b.br(exit_)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(module)
        gpu = VirtualGPU(module, debug_checks=True)
        n = 77
        counts = gpu.alloc_array(np.zeros(n, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=3, threads_per_team=8,
                           args=(counts, n)))
        assert list(gpu.read_array(counts, np.int64, n)) == [1] * n


class TestGenericMode:
    def _generic_kernel(self, rt, config=None):
        module = build_runtime_module(rt, config)
        body = add_saxpy_body(module)
        par = module.add_function(Function(
            "par_fn", FunctionType(VOID, (I32, PTR)), linkage="internal",
            arg_names=["tid", "args"]))
        b = IRBuilder(module, par.add_block("entry"))
        n = b.load(I64, b.ptradd(par.args[1], 24), "n")
        b.call(module.get_function(rt.distribute_parallel_for),
               [body, par.args[1], n])
        b.ret()
        kern = module.add_function(Function(
            "kern", FunctionType(VOID, (PTR, PTR, F64, I64)),
            arg_names=["x", "y", "a", "n"]))
        kern.attrs.add("kernel")
        b = IRBuilder(module, kern.add_block("entry"))
        r = b.call(module.get_function(rt.target_init), [b.i32(0)], "exec")
        work = kern.add_block("work")
        exit_ = kern.add_block("exit")
        b.cond_br(b.icmp("ne", r, b.i32(0)), exit_, work)
        b.set_insert_point(work)
        buf = b.call(module.get_function(rt.alloc_shared), [b.i64(32)])
        for i in range(3):
            b.store(kern.args[i], b.ptradd(buf, 8 * i))
        b.store(kern.args[3], b.ptradd(buf, 24))
        b.call(module.get_function(rt.parallel), [par, buf])
        b.call(module.get_function(rt.free_shared), [buf, b.i64(32)])
        b.call(module.get_function(rt.target_deinit), [b.i32(0)])
        b.br(exit_)
        b.set_insert_point(exit_)
        b.ret()
        return module

    def test_state_machine_runs_parallel_region(self, runtime):
        module = self._generic_kernel(runtime)
        _, out, expected = run_saxpy(module, n=64, teams=2, threads=8)
        assert np.allclose(out, expected)

    def test_generic_without_parallel_region(self, runtime):
        """Sequential-only target region: workers wake once and exit."""
        module = build_runtime_module(runtime)
        kern = module.add_function(Function(
            "kern", FunctionType(VOID, (PTR,)), arg_names=["out"]))
        kern.attrs.add("kernel")
        b = IRBuilder(module, kern.add_block("entry"))
        r = b.call(module.get_function(runtime.target_init), [b.i32(0)], "exec")
        work = kern.add_block("work")
        exit_ = kern.add_block("exit")
        b.cond_br(b.icmp("ne", r, b.i32(0)), exit_, work)
        b.set_insert_point(work)
        b.store(b.i64(123), kern.args[0])
        b.call(module.get_function(runtime.target_deinit), [b.i32(0)])
        b.br(exit_)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(module)
        gpu = VirtualGPU(module, debug_checks=True)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=8,
                           args=(out,)))
        assert gpu.read_array(out, np.int64, 1)[0] == 123

    def test_sequential_region_runs_once_per_team(self, runtime):
        module = build_runtime_module(runtime)
        kern = module.add_function(Function(
            "kern", FunctionType(VOID, (PTR,)), arg_names=["counter"]))
        kern.attrs.add("kernel")
        b = IRBuilder(module, kern.add_block("entry"))
        r = b.call(module.get_function(runtime.target_init), [b.i32(0)], "exec")
        work = kern.add_block("work")
        exit_ = kern.add_block("exit")
        b.cond_br(b.icmp("ne", r, b.i32(0)), exit_, work)
        b.set_insert_point(work)
        b.atomic_rmw("add", kern.args[0], b.i64(1))
        b.call(module.get_function(runtime.target_deinit), [b.i32(0)])
        b.br(exit_)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(module)
        gpu = VirtualGPU(module, debug_checks=True)
        counter = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=4, threads_per_team=8,
                           args=(counter,)))
        # Only the main thread of each team executes the sequential part.
        assert gpu.read_array(counter, np.int64, 1)[0] == 4
