"""Helpers for driving the device runtimes from hand-built kernels."""

from __future__ import annotations

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
from repro.runtime.interface import NEW_RUNTIME, OLD_RUNTIME, RuntimeInterface
from repro.vgpu import LaunchSpec, VirtualGPU


@pytest.fixture(params=["new", "old"], ids=["new-rt", "old-rt"])
def runtime(request) -> RuntimeInterface:
    return NEW_RUNTIME if request.param == "new" else OLD_RUNTIME


def build_runtime_module(rt: RuntimeInterface, config: RuntimeConfig = None) -> Module:
    module = Module(f"rt_{rt.name}")
    rt.populate(module, config or RuntimeConfig())
    return module


def add_saxpy_body(module: Module) -> Function:
    """Outlined loop body: y[iv] += a * x[iv], captures at args+0/8/16."""
    body = module.add_function(Function(
        "body", FunctionType(VOID, (I64, PTR)), linkage="internal",
        arg_names=["iv", "args"]))
    b = IRBuilder(module, body.add_block("entry"))
    iv, args = body.args
    x = b.load(PTR, b.ptradd(args, 0), "x")
    y = b.load(PTR, b.ptradd(args, 8), "y")
    a = b.load(F64, b.ptradd(args, 16), "a")
    xv = b.load(F64, b.array_gep(x, F64, iv))
    yv = b.load(F64, b.array_gep(y, F64, iv))
    b.store(b.fadd(yv, b.fmul(a, xv)), b.array_gep(y, F64, iv))
    b.ret()
    return body


def add_spmd_kernel(module: Module, rt: RuntimeInterface, body: Function,
                    name: str = "kern") -> Function:
    """SPMD kernel: init(1); captures; distribute_parallel_for; deinit."""
    kern = module.add_function(Function(
        name, FunctionType(VOID, (PTR, PTR, F64, I64)),
        arg_names=["x", "y", "a", "n"]))
    kern.attrs.add("kernel")
    b = IRBuilder(module, kern.add_block("entry"))
    r = b.call(module.get_function(rt.target_init), [b.i32(1)], "exec")
    work = kern.add_block("work")
    exit_ = kern.add_block("exit")
    b.cond_br(b.icmp("ne", r, b.i32(0)), exit_, work)
    b.set_insert_point(work)
    buf = b.call(module.get_function(rt.alloc_shared), [b.i64(24)], "captures")
    b.store(kern.args[0], b.ptradd(buf, 0))
    b.store(kern.args[1], b.ptradd(buf, 8))
    b.store(kern.args[2], b.ptradd(buf, 16))
    b.call(module.get_function(rt.distribute_parallel_for),
           [body, buf, kern.args[3]])
    b.call(module.get_function(rt.free_shared), [buf, b.i64(24)])
    b.call(module.get_function(rt.target_deinit), [b.i32(1)])
    b.br(exit_)
    b.set_insert_point(exit_)
    b.ret()
    return kern


def run_saxpy(module: Module, n=100, teams=2, threads=8, a=3.0,
              debug_checks=True, env=None):
    """Launch the saxpy kernel and return (profile, out, expected)."""
    verify_module(module)
    gpu = VirtualGPU(module, debug_checks=debug_checks, env=env)
    x = np.arange(n, dtype=np.float64)
    y = np.ones(n)
    px, py = gpu.alloc_array(x), gpu.alloc_array(y)
    profile = gpu.run(LaunchSpec(kernel="kern", num_teams=teams,
                                 threads_per_team=threads,
                                 args=(px, py, a, n))).profile
    out = gpu.read_array(py, np.float64, n)
    return profile, out, 1.0 + a * x
