"""Register-pressure estimation and static resource accounting."""

import numpy as np

from repro.bench.builds import (
    CUDA,
    NEW_RT,
    NEW_RT_NIGHTLY,
    NEW_RT_NO_ASSUME,
    OLD_RT_NIGHTLY,
)
from repro.ir import callgraph
from repro.memory.addrspace import AddressSpace
from repro.ir import (
    ArrayType,
    F64,
    GlobalVariable,
    I64,
    PTR_GLOBAL,
    verify_module,
)
from repro.vgpu.registers import estimate_kernel_registers, max_live_values
from repro.vgpu.resources import (
    measure_resources,
    shared_memory_usage,
    static_instruction_count,
)
from tests.conftest import compile_cell, make_function, make_kernel, matrix_cells


class TestMaxLiveValues:
    def test_straight_line_chain_is_narrow(self, module):
        func, b = make_function(module)
        v = func.args[0]
        for _ in range(20):
            v = b.add(v, 1)
        b.ret(v)
        # Chained adds keep only one value live at a time (plus the arg).
        assert max_live_values(func) <= 4

    def test_wide_expression_increases_pressure(self, module):
        func, b = make_function(module)
        vals = [b.mul(func.args[0], i + 2) for i in range(12)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.ret(acc)
        assert max_live_values(func) >= 12

    def test_loop_carried_values_are_live(self, module):
        func, b = make_function(module)
        entry = b.block
        loop = func.add_block("loop")
        done = func.add_block("done")
        b.br(loop)
        b.set_insert_point(loop)
        phis = []
        for i in range(6):
            phi = b.phi(func.args[0].type, f"p{i}")
            phi.add_incoming(b.i32(i), entry)
            phis.append(phi)
        acc = phis[0]
        for p in phis[1:]:
            acc = b.add(acc, p)
        for phi in phis:
            phi.add_incoming(b.add(phi, 1), loop)
        b.cond_br(b.icmp("slt", acc, b.i32(100)), loop, done)
        b.set_insert_point(done)
        b.ret(acc)
        verify_module(module)
        assert max_live_values(func) >= 6

    def test_removing_loop_reduces_pressure(self, module):
        """The §V-B effect: no back edge -> no loop-carried state."""
        loop_mod = module
        func_loop, b = make_function(loop_mod, "with_loop")
        entry = b.block
        loop = func_loop.add_block("loop")
        done = func_loop.add_block("done")
        b.br(loop)
        b.set_insert_point(loop)
        iv = b.phi(func_loop.args[0].type, "iv")
        iv.add_incoming(b.i32(0), entry)
        body_val = b.mul(iv, 3)
        nxt = b.add(iv, 1)
        iv.add_incoming(nxt, loop)
        b.cond_br(b.icmp("slt", nxt, func_loop.args[0]), loop, done)
        b.set_insert_point(done)
        b.ret(body_val)

        func_flat, b2 = make_function(loop_mod, "without_loop")
        b2.ret(b2.mul(func_flat.args[0], 3))

        assert max_live_values(func_flat) < max_live_values(func_loop)


class TestKernelRegisters:
    def test_callee_pressure_included(self, module):
        heavy, hb = make_function(module, "heavy", ret=I64, params=(I64,))
        vals = [hb.mul(heavy.args[0], i + 2) for i in range(10)]
        acc = vals[0]
        for v in vals[1:]:
            acc = hb.add(acc, v)
        hb.ret(acc)
        kern, kb = make_kernel(module, params=(I64,))
        kb.call(heavy, [kern.args[0]])
        kb.ret()
        verify_module(module)
        regs = estimate_kernel_registers(kern, module)
        assert regs > max_live_values(kern)

    def test_call_depth_penalty(self, module):
        leaf, lb = make_function(module, "leaf", ret=I64, params=(I64,))
        lb.ret(leaf.args[0])
        mid, mb = make_function(module, "mid", ret=I64, params=(I64,))
        mb.ret(mb.call(leaf, [mid.args[0]]))
        kern_deep, kd = make_kernel(module, "deep", params=(I64,))
        kd.call(mid, [kern_deep.args[0]])
        kd.ret()
        kern_flat, kf = make_kernel(module, "flat", params=(I64,))
        kf.ret()
        assert estimate_kernel_registers(kern_deep, module) > \
            estimate_kernel_registers(kern_flat, module)


class TestSharedMemoryAccounting:
    def test_reachable_shared_globals_counted(self, module):
        module.add_global(GlobalVariable(
            "tile", ArrayType(F64, 32), addrspace=AddressSpace.SHARED))
        tile = module.get_global("tile")
        kern, b = make_kernel(module, params=())
        b.store(b.f64(1.0), tile)
        b.ret()
        assert shared_memory_usage(kern, module) == 256

    def test_unreferenced_shared_not_counted(self, module):
        module.add_global(GlobalVariable(
            "unused", ArrayType(F64, 32), addrspace=AddressSpace.SHARED))
        kern, b = make_kernel(module, params=())
        b.ret()
        assert shared_memory_usage(kern, module) == 0

    def test_shared_reached_through_callee(self, module):
        gv = module.add_global(GlobalVariable(
            "deep", I64, addrspace=AddressSpace.SHARED))
        helper, hb = make_function(module, "helper", ret=I64, params=())
        hb.ret(hb.load(I64, gv))
        kern, b = make_kernel(module, params=(PTR_GLOBAL,))
        v = b.call(helper, [])
        b.store(v, kern.args[0])
        b.ret()
        assert shared_memory_usage(kern, module) == 8

    def test_global_memory_not_counted_as_shared(self, module):
        gv = module.add_global(GlobalVariable("gmem", ArrayType(F64, 100)))
        kern, b = make_kernel(module, params=())
        b.load(F64, gv, volatile=True)
        b.ret()
        assert shared_memory_usage(kern, module) == 0

    def test_measure_resources_bundle(self, module):
        kern, b = make_kernel(module, params=(I64,))
        b.add(kern.args[0], 1)
        b.ret()
        res = measure_resources(kern, module)
        assert res.registers > 0
        assert res.instruction_count == static_instruction_count(kern, module)
        assert res.shared_memory_bytes == 0

    def test_measure_resources_builds_one_call_graph(self, monkeypatch):
        module = compile_cell("gridmini", OLD_RT_NIGHTLY).module
        kern = module.get_function("dslash")
        built = []
        init = callgraph.CallGraph.__init__

        def spy(self, module):
            built.append(module)
            init(self, module)

        monkeypatch.setattr(callgraph.CallGraph, "__init__", spy)
        res = measure_resources(kern, module)
        assert built == [module]
        # The outlined body is reachable only through its taken address.
        assert res.shared_memory_bytes == shared_memory_usage(kern, module) > 0


#: (app, build) -> (registers, shared memory bytes, static instructions,
#: shared globals) of the cell's kernel, and max_live_values of each of
#: its defined functions, as the resource walks before they shared one
#: call graph and one instruction walk measured them.
MATRIX_RESOURCES = {
    ("gridmini", CUDA): (36, 1024, 470, 1,
        {"dslash": 28}),
    ("gridmini", NEW_RT_NIGHTLY): (51, 12868, 2181, 7,
        {"__omp_outlined.dslash": 36, "dslash": 43}),
    ("gridmini", NEW_RT_NO_ASSUME): (39, 1024, 476, 1,
        {"dslash": 31}),
    ("gridmini", NEW_RT): (36, 1024, 470, 1,
        {"dslash": 28}),
    ("gridmini", OLD_RT_NIGHTLY): (50, 3344, 1589, 3,
        {"__omp_outlined.dslash": 35, "dslash": 42}),
    ("minifmm", CUDA): (33, 256, 86, 1,
        {"fmm_eval": 15, "traverse": 17}),
    ("minifmm", NEW_RT_NIGHTLY): (47, 12100, 536, 7,
        {"__omp_outlined.fmm_eval": 20, "fmm_eval": 31, "traverse": 17}),
    ("minifmm", NEW_RT_NO_ASSUME): (37, 11072, 194, 5,
        {"fmm_eval": 21, "traverse": 17}),
    ("minifmm", NEW_RT): (33, 11072, 188, 5,
        {"fmm_eval": 17, "traverse": 17}),
    ("minifmm", OLD_RT_NIGHTLY): (48, 2576, 394, 3,
        {"__omp_outlined.fmm_eval": 21, "fmm_eval": 32, "traverse": 16}),
    ("rsbench", CUDA): (32, 0, 84, 0,
        {"rs_lookup": 24}),
    ("rsbench", NEW_RT_NIGHTLY): (46, 11844, 591, 6,
        {"__omp_outlined.rs_lookup": 27, "rs_lookup": 38}),
    ("rsbench", NEW_RT_NO_ASSUME): (35, 0, 90, 0,
        {"rs_lookup": 27}),
    ("rsbench", NEW_RT): (32, 0, 84, 0,
        {"rs_lookup": 24}),
    ("rsbench", OLD_RT_NIGHTLY): (49, 2320, 442, 2,
        {"__omp_outlined.rs_lookup": 30, "rs_lookup": 41}),
    ("testsnap", NEW_RT_NIGHTLY): (46, 11844, 557, 6,
        {"__omp_outlined.compute_force": 28, "compute_force": 38}),
    ("testsnap", NEW_RT_NO_ASSUME): (36, 0, 85, 0,
        {"compute_force": 28}),
    ("testsnap", NEW_RT): (33, 0, 79, 0,
        {"compute_force": 25}),
    ("testsnap", OLD_RT_NIGHTLY): (48, 2320, 415, 2,
        {"__omp_outlined.compute_force": 30, "compute_force": 40}),
    ("xsbench", CUDA): (31, 0, 154, 0,
        {"xs_lookup": 23}),
    ("xsbench", NEW_RT_NIGHTLY): (44, 11844, 1087, 6,
        {"__omp_outlined.xs_lookup": 27, "xs_lookup": 36}),
    ("xsbench", NEW_RT_NO_ASSUME): (34, 0, 165, 0,
        {"xs_lookup": 26}),
    ("xsbench", NEW_RT): (31, 0, 159, 0,
        {"xs_lookup": 23}),
    ("xsbench", OLD_RT_NIGHTLY): (47, 2320, 813, 2,
        {"__omp_outlined.xs_lookup": 30, "xs_lookup": 39}),
}


def test_every_matrix_cell_keeps_its_resources():
    got = {}
    for app_name, build in matrix_cells():
        module = compile_cell(app_name, build).module
        (kern,) = module.kernels()
        res = measure_resources(kern, module)
        assert res.registers == estimate_kernel_registers(kern, module)
        got[app_name, build] = (
            res.registers, res.shared_memory_bytes, res.instruction_count,
            len(res.shared_globals),
            {f.name: max_live_values(f) for f in module.defined_functions()},
        )
    assert got == MATRIX_RESOURCES
