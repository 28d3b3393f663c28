"""Readonly-parameter analysis and kernel launch ABI marshalling."""

import numpy as np
import pytest

from repro.ir.types import F64, I64, PTR
from repro.frontend import ast as A
from repro.frontend.abi import KernelABI, ScalarArg, StructFieldArg, StructRefArg
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.frontend.lower_common import compute_readonly_params
from repro.vgpu import VirtualGPU
from tests.conftest import make_kernel


class TestReadonlyAnalysis:
    def test_written_param_not_readonly(self):
        prog = A.Program("p", kernels=[A.KernelDef(
            "k", params=[A.Param("inp", PTR), A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), A.Var("iv"),
                             A.Index(A.Arg("inp"), A.Var("iv")))],
        )])
        ro = compute_readonly_params(prog)
        assert "inp" in ro["k"]
        assert "out" not in ro["k"]

    def test_atomic_counts_as_write(self):
        prog = A.Program("p", kernels=[A.KernelDef(
            "k", params=[A.Param("acc", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.Atomic("add", A.Arg("acc"), 0, A.Const(1.0, F64))],
        )])
        ro = compute_readonly_params(prog)
        assert "acc" not in ro["k"]

    def test_write_through_callee_propagates(self):
        df = A.DeviceFunction(
            "writer", [A.Param("dst", PTR), A.Param("i", I64)],
            __import__("repro.ir.types", fromlist=["VOID"]).VOID,
            [A.StoreIdx(A.Arg("dst"), A.Arg("i"), A.Const(1.0, F64))])
        prog = A.Program("p", kernels=[A.KernelDef(
            "k", params=[A.Param("buf", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.CallStmt(A.FuncCall("writer", A.Arg("buf"), A.Var("iv")))],
        )], device_functions=[df])
        ro = compute_readonly_params(prog)
        assert "buf" not in ro["k"]
        assert "dst" not in ro["writer"]

    def test_read_only_through_callee_stays_readonly(self):
        df = A.DeviceFunction(
            "reader", [A.Param("src", PTR), A.Param("i", I64)], F64,
            [A.ReturnStmt(A.Index(A.Arg("src"), A.Arg("i")))])
        prog = A.Program("p", kernels=[A.KernelDef(
            "k", params=[A.Param("data", PTR), A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), A.Var("iv"),
                             A.FuncCall("reader", A.Arg("data"), A.Var("iv")))],
        )], device_functions=[df])
        ro = compute_readonly_params(prog)
        assert "data" in ro["k"]
        assert "src" in ro["reader"]

    def test_recursive_write_propagation_terminates(self):
        from repro.ir.types import VOID

        df = A.DeviceFunction(
            "rec", [A.Param("p", PTR), A.Param("d", I64)], VOID,
            [A.If(A.Cmp(">", A.Arg("d"), 0),
                  [A.CallStmt(A.FuncCall("rec", A.Arg("p"), A.Arg("d") - 1))],
                  [A.StoreIdx(A.Arg("p"), 0, A.Const(1.0, F64))])])
        prog = A.Program("p", kernels=[A.KernelDef(
            "k", params=[A.Param("buf", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.CallStmt(A.FuncCall("rec", A.Arg("buf"), A.Const(3, I64)))],
        )], device_functions=[df])
        ro = compute_readonly_params(prog)
        assert "buf" not in ro["k"]

    def test_attrs_attached_to_ir(self):
        prog = A.Program("p", kernels=[A.KernelDef(
            "k", params=[A.Param("inp", PTR), A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), A.Var("iv"),
                             A.Index(A.Arg("inp"), A.Var("iv")))],
        )])
        compiled = compile_program(prog, CompileOptions(
            Target.CUDA,
            pipeline=__import__("repro.passes", fromlist=["PipelineConfig"]).PipelineConfig.o0()))
        kern = compiled.kernel("k")
        assert "readonly" in kern.param_attrs.get(0, set())
        assert "noalias" in kern.param_attrs.get(0, set())
        assert "readonly" not in kern.param_attrs.get(1, set())


class TestABIMarshalling:
    def test_scalar_args_in_order(self, module):
        func, b = make_kernel(module, params=())
        b.ret()
        gpu = VirtualGPU(module)
        abi = KernelABI("kern", [ScalarArg("a", I64), ScalarArg("b", F64)])
        assert abi.marshal(gpu, {"a": 5, "b": 2.5}) == [5, 2.5]

    def test_struct_ref_materializes_device_blob(self, module):
        from repro.ir.types import StructType

        func, b = make_kernel(module, params=())
        b.ret()
        gpu = VirtualGPU(module)
        sty = StructType("conf", (("x", I64), ("y", F64)))
        abi = KernelABI("kern", [StructRefArg("conf", sty)])
        [ptr] = abi.marshal(gpu, {"conf": {"x": 7, "y": 1.5}})
        assert gpu.read_scalar(ptr, I64) == 7
        assert gpu.read_scalar(ptr + 8, F64) == 1.5

    def test_struct_fields_flattened(self, module):
        func, b = make_kernel(module, params=())
        b.ret()
        gpu = VirtualGPU(module)
        abi = KernelABI("kern", [
            StructFieldArg("conf", "x", I64),
            StructFieldArg("conf", "y", F64),
        ])
        assert abi.marshal(gpu, {"conf": {"x": 7, "y": 1.5}}) == [7, 1.5]
