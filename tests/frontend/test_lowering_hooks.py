"""The per-target hooks of the lowering (OpenMP queries, barriers,
assertions, addressable locals) and the scaffolding both targets share
(device functions, shared-array binding), driven on every target."""

import numpy as np
import pytest

from repro.ir.instructions import Call
from repro.ir.types import F64, I64, PTR
from repro.frontend import ast as A
from repro.frontend.cuda import lower_program_cuda
from repro.frontend.driver import compile_program
from repro.frontend.lower_common import LoweringError
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.frontend.test_dsl_lowering import MODE_IDS, MODES, run_elementwise, simple_program


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
class TestHooksOnEveryTarget:
    def test_level_reads_one_inside_the_loop(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.StoreIdx(A.Arg("out"), iv, A.CastTo(A.OmpCall("level"), F64)),
        ])
        out = run_elementwise(
            prog, lambda gpu: {"out": gpu.alloc_array(np.zeros(64)), "n": 64},
            options=options)
        assert np.all(out == 1.0)

    def test_unknown_query_raises(self, options):
        prog = simple_program([
            A.StoreIdx(A.Arg("out"), A.Var("iv"),
                       A.CastTo(A.OmpCall("max_threads"), F64)),
        ])
        with pytest.raises(LoweringError, match="max_threads"):
            compile_program(prog, options)

    def test_non_void_device_function_falling_off_its_end_raises(self, options):
        df = A.DeviceFunction(
            "maybe", [A.Param("a", I64)], I64,
            [A.If(A.Cmp("<", A.Arg("a"), 0), [A.ReturnStmt(A.Arg("a"))])])
        prog = A.Program("k", kernels=simple_program([
            A.StoreIdx(A.Arg("out"), A.Var("iv"),
                       A.CastTo(A.FuncCall("maybe", A.Var("iv")), F64)),
        ]).kernels, device_functions=[df])
        with pytest.raises(LoweringError, match="maybe may fall off its end"):
            compile_program(prog, options)

    def test_device_function_reads_a_kernel_shared_array(self, options):
        """Every kernel's shared arrays are bound in device functions."""
        iv = A.Var("iv")
        nt = A.Var("nt")
        peek = A.DeviceFunction(
            "peek", [A.Param("j", I64)], F64,
            [A.ReturnStmt(A.Index(A.SharedRef("tile"), A.Arg("j")))])
        prog = A.Program("tile", kernels=[A.KernelDef(
            "tile",
            params=[A.Param("inp", PTR), A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[
                A.Let("nt", A.CastTo(A.OmpCall("num_threads"), I64), I64),
                A.Let("lane", iv % nt, I64),
                A.StoreIdx(A.SharedRef("tile"), A.Var("lane"),
                           A.Index(A.Arg("inp"), iv)),
                A.BarrierStmt(),
                A.StoreIdx(A.Arg("out"), iv,
                           A.FuncCall("peek", nt - 1 - A.Var("lane"))),
            ],
            shared=[A.SharedArray("tile", F64, 32)],
        )], device_functions=[peek])
        compiled = compile_program(prog, options)
        gpu = VirtualGPU(compiled.module)
        n = 64
        data = np.arange(n, dtype=np.float64)
        inp = gpu.alloc_array(data)
        out = gpu.alloc_array(np.zeros(n))
        args = compiled.abi("tile").marshal(gpu, {"inp": inp, "out": out, "n": n})
        gpu.run(LaunchSpec(kernel="tile", num_teams=2, threads_per_team=32,
                           args=args))
        got = gpu.read_array(out, np.float64, n)
        assert np.array_equal(got, np.concatenate([data[:32][::-1], data[32:][::-1]]))

    def test_parameter_shadows_another_kernel_shared_array(self, options):
        """Shared arrays are bound in every kernel, but a name the kernel
        already binds wins."""
        iv = A.Var("iv")
        stager = A.KernelDef(
            "stager", params=[A.Param("n", I64)], trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.SharedRef("out"), 0, A.Const(0.0, F64))],
            shared=[A.SharedArray("out", F64, 4)])
        writer = simple_program([
            A.StoreIdx(A.Arg("out"), iv, A.Const(2.0, F64)),
        ]).kernels[0]
        prog = A.Program("k", kernels=[writer, stager])
        out = run_elementwise(
            prog, lambda gpu: {"out": gpu.alloc_array(np.zeros(64)), "n": 64},
            options=options)
        assert np.all(out == 2.0)


def test_cuda_assert_lowers_to_an_assumption():
    prog = simple_program([
        A.AssertStmt(A.Cmp("<", A.Var("iv"), A.Arg("n")), "iv in range"),
        A.StoreIdx(A.Arg("out"), A.Var("iv"), A.Const(1.0, F64)),
    ])
    module, _ = lower_program_cuda(prog)
    callees = [inst.callee.name for inst in module.get_function("k").instructions()
               if isinstance(inst, Call) and inst.callee is not None]
    assert "llvm.assume" in callees
    assert not any(name.startswith("rt.") for name in callees)

