"""DSL lowering: expressions and statements behave identically in the
OpenMP and CUDA lowerings (differential testing against the interpreter)."""

import numpy as np
import pytest

from repro.ir.types import F64, I32, I64, PTR
from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.vgpu import LaunchSpec, VirtualGPU

MODES = [
    CompileOptions(Target.CUDA),
    CompileOptions(Target.OPENMP_NEW),
    CompileOptions(Target.OPENMP_OLD),
]
MODE_IDS = ["cuda", "omp-new", "omp-old"]


def run_elementwise(program, host_args_builder, n=64, teams=2, threads=32,
                    options=None):
    """Compile + run a single-kernel program; returns out array."""
    compiled = compile_program(program, options or CompileOptions(Target.CUDA))
    gpu = VirtualGPU(compiled.module)
    host_args = host_args_builder(gpu)
    kernel = program.kernels[0].name
    args = compiled.abi(kernel).marshal(gpu, host_args)
    gpu.run(LaunchSpec(kernel=kernel, num_teams=teams,
                       threads_per_team=threads, args=args))
    return gpu.read_array(host_args["out"], np.float64, n)


def simple_program(body, extra_params=(), name="k"):
    return A.Program(name, kernels=[A.KernelDef(
        name,
        params=[A.Param("out", PTR), A.Param("n", I64), *extra_params],
        trip_count=A.Arg("n"),
        body=body,
    )])


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
class TestExpressionLowering:
    def check(self, program, expected, options, n=64):
        out = run_elementwise(
            program,
            lambda gpu: {"out": gpu.alloc_array(np.zeros(n)), "n": n},
            n=n, options=options)
        assert np.allclose(out, expected), out[:8]

    def test_arithmetic_chain(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.StoreIdx(A.Arg("out"), iv,
                       A.CastTo((iv * 3 + 7) % 11, F64)),
        ])
        self.check(prog, [(i * 3 + 7) % 11 for i in range(64)], options)

    def test_float_math(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.Let("x", A.CastTo(iv, F64) + 1.0, F64),
            A.StoreIdx(A.Arg("out"), iv,
                       A.MathCall("sqrt", A.Var("x")) * 2.0),
        ])
        self.check(prog, 2.0 * np.sqrt(np.arange(64) + 1.0), options)

    def test_select_expression(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.StoreIdx(A.Arg("out"), iv, A.SelectExpr(
                A.Cmp("<", iv, 32), A.Const(1.0, F64), A.Const(-1.0, F64))),
        ])
        self.check(prog, [1.0] * 32 + [-1.0] * 32, options)

    def test_comparison_and_not(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.StoreIdx(A.Arg("out"), iv, A.SelectExpr(
                A.Not(A.Cmp("==", iv % 2, 0)),
                A.Const(1.0, F64), A.Const(0.0, F64))),
        ])
        self.check(prog, [i % 2 for i in range(64)], options)

    def test_if_else_statement(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.Let("r", A.Const(0.0, F64), F64),
            A.If(A.Cmp(">=", iv, 10),
                 [A.Assign("r", A.CastTo(iv, F64))],
                 [A.Assign("r", A.Const(-5.0, F64))]),
            A.StoreIdx(A.Arg("out"), iv, A.Var("r")),
        ])
        self.check(prog, [-5.0 if i < 10 else float(i) for i in range(64)], options)

    def test_while_loop(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.Let("acc", A.Const(0, I64), I64),
            A.Let("k", A.Const(0, I64), I64),
            A.While(A.Cmp("<", A.Var("k"), iv % 8), [
                A.Assign("acc", A.Var("acc") + A.Var("k")),
                A.Assign("k", A.Var("k") + 1),
            ]),
            A.StoreIdx(A.Arg("out"), iv, A.CastTo(A.Var("acc"), F64)),
        ])
        self.check(prog, [sum(range(i % 8)) for i in range(64)], options)

    def test_for_range(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.Let("acc", A.Const(0, I64), I64),
            A.ForRange("j", 0, 5, [
                A.Assign("acc", A.Var("acc") + A.Var("j") * iv),
            ]),
            A.StoreIdx(A.Arg("out"), iv, A.CastTo(A.Var("acc"), F64)),
        ])
        self.check(prog, [10 * i for i in range(64)], options)

    def test_device_function_call(self, options):
        iv = A.Var("iv")
        df = A.DeviceFunction(
            "twice_plus", [A.Param("a", I64), A.Param("b", I64)], I64,
            [A.ReturnStmt(A.Arg("a") * 2 + A.Arg("b"))])
        prog = A.Program("k", kernels=[A.KernelDef(
            "k", params=[A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), iv,
                             A.CastTo(A.FuncCall("twice_plus", iv, 3), F64))],
        )], device_functions=[df])
        self.check(prog, [2 * i + 3 for i in range(64)], options)

    def test_recursive_device_function(self, options):
        fib = A.DeviceFunction(
            "fib", [A.Param("n", I64)], I64,
            [A.If(A.Cmp("<", A.Arg("n"), 2), [A.ReturnStmt(A.Arg("n"))]),
             A.ReturnStmt(A.FuncCall("fib", A.Arg("n") - 1)
                          + A.FuncCall("fib", A.Arg("n") - 2))])
        iv = A.Var("iv")
        prog = A.Program("k", kernels=[A.KernelDef(
            "k", params=[A.Param("out", PTR), A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), iv,
                             A.CastTo(A.FuncCall("fib", iv % 10), F64))],
        )], device_functions=[fib])
        ref = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
        self.check(prog, [ref[i % 10] for i in range(64)], options)

    def test_atomic_statement(self, options):
        iv = A.Var("iv")
        prog = simple_program([
            A.Atomic("add", A.Arg("out"), 0, A.Const(1.0, F64)),
            A.StoreIdx(A.Arg("out"), iv + 1, A.Const(0.0, F64)),
        ])
        out = run_elementwise(
            prog, lambda gpu: {"out": gpu.alloc_array(np.zeros(65)), "n": 64},
            n=65, options=options)
        assert out[0] == 64.0

    def test_omp_queries_consistent(self, options):
        """thread_num/num_threads/team_num/num_teams agree across modes
        inside the parallel loop."""
        iv = A.Var("iv")
        prog = simple_program([
            A.StoreIdx(A.Arg("out"), iv,
                       A.CastTo(A.OmpCall("num_threads"), F64) * 1000.0
                       + A.CastTo(A.OmpCall("num_teams"), F64)),
        ])
        out = run_elementwise(
            prog, lambda gpu: {"out": gpu.alloc_array(np.zeros(64)), "n": 64},
            options=options)
        assert np.all(out == 32 * 1000.0 + 2)


class TestStructParams:
    def test_field_reads_match_across_modes(self):
        iv = A.Var("iv")
        conf = A.StructParam("conf", (("scale", F64), ("offset", I64)))
        prog = A.Program("k", kernels=[A.KernelDef(
            "k", params=[A.Param("out", PTR), A.Param("n", I64), conf],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), iv,
                             A.CastTo(iv + A.Field("conf", "offset"), F64)
                             * A.Field("conf", "scale"))],
        )])
        results = {}
        for options, mode_id in zip(MODES, MODE_IDS):
            out = run_elementwise(
                prog,
                lambda gpu: {"out": gpu.alloc_array(np.zeros(64)), "n": 64,
                             "conf": {"scale": 1.5, "offset": 10}},
                options=options)
            results[mode_id] = out
        expected = (np.arange(64) + 10) * 1.5
        for mode_id, out in results.items():
            assert np.allclose(out, expected), mode_id

    def test_openmp_struct_is_by_reference(self):
        """§VII: OpenMP kernels take a pointer, CUDA flattens fields."""
        conf = A.StructParam("conf", (("a", F64),))
        prog = A.Program("k", kernels=[A.KernelDef(
            "k", params=[A.Param("out", PTR), A.Param("n", I64), conf],
            trip_count=A.Arg("n"),
            body=[A.StoreIdx(A.Arg("out"), A.Var("iv"), A.Field("conf", "a"))],
        )])
        omp = compile_program(prog, CompileOptions(Target.OPENMP_NEW))
        cuda = compile_program(prog, CompileOptions(Target.CUDA))
        assert len(omp.kernel("k").args) == 3   # out, n, conf*
        assert len(cuda.kernel("k").args) == 3  # out, n, conf.a (flattened)
        assert str(omp.kernel("k").args[2].type) == "ptr"
        assert str(cuda.kernel("k").args[2].type) == "double"


class TestLoweringErrors:
    def test_unknown_variable(self):
        prog = simple_program([A.StoreIdx(A.Arg("out"), A.Var("iv"), A.Var("ghost"))])
        from repro.frontend.lower_common import LoweringError

        with pytest.raises(LoweringError, match="ghost"):
            compile_program(prog, CompileOptions(Target.CUDA))

    def test_unknown_device_function(self):
        prog = simple_program([
            A.StoreIdx(A.Arg("out"), A.Var("iv"), A.FuncCall("nope"))])
        from repro.frontend.lower_common import LoweringError

        with pytest.raises(LoweringError, match="nope"):
            compile_program(prog, CompileOptions(Target.CUDA))

    def test_assign_to_undeclared(self):
        prog = simple_program([A.Assign("x", A.Const(1, I64))])
        from repro.frontend.lower_common import LoweringError

        with pytest.raises(LoweringError):
            compile_program(prog, CompileOptions(Target.CUDA))
