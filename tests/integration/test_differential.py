"""Differential property testing: random DSL kernels must compute the
same results under every lowering and optimization level.

This exercises the whole stack at once — frontend, runtime, passes,
interpreter — and is the strongest guard against miscompilation: any
pass that changes observable behaviour shows up as a cross-build
mismatch on some random program.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.types import F64, I64, PTR
from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.passes import PipelineConfig
from repro.vgpu import LaunchSpec, VirtualGPU

N = 64
TEAMS, THREADS = 2, 32


# ------------------------------------------------------------ expression gen --

def int_expr(depth: int):
    """Expression strategy over i64 values in scope (iv, a, b, k)."""
    leaves = st.one_of(
        st.just(A.Var("iv")),
        st.just(A.Arg("a")),
        st.just(A.Arg("b")),
        st.just(A.Var("k")),
        st.integers(min_value=-7, max_value=13).map(lambda v: A.Const(v, I64)),
    )
    if depth <= 0:
        return leaves

    sub = int_expr(depth - 1)

    def bin_op(args):
        op, lhs, rhs = args
        return A.Bin(op, lhs, rhs)

    def safe_mod(args):
        lhs, divisor = args
        return A.Bin("%", lhs, A.Const(divisor, I64))

    def select(args):
        pred, lhs, rhs, then, els = args
        return A.SelectExpr(A.Cmp(pred, lhs, rhs), then, els)

    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(["+", "-", "*", "&", "|", "^"]), sub, sub).map(bin_op),
        st.tuples(sub, st.integers(min_value=1, max_value=9)).map(safe_mod),
        st.tuples(st.sampled_from(["<", "<=", "==", "!=", ">", ">="]),
                  sub, sub, sub, sub).map(select),
    )


@st.composite
def random_kernel_body(draw):
    stmts = [A.Let("k", A.Const(draw(st.integers(0, 5)), I64), I64)]
    # a few assignments, maybe guarded, maybe in a bounded loop
    for i in range(draw(st.integers(1, 3))):
        expr = draw(int_expr(2))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            stmts.append(A.Assign("k", expr))
        elif kind == 1:
            stmts.append(A.If(
                A.Cmp(draw(st.sampled_from(["<", ">="])), A.Var("iv"),
                      draw(st.integers(0, N))),
                [A.Assign("k", expr)],
                [A.Assign("k", A.Var("k") + 1)],
            ))
        else:
            stmts.append(A.ForRange(f"j{i}", 0, draw(st.integers(1, 4)), [
                A.Assign("k", A.Var("k") + expr * (A.Var(f"j{i}") + 1)),
            ]))
    stmts.append(A.StoreIdx(A.Arg("out"), A.Var("iv"),
                            A.CastTo(A.Var("k"), F64)))
    return stmts


def make_program(body) -> A.Program:
    return A.Program("fuzz", kernels=[A.KernelDef(
        "fuzz",
        params=[A.Param("out", PTR), A.Param("a", I64), A.Param("b", I64),
                A.Param("n", I64)],
        trip_count=A.Arg("n"),
        body=body,
    )])


def run_build(program, options, a, b):
    compiled = compile_program(program, options)
    gpu = VirtualGPU(compiled.module)
    out = gpu.alloc_array(np.zeros(N))
    args = compiled.abi("fuzz").marshal(gpu, {"out": out, "a": a, "b": b, "n": N})
    gpu.run(LaunchSpec(kernel="fuzz", num_teams=TEAMS,
                       threads_per_team=THREADS, args=args))
    return gpu.read_array(out, np.float64, N)


BUILDS = {
    "omp-o0": CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig.o0()),
    "omp-full": CompileOptions(Target.OPENMP_NEW),
    "omp-old": CompileOptions(Target.OPENMP_OLD,
                              pipeline=PipelineConfig.legacy()),
    "cuda": CompileOptions(Target.CUDA),
}


class TestDifferential:
    @settings(max_examples=12, deadline=None)
    @given(random_kernel_body(), st.integers(-100, 100), st.integers(-100, 100))
    def test_all_builds_agree(self, body, a, b):
        program = make_program(body)
        results = {
            label: run_build(program, options, a, b)
            for label, options in BUILDS.items()
        }
        reference = results["omp-o0"]
        for label, out in results.items():
            assert np.array_equal(out, reference), (
                f"{label} diverges from O0 reference"
            )

    @settings(max_examples=12, deadline=None)
    @given(random_kernel_body(), st.integers(-100, 100))
    def test_ablation_flags_never_change_results(self, body, a):
        program = make_program(body)
        reference = None
        for flag in ("enable_field_sensitive", "enable_assumed_content",
                     "enable_barrier_elim"):
            config = PipelineConfig()
            setattr(config, flag, False)
            options = CompileOptions(Target.OPENMP_NEW, pipeline=config)
            out = run_build(program, options, a, a + 1)
            if reference is None:
                reference = out
            else:
                assert np.array_equal(out, reference), flag
