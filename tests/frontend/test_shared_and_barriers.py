"""User shared memory and barriers through the DSL, in both lowerings."""

import numpy as np
import pytest

from repro.ir.types import F64, I64, PTR
from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.vgpu import LaunchSpec, VirtualGPU

MODES = {
    "cuda": CompileOptions(Target.CUDA),
    "omp-new": CompileOptions(Target.OPENMP_NEW),
    "omp-old": CompileOptions(Target.OPENMP_OLD),
}


def tile_reverse_program():
    """Each team stages values into shared memory, barriers, and reads
    the team-mirrored element — needs real cross-thread communication."""
    iv = A.Var("iv")
    nt = A.Var("nt")
    return A.Program("tile", kernels=[A.KernelDef(
        "tile",
        params=[A.Param("inp", PTR), A.Param("out", PTR), A.Param("n", I64)],
        trip_count=A.Arg("n"),
        body=[
            A.Let("nt", A.CastTo(A.OmpCall("num_threads"), I64), I64),
            A.Let("lane", iv % nt, I64),
            A.StoreIdx(A.SharedRef("tile"), A.Var("lane"),
                       A.Index(A.Arg("inp"), iv)),
            A.BarrierStmt(),
            A.Let("mirror", nt - 1 - A.Var("lane"), I64),
            A.StoreIdx(A.Arg("out"), iv,
                       A.Index(A.SharedRef("tile"), A.Var("mirror"))),
        ],
        shared=[A.SharedArray("tile", F64, 32)],
    )])


@pytest.mark.parametrize("mode", list(MODES), ids=list(MODES))
class TestSharedTile:
    def test_cross_thread_communication(self, mode):
        program = tile_reverse_program()
        compiled = compile_program(program, MODES[mode])
        gpu = VirtualGPU(compiled.module)
        n = 64
        data = np.arange(n, dtype=np.float64)
        inp = gpu.alloc_array(data)
        out = gpu.alloc_array(np.zeros(n))
        args = compiled.abi("tile").marshal(gpu, {"inp": inp, "out": out, "n": n})
        gpu.run(LaunchSpec(kernel="tile", num_teams=2, threads_per_team=32,
                           args=args))
        got = gpu.read_array(out, np.float64, n)
        expected = np.concatenate([data[:32][::-1], data[32:][::-1]])
        assert np.array_equal(got, expected), mode

    def test_user_shared_survives_optimization(self, mode):
        """User shared memory is semantics, never eliminated."""
        program = tile_reverse_program()
        compiled = compile_program(program, MODES[mode])
        from repro.vgpu.resources import shared_memory_usage

        kern = compiled.kernel("tile")
        assert shared_memory_usage(kern, compiled.module) >= 32 * 8

    def test_user_barrier_survives_optimization(self, mode):
        """The staging barrier is required and must not be eliminated."""
        program = tile_reverse_program()
        compiled = compile_program(program, MODES[mode])
        from repro.passes.barrier_elim import _is_any_barrier

        kern = compiled.kernel("tile")
        assert any(_is_any_barrier(i) for i in kern.instructions()), mode
