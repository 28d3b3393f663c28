#!/usr/bin/env python3
"""§III-G debugging workflow: one runtime, debug and release builds.

1. Compiles a kernel with a user assertion in *debug* mode, activates
   the runtime debug environment, and triggers the assertion — showing
   the device-side message and trap.
2. Turns on runtime-call function tracing and prints the trace.
3. Recompiles in *release* mode: the same failing input sails through
   (the check became a compiler assumption) and the binary carries no
   debug code.

Run:  python examples/debugging_workflow.py
"""

import numpy as np

from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.ir.types import F64, I64, PTR
from repro.runtime.config import DEBUG_ASSERTIONS, DEBUG_FUNCTION_TRACING
from repro.vgpu import LaunchSpec, TrapError, VirtualGPU


def build_program() -> A.Program:
    """Normalizes an array; asserts the scale is positive."""
    iv = A.Var("iv")
    kernel = A.KernelDef(
        "normalize",
        params=[A.Param("data", PTR), A.Param("scale", F64), A.Param("n", I64)],
        trip_count=A.Arg("n"),
        body=[
            A.AssertStmt(A.Cmp(">", A.Arg("scale"), 0.0),
                         "scale must be positive"),
            A.StoreIdx(A.Arg("data"), iv,
                       A.Index(A.Arg("data"), iv) / A.Arg("scale")),
        ],
    )
    return A.Program("debugging", kernels=[kernel])


def launch(compiled, scale, env=None):
    gpu = VirtualGPU(compiled.module, env=env)
    data = gpu.alloc_array(np.ones(64))
    spec = LaunchSpec(
        kernel="normalize", num_teams=2, threads_per_team=32,
        args=compiled.abi("normalize").marshal(
            gpu, {"data": data, "scale": scale, "n": 64}),
    )
    return gpu.run(spec).profile


def main() -> None:
    program = build_program()

    print("== debug build, assertion violated (scale = -1)")
    debug = compile_program(program,
                            CompileOptions(Target.OPENMP_NEW).with_debug())
    try:
        launch(debug, -1.0, env={"DEBUG": DEBUG_ASSERTIONS})
    except TrapError as exc:
        print(f"   device trap: {exc}")

    print("\n== debug build, tracing enabled (scale = 2)")
    profile = launch(debug, 2.0, env={"DEBUG": DEBUG_FUNCTION_TRACING})
    calls = [line for line in profile.output if line.startswith("__kmpc")]
    print(f"   traced {len(calls)} runtime calls; first few: {calls[:4]}")

    print("\n== release build, same bad input (scale = -1)")
    release = compile_program(program, CompileOptions(Target.OPENMP_NEW))
    profile = launch(release, -1.0)
    print(f"   ran to completion in {profile.cycles} cycles — the check")
    print("   became a compiler assumption and costs nothing (§III-G).")

    dbg_cycles = launch(debug, 2.0).cycles
    rel_cycles = launch(release, 2.0).cycles
    print(f"\n== overhead: debug {dbg_cycles} cycles vs release "
          f"{rel_cycles} cycles on the same input")


if __name__ == "__main__":
    main()
