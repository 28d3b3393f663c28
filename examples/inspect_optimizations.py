#!/usr/bin/env python3
"""Watch the co-designed optimizations transform a kernel.

Compiles the XSBench proxy twice — unoptimized (O0) and with the full
openmp-opt pipeline — prints the final kernel IR of each, and lists the
optimization remarks (the ``-Rpass=openmp-opt`` analogue of §VII).

Run:  python examples/inspect_optimizations.py
"""

from repro.apps import xsbench
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.ir.printer import print_function
from repro.passes import PipelineConfig


def summarize(module, kernel_name):
    kern = module.get_function(kernel_name)
    insts = sum(1 for _ in kern.instructions())
    from repro.vgpu.resources import shared_memory_usage
    from repro.passes.barrier_elim import _is_any_barrier

    barriers = sum(
        1 for f in module.defined_functions()
        for i in f.instructions() if _is_any_barrier(i))
    return insts, shared_memory_usage(kern, module), barriers


def main() -> None:
    size = {"n_lookups": 64, "n_nuclides": 4, "n_gridpoints": 16,
            "n_mats": 2, "nucs_per_mat": 2}
    program = xsbench.build_program(size)

    o0 = compile_program(program, CompileOptions(
        Target.OPENMP_NEW, pipeline=PipelineConfig.o0()))
    o2 = compile_program(program, CompileOptions(Target.OPENMP_NEW))

    for label, compiled in (("O0 (runtime linked, unoptimized)", o0),
                            ("O2 (full openmp-opt pipeline)", o2)):
        insts, smem, barriers = summarize(compiled.module, "xs_lookup")
        funcs = sum(1 for _ in compiled.module.defined_functions())
        print(f"== {label}")
        print(f"   functions: {funcs}, kernel instructions: {insts}, "
              f"static smem: {smem}B, barrier sites: {barriers}")

    print("\n== optimization remarks (what the passes did and why not)")
    for remark in o2.remarks.remarks:
        print(f"   {remark}")

    print("\n== final optimized kernel IR")
    print(print_function(o2.kernel("xs_lookup")))


if __name__ == "__main__":
    main()
