"""Determinism: compilation and simulation are reproducible."""

import numpy as np
import pytest

from repro.apps import gridmini, xsbench
from repro.apps.common import run_app
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.ir.printer import print_module


class TestCompilationDeterminism:
    def test_same_program_compiles_to_same_ir(self):
        size = xsbench.default_size()
        options = CompileOptions(Target.OPENMP_NEW)
        a = compile_program(xsbench.build_program(size), options)
        b = compile_program(xsbench.build_program(size), options)
        assert print_module(a.module) == print_module(b.module)

    def test_same_run_same_profile(self):
        r1 = run_app(gridmini, CompileOptions(Target.OPENMP_NEW))
        r2 = run_app(gridmini, CompileOptions(Target.OPENMP_NEW))
        assert r1.profile.cycles == r2.profile.cycles
        assert r1.profile.instructions == r2.profile.instructions
        assert r1.profile.registers == r2.profile.registers

    def test_cuda_path_deterministic_too(self):
        r1 = run_app(gridmini, CompileOptions(Target.CUDA))
        r2 = run_app(gridmini, CompileOptions(Target.CUDA))
        assert r1.profile.cycles == r2.profile.cycles


class TestCrossBuildNumericalAgreement:
    def test_openmp_and_cuda_bitwise_equal_outputs(self):
        """Same arithmetic order => identical floating point results."""
        import numpy as np
        from repro.vgpu import LaunchSpec, VirtualGPU

        size = {"n_sites": 64}
        program = gridmini.build_program(size)
        outputs = {}
        for mode, options in (
            ("omp", CompileOptions(Target.OPENMP_NEW)),
            ("cuda", CompileOptions(Target.CUDA)),
        ):
            compiled = compile_program(program, options)
            gpu = VirtualGPU(compiled.module)
            host_args, _ = gridmini.prepare(gpu, size)
            args = compiled.abi(gridmini.KERNEL).marshal(gpu, host_args)
            gpu.run(LaunchSpec(kernel=gridmini.KERNEL, num_teams=2,
                               threads_per_team=32, args=args))
            outputs[mode] = gpu.read_array(host_args["out"], np.float64, 64 * 4)
        assert np.array_equal(outputs["omp"], outputs["cuda"])
