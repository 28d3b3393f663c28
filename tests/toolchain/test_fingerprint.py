"""Content-addressing: cache-key stability and sensitivity."""

from dataclasses import replace

import pytest

from repro.apps import gridmini, xsbench
from repro.bench.builds import (
    NEW_RT_NIGHTLY,
    NEW_RT_NO_ASSUME,
    OLD_RT_NIGHTLY,
    build_options,
)
from repro.frontend.driver import CompileOptions, Target
from repro.ir.printer import print_module
from repro.passes.pass_manager import PipelineConfig
from repro.runtime.config import RuntimeConfig
from repro.toolchain.fingerprint import (
    compile_fingerprint,
    fingerprint_options,
    fingerprint_program,
    module_fingerprint,
)

TINY = {"n_sites": 64}


class TestProgramFingerprint:
    def test_same_program_same_fingerprint(self):
        # Two independently built ASTs of the same app and size.
        a = gridmini.build_program(TINY)
        b = gridmini.build_program(TINY)
        assert a is not b
        assert fingerprint_program(a) == fingerprint_program(b)

    def test_structural_change_changes_fingerprint(self):
        from repro.frontend import ast as A
        from repro.ir.types import F64, I64, PTR

        def saxpy(scale: float) -> A.Program:
            iv = A.Var("iv")
            kernel = A.KernelDef(
                "saxpy",
                params=[A.Param("y", PTR), A.Param("n", I64)],
                trip_count=A.Arg("n"),
                body=[A.StoreIdx(A.Arg("y"), iv,
                                 A.Index(A.Arg("y"), iv) * scale)],
            )
            return A.Program("fp", kernels=[kernel])

        assert fingerprint_program(saxpy(2.0)) == fingerprint_program(saxpy(2.0))
        assert fingerprint_program(saxpy(2.0)) != fingerprint_program(saxpy(3.0))

    def test_different_apps_differ(self):
        a = gridmini.build_program(TINY)
        b = xsbench.build_program(xsbench.default_size())
        assert fingerprint_program(a) != fingerprint_program(b)


class TestOptionsFingerprint:
    def test_equal_options_equal_fingerprint(self):
        a = CompileOptions(Target.OPENMP_NEW)
        b = CompileOptions(Target.OPENMP_NEW)
        assert fingerprint_options(a) == fingerprint_options(b)

    def test_target_flip_changes_fingerprint(self):
        base = fingerprint_options(CompileOptions(Target.OPENMP_NEW))
        assert fingerprint_options(CompileOptions(Target.OPENMP_OLD)) != base
        assert fingerprint_options(CompileOptions(Target.CUDA)) != base

    @pytest.mark.parametrize("flag", [
        "enable_spmdization",
        "enable_globalization_elim",
        "enable_field_sensitive",
        "enable_reach_dom",
        "enable_assumed_content",
        "enable_invariant_prop",
        "enable_aligned_exec",
        "enable_barrier_elim",
        "enable_inlining",
    ])
    def test_any_pipeline_flag_flip_changes_fingerprint(self, flag):
        base = CompileOptions(Target.OPENMP_NEW)
        flipped = PipelineConfig(**{flag: False})
        assert fingerprint_options(base) != fingerprint_options(
            CompileOptions(Target.OPENMP_NEW, pipeline=flipped)
        )

    def test_runtime_config_flip_changes_fingerprint(self):
        base = CompileOptions(Target.OPENMP_NEW)
        tweaked = replace(base, runtime_config=RuntimeConfig(smem_stack_size=2048))
        assert fingerprint_options(base) != fingerprint_options(tweaked)

    def test_oversubscription_changes_fingerprint(self):
        base = CompileOptions(Target.OPENMP_NEW)
        assert fingerprint_options(base) != fingerprint_options(
            base.with_oversubscription()
        )

    def test_verify_flag_changes_fingerprint(self):
        base = CompileOptions(Target.OPENMP_NEW)
        assert fingerprint_options(base) != fingerprint_options(
            replace(base, verify=False)
        )


class TestCompileFingerprint:
    def test_combines_program_and_options(self):
        prog = gridmini.build_program(TINY)
        a = compile_fingerprint(prog, CompileOptions(Target.OPENMP_NEW))
        assert a == compile_fingerprint(
            gridmini.build_program(TINY), CompileOptions(Target.OPENMP_NEW)
        )
        assert a != compile_fingerprint(prog, CompileOptions(Target.CUDA))

    @pytest.mark.parametrize("app,target,digest", [
        ("gridmini", Target.OPENMP_NEW,
         "40a79ed826453f9207141d7859cb8c361093eb264d828a7252ad321ea2b58c14"),
        ("xsbench", Target.OPENMP_OLD,
         "413948b6e06412fbb588c5732b6c9fb7da15e779dbd47a2290990576bc7fbf9a"),
    ])
    def test_pinned_digest(self, app, target, digest):
        """Cache keys are persistent: a change to how programs or
        options are canonicalized must not change a digest."""
        mod = {"gridmini": gridmini, "xsbench": xsbench}[app]
        size = TINY if app == "gridmini" else xsbench.default_size()
        assert compile_fingerprint(
            mod.build_program(size), CompileOptions(target)) == digest


class TestModuleFingerprint:
    @staticmethod
    def _assert_deterministic(build):
        # Nothing may depend on object identity, such as set order;
        # LICM hoisting in set order broke this for the nightly builds.
        from repro.frontend.driver import compile_program_uncached

        prog = gridmini.build_program(TINY)
        options = build_options()[build]
        a, b, c = (compile_program_uncached(prog, options) for _ in range(3))
        text = print_module(a.module, canonical=True)
        assert print_module(b.module, canonical=True) == text
        assert print_module(c.module, canonical=True) == text
        assert module_fingerprint(a.module) == module_fingerprint(b.module)

    def test_canonical_print_is_deterministic(self):
        self._assert_deterministic(NEW_RT_NO_ASSUME)

    @pytest.mark.parametrize("build", [NEW_RT_NIGHTLY, OLD_RT_NIGHTLY])
    def test_canonical_print_is_deterministic_nightly(self, build):
        self._assert_deterministic(build)

    def test_name_hints_do_not_matter_in_canonical_mode(self, module):
        from tests.conftest import make_function
        from repro.ir import I32, IRBuilder, Module

        def build(hint):
            m = Module("m")
            func, b = make_function(m, "f")
            v = b.add(func.args[0], func.args[0], name=hint)
            b.ret(v)
            return m

        a, b_ = build("alpha"), build("beta")
        assert print_module(a, canonical=True) == print_module(b_, canonical=True)
        assert print_module(a) != print_module(b_)
