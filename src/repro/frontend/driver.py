"""Compilation driver: DSL program → optimized device module.

Mirrors the paper's toolchain (§II-B): lower against the chosen device
runtime (or as CUDA), "link" the runtime in, run the openmp-opt
pipeline, and hand back the final binary plus remarks, ABI and
pipeline statistics.

Repeated compilations of the same ``(program, options)`` pair are
served from the content-addressed compile cache in
:mod:`repro.toolchain.cache`, which shares one frozen program per
fingerprint; call :func:`compile_program_uncached` (or set
``REPRO_CACHE=0``) to force a fresh pipeline run, or
:meth:`CompiledProgram.mutable_copy` for a program to edit.
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Dict, Optional, Sequence

from repro.ir.module import Function, Module
from repro.ir.verifier import verify_module
from repro.frontend import ast as A
from repro.frontend.abi import KernelABI
from repro.frontend.cuda import lower_program_cuda
from repro.frontend.lower import lower_program_openmp
from repro.passes.pass_manager import PipelineConfig, PipelineStats
from repro.passes.pipeline import run_openmp_opt_pipeline
from repro.passes.remarks import RemarkCollector
from repro.runtime.config import (
    DEBUG_ASSERTIONS,
    DEBUG_FUNCTION_TRACING,
    RuntimeConfig,
)


class Target(enum.Enum):
    """What the driver lowers a program against: the frontend mode and,
    for OpenMP, the device runtime flavour."""

    #: OpenMP offload against the co-designed device runtime (§III).
    OPENMP_NEW = ("openmp", "new")
    #: OpenMP offload against the legacy device runtime.
    OPENMP_OLD = ("openmp", "old")
    #: The hand-written-CUDA-style lowering (no device runtime).
    CUDA = ("cuda", None)

    @property
    def mode(self) -> str:
        """Frontend mode ("openmp" or "cuda")."""
        return self.value[0]

    @property
    def runtime(self) -> str:
        """Device runtime flavour; CUDA reports "new"."""
        return self.value[1] or "new"

    @property
    def is_openmp(self) -> bool:
        return self.mode == "openmp"


@dataclass(frozen=True)
class CompileOptions:
    """Everything the command line would control."""

    #: What to lower against (runtime flavour / CUDA baseline).
    target: Target = Target.OPENMP_NEW
    #: Optimization pipeline controls (including the ablation flags).
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    #: Compile-time runtime parameters (debug mask, over-subscription
    #: assumptions, shared-stack sizing).
    runtime_config: RuntimeConfig = field(default_factory=RuntimeConfig)
    #: Verify IR before and after optimizing.
    verify: bool = True

    def with_debug(self) -> "CompileOptions":
        """Debug build: assertions + tracing compiled in (§III-G)."""
        return replace(
            self,
            runtime_config=replace(
                self.runtime_config,
                debug_kind=DEBUG_ASSERTIONS | DEBUG_FUNCTION_TRACING,
            ),
        )

    def with_oversubscription(self, teams: bool = True, threads: bool = True) -> "CompileOptions":
        """Apply ``-fopenmp-assume-*-oversubscription`` (§III-F)."""
        return replace(
            self,
            runtime_config=replace(
                self.runtime_config,
                assume_teams_oversubscription=teams,
                assume_threads_oversubscription=threads,
            ),
        )


@dataclass
class CompiledProgram:
    """The result of one compilation."""

    module: Module
    abis: Dict[str, KernelABI]
    options: CompileOptions
    remarks: RemarkCollector
    #: Per-pass timing/impact record of the pipeline run that produced
    #: this program (None for cache-restored results predating stats).
    stats: Optional[PipelineStats] = None

    def kernel(self, name: str) -> Function:
        return self.module.get_function(name)

    def abi(self, name: str) -> KernelABI:
        return self.abis[name]

    def freeze(self) -> "CompiledProgram":
        """Make the module and ``abis`` read-only, in place (see
        :meth:`repro.ir.module.Module.freeze`), and return self."""
        if not self.module.frozen:
            self.module.freeze()
            self.abis = MappingProxyType(self.abis)
        return self

    def mutable_copy(self) -> "CompiledProgram":
        """An independent copy whose module passes may edit in place."""
        from repro.toolchain.fingerprint import deep_recursion

        with deep_recursion():
            copy = pickle.loads(pickle.dumps(self))
        copy.module.thaw()
        copy.abis = dict(copy.abis)
        return copy

    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "abis": dict(self.abis)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self.module.frozen:
            self.abis = MappingProxyType(self.abis)


def compile_program_uncached(
    program: A.Program, options: Optional[CompileOptions] = None
) -> CompiledProgram:
    """Compile *program* according to *options*, bypassing the cache."""
    options = options or CompileOptions()
    if options.target is Target.CUDA:
        module, abis = lower_program_cuda(program)
    else:
        module, abis = lower_program_openmp(
            program, options.target.runtime, options.runtime_config
        )
    if options.verify:
        verify_module(module)
    remarks = RemarkCollector()
    ctx = run_openmp_opt_pipeline(module, options.pipeline, remarks)
    if options.verify:
        verify_module(module)
    return CompiledProgram(
        module=module, abis=abis, options=options, remarks=remarks, stats=ctx.stats
    )


def compile_program(
    program: A.Program, options: Optional[CompileOptions] = None
) -> CompiledProgram:
    """Compile *program* according to *options*.

    Identical ``(program, options)`` pairs are served from the
    content-addressed compile cache (:mod:`repro.toolchain.cache`)
    without re-running the pipeline: every hit returns the same frozen
    program, so edit a :meth:`CompiledProgram.mutable_copy` instead.
    """
    # Imported here: the toolchain service layer sits *above* the driver.
    from repro.toolchain.cache import get_compile_cache

    cache = get_compile_cache()
    if cache is None:
        return compile_program_uncached(program, options)
    return cache.get_or_compile(program, options or CompileOptions())
