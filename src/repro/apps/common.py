"""Shared infrastructure for the proxy applications.

Each app module exposes the same surface:

* ``build_program(size)`` — the DSL program,
* ``default_size()`` — interpreter-friendly problem dimensions,
* ``prepare(gpu, size)`` — allocate inputs on a virtual GPU and return
  (host_args, verify) where ``verify`` checks device results against a
  NumPy reference,
* ``run(options, size=None, ...)`` — compile, launch, verify, profile.

All randomness is deterministic (fixed seeds) so every build of an app
computes — and must reproduce — identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions, CompiledProgram, compile_program
from repro.ir.types import F64, I64
from repro.vgpu import GPUConfig, KernelProfile, LaunchSpec, VirtualGPU

#: (host_args, verify(gpu, host_args) -> max abs error)
PreparedInputs = Tuple[Dict[str, Any], Callable[[VirtualGPU, Dict[str, Any]], float]]


@dataclass
class AppRunResult:
    """Outcome of one app run under one build configuration."""

    app: str
    kernel: str
    profile: KernelProfile
    max_error: float
    compiled: CompiledProgram

    @property
    def verified(self) -> bool:
        return self.max_error < 1e-9

    @property
    def cycles(self) -> int:
        return self.profile.cycles


def lcg_rand01_function() -> A.DeviceFunction:
    """Deterministic per-index pseudo-random in [0, 1).

    A 32-bit LCG seeded by the loop index; identical in every lowering
    so all builds compute identical lookups.
    """
    M = 2147483647  # 2^31 - 1
    return A.DeviceFunction(
        "rand01",
        params=[A.Param("seed", I64)],
        ret_ty=F64,
        body=[
            A.Let("s", (A.Arg("seed") * 1103515245 + 12345) & (M - 1), I64),
            A.Assign("s", (A.Var("s") * 1103515245 + 12345) & (M - 1)),
            A.ReturnStmt(A.CastTo(A.Var("s"), F64) / float(M)),
        ],
    )


def lcg_rand01_host(seed: np.ndarray) -> np.ndarray:
    """NumPy reference of :func:`lcg_rand01_function`."""
    M = 2147483647
    s = (seed.astype(np.int64) * 1103515245 + 12345) & (M - 1)
    s = (s * 1103515245 + 12345) & (M - 1)
    return s.astype(np.float64) / float(M)


def run_proxy_app(
    app_name: str,
    program: A.Program,
    kernel: str,
    prepare: Callable[[VirtualGPU, Dict[str, int]], PreparedInputs],
    size: Dict[str, int],
    options: CompileOptions,
    num_teams: int,
    threads_per_team: int,
    gpu_config: Optional[GPUConfig] = None,
    debug_checks: bool = False,
    env: Optional[Dict[str, int]] = None,
    engine: Optional[str] = None,
    sanitize: Optional[bool] = None,
    faults=None,
    watchdog_s: Optional[float] = None,
) -> AppRunResult:
    """Compile *program* under *options*, run *kernel*, verify, profile.

    ``engine`` picks the execution engine (``decoded``/``warp``, see
    :func:`repro.vgpu.resolve_sim_engine`).
    ``sanitize``/``faults``/``watchdog_s`` thread through to
    :class:`VirtualGPU`/:class:`~repro.vgpu.LaunchSpec` (robustness
    knobs; see README "Robustness").

    The launch goes through the request-object API: per-launch knobs
    travel in a :class:`~repro.vgpu.LaunchSpec` executed by
    ``VirtualGPU.run``, with only the device-scoped ones (sanitizer,
    debug checks, environment) on the device itself.
    """
    compiled = compile_program(program, options)
    gpu = VirtualGPU(
        compiled.module,
        config=gpu_config or GPUConfig(),
        debug_checks=debug_checks,
        env=env,
        sanitize=sanitize,
    )
    host_args, verify = prepare(gpu, size)
    spec = LaunchSpec(
        kernel=kernel,
        num_teams=num_teams,
        threads_per_team=threads_per_team,
        args=tuple(compiled.abi(kernel).marshal(gpu, host_args)),
        watchdog_s=watchdog_s,
        engine=engine,
        faults=faults,
    )
    profile = gpu.run(spec).profile
    max_error = verify(gpu, host_args)
    return AppRunResult(
        app=app_name,
        kernel=kernel,
        profile=profile,
        max_error=max_error,
        compiled=compiled,
    )
