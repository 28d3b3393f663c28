"""Shared infrastructure for the proxy applications.

Each app module exposes the same surface:

* ``build_program(size)`` — the DSL program,
* ``default_size()`` — interpreter-friendly problem dimensions,
* ``prepare(gpu, size)`` — allocate inputs on a virtual GPU and return
  (host_args, verify) where ``verify`` checks device results against a
  NumPy reference,
* ``KERNEL``, ``TEAMS``, ``THREADS`` — the kernel and its default grid;
* optionally ``tune_options(options)`` — the app's own build settings
  (minifmm's device stack); every path that compiles an app applies it
  through :func:`app_options`.

:func:`run_app` turns an app module and a ``CompileOptions`` into one
verified, profiled launch; it is the one runner, which the bench
harness, the trace CLI and the examples call, and whose
:func:`prepare_launch` the serve layer shares.

All randomness is deterministic (fixed seeds) so every build of an app
computes — and must reproduce — identical results.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions, CompiledProgram
from repro.ir.types import F64, I64
from repro.toolchain.service import ToolchainSession
from repro.trace.collector import active_or_none as _active_trace
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


def app_options(app, options: CompileOptions) -> CompileOptions:
    """*options* as the app module *app* is compiled with them."""
    tune = getattr(app, "tune_options", None)
    return tune(options) if tune is not None else options


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


def prepare_launch(app, gpu: VirtualGPU, compiled: CompiledProgram,
                   size: Dict[str, int]) -> Tuple[Tuple[Any, ...], Callable[[], float]]:
    """Allocate *app*'s inputs on *gpu* and marshal its kernel's args.

    Returns ``(args, check)``: the ``LaunchSpec.args`` of ``app.KERNEL``
    and a thunk that, after the launch, returns the max abs error of the
    device results against the NumPy reference.  ``app.prepare`` is
    looked up at call time, so a patched module attribute takes effect.
    """
    host_args, verify = app.prepare(gpu, size)
    args = tuple(compiled.abi(app.KERNEL).marshal(gpu, host_args))
    return args, partial(verify, gpu, host_args)


def run_app(
    app,
    options: CompileOptions,
    *,
    size: Optional[Dict[str, int]] = None,
    session=None,
    num_teams: Optional[int] = None,
    threads_per_team: Optional[int] = None,
    engine: Optional[str] = None,
    sanitize: Optional[bool] = None,
    faults=None,
    debug_checks: bool = False,
    env: Optional[Dict[str, int]] = None,
    gpu_config: Optional[GPUConfig] = None,
) -> AppRunResult:
    """Compile the app module *app* under *options*, launch its kernel
    once, verify and profile: one cell of the evaluation matrix.

    The app's own build settings (:func:`app_options`) apply.  The
    compile goes through *session* (a :class:`~repro.toolchain.
    service.ToolchainSession`), else through a default session over the
    process-wide compile cache.  The grid defaults to the app's
    ``TEAMS`` x ``THREADS``; ``engine``/``faults`` ride on the
    :class:`~repro.vgpu.LaunchSpec`, while the device-scoped knobs
    (``sanitize``, ``debug_checks``, ``env``, ``gpu_config``) build the
    :class:`VirtualGPU`.  Under an active trace collector the
    input preparation and the launch get ``bench.prepare`` and
    ``bench.launch`` spans.
    """
    size = size or app.default_size()
    compiled = (session or ToolchainSession()).compile(
        app.build_program(size), app_options(app, options))
    gpu = VirtualGPU(
        compiled.module,
        config=gpu_config or GPUConfig(),
        debug_checks=debug_checks,
        env=env,
        sanitize=sanitize,
    )
    name = app.__name__.rpartition(".")[2]
    trace = _active_trace()
    with (trace.span("bench.prepare", cat="bench", app=name)
          if trace is not None else nullcontext()):
        args, check = prepare_launch(app, gpu, compiled, size)
    spec = LaunchSpec(
        kernel=app.KERNEL,
        num_teams=app.TEAMS if num_teams is None else num_teams,
        threads_per_team=app.THREADS if threads_per_team is None else threads_per_team,
        args=args,
        engine=engine,
        faults=faults,
    )
    with (trace.span("bench.launch", cat="bench", kernel=app.KERNEL)
          if trace is not None else nullcontext()):
        profile = gpu.run(spec).profile
    return AppRunResult(
        app=name,
        kernel=app.KERNEL,
        profile=profile,
        max_error=check(),
        compiled=compiled,
    )
