"""Shared fixtures and IR-construction helpers for the test suite."""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.vgpu.config import ENGINES


@pytest.fixture(scope="session", autouse=True)
def _isolated_compile_cache(tmp_path_factory):
    """Point the on-disk compile cache at a session tmpdir so test runs
    never leak ``.repro-cache/`` into the repository."""
    from repro.toolchain import cache as toolchain_cache

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    toolchain_cache.reset_compile_cache()
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old
    toolchain_cache.reset_compile_cache()


def matrix_cells():
    """The 24 (app, build) cells of the paper's matrix: every app under
    every build, but testsnap has no CUDA build."""
    from repro.bench.builds import BUILD_ORDER, CUDA
    from repro.bench.harness import APPS, SKIP_CUDA

    return [(app, build) for app in sorted(APPS) for build in BUILD_ORDER
            if not (app in SKIP_CUDA and build == CUDA)]


def compile_cell(app_name, build):
    """The cell's program at the app's default size, compiled through
    the process-wide cache (every hit shares one frozen program)."""
    from repro.bench.builds import build_options
    from repro.bench.harness import APPS
    from repro.toolchain.service import ToolchainSession

    app = APPS[app_name]
    return ToolchainSession().compile(app.build_program(app.default_size()),
                                      build_options()[build])


#: Engine label of the reference runs the engine comparisons check
#: against: the decoded engine with every frame run op by op through the
#: ``_h_*`` handlers, no fused runs (``VirtualGPU._per_op``).
PER_OP = "per-op"


#: The per-op reference followed by every engine: the labels an engine
#: comparison runs under :func:`engine_mode`, checking each result
#: against the first.
ENGINE_LABELS = (PER_OP,) + ENGINES


@contextlib.contextmanager
def engine_mode(label):
    """Run the body under the engine *label* names and yield the engine
    to pass on: ``per-op`` yields ``decoded`` with fused runs off for
    every device, any other label yields itself."""
    if label != PER_OP:
        yield label
        return
    from repro.vgpu import VirtualGPU

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VirtualGPU, "_per_op", True)
        yield "decoded"


from repro.ir import (
    F64,
    Function,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    Module,
    PTR,
    PTR_GLOBAL,
    VOID,
    verify_module,
)


@pytest.fixture
def module():
    return Module("test")


@pytest.fixture
def builder(module):
    """A builder positioned at the entry of @f(i32 %x) -> i32."""
    func = module.add_function(
        Function("f", FunctionType(I32, (I32,)), arg_names=["x"])
    )
    entry = func.add_block("entry")
    return IRBuilder(module, entry)


def make_function(module, name="f", ret=I32, params=(I32,), arg_names=None):
    """Create a function with an entry block; returns (func, builder)."""
    func = module.add_function(
        Function(name, FunctionType(ret, tuple(params)), arg_names=arg_names)
    )
    entry = func.add_block("entry")
    return func, IRBuilder(module, entry)


def make_kernel(module, name="kern", params=(PTR_GLOBAL, I64), arg_names=None):
    """Create a kernel function with an entry block."""
    func, b = make_function(module, name, VOID, params, arg_names)
    func.attrs.add("kernel")
    return func, b


def finish(module):
    """Verify and return the module (used as a one-line test epilogue)."""
    verify_module(module)
    return module
