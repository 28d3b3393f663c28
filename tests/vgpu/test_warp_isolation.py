"""The decoded engine must never pay for the warp engine.

NumPy is a hard dependency of :mod:`repro.vgpu.warp` only; a decoded
launch, fused or per op, must complete without importing either the
warp module or numpy (the imports in the interpreter are deferred for
exactly this reason).  Run in a subprocess so the assertion sees a
clean ``sys.modules``.
"""

import subprocess
import sys

import pytest

_PROBE = """
import sys
from repro.ir import I64, Module, verify_module
from repro.ir.module import Function
from repro.ir.types import FunctionType, VOID, PTR_GLOBAL
from repro.ir.builder import IRBuilder
from repro.vgpu import VirtualGPU
from repro.vgpu.launchspec import LaunchSpec

module = Module("m")
func = module.add_function(
    Function("kern", FunctionType(VOID, (PTR_GLOBAL,)))
)
func.attrs.add("kernel")
b = IRBuilder(module, func.add_block("entry"))
tid = b.sext(b.thread_id(), I64)
b.store(tid, b.ptradd(func.args[0], b.mul(tid, b.i64(8))))
b.ret()
verify_module(module)

gpu = VirtualGPU(module, engine="decoded")
gpu._per_op = {per_op!r}
buf = gpu.alloc_bytes(8 * 8)
gpu.run(LaunchSpec(kernel="kern", num_teams=1, threads_per_team=8,
                   args=(buf,)))
assert gpu.read_scalar(buf + 8 * 3, I64) == 3
assert "repro.vgpu.warp" not in sys.modules, "warp module leaked in"
assert "numpy" not in sys.modules, "numpy leaked into a scalar launch"
print("CLEAN")
"""


@pytest.mark.parametrize("engine", ["per-op", "decoded"])
def test_scalar_launch_never_imports_warp_or_numpy(engine):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(per_op=engine == "per-op")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CLEAN" in proc.stdout
