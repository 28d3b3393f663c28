"""§III-D dynamic shared memory: launch-time sizing, on every engine."""

import numpy as np
import pytest

from repro.ir import I64, PTR_GLOBAL, verify_module
from repro.vgpu import LaunchSpec, SimulationError, VirtualGPU
from repro.vgpu.config import ENGINES
from tests.conftest import make_kernel


def staging_kernel(module):
    """Each thread writes tid*3 to its dynamic-shared slot, barriers,
    then reads its neighbour's slot."""
    func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
    base = b.intrinsic("gpu.dynamic_shared", [], "dyn")
    tid = b.sext(b.thread_id(), I64)
    b.store(b.mul(tid, b.i64(3)), b.array_gep(base, I64, tid))
    b.aligned_barrier()
    nbr = b.srem(b.add(tid, b.i64(1)), b.i64(8))
    v = b.load(I64, b.array_gep(base, I64, nbr))
    b.store(v, b.array_gep(func.args[0], I64, tid))
    b.ret()
    verify_module(module)
    return func


class TestDynamicShared:
    def test_cross_thread_staging(self, module):
        staging_kernel(module)
        for engine in ENGINES:
            gpu = VirtualGPU(module, engine=engine)
            out = gpu.alloc_array(np.zeros(8, dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", threads_per_team=8, args=(out,),
                               dynamic_shared_bytes=64))
            got = list(gpu.read_array(out, np.int64, 8))
            assert got == [((t + 1) % 8) * 3 for t in range(8)], engine

    def test_per_team_isolation(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        base = b.intrinsic("gpu.dynamic_shared", [], "dyn")
        bid = b.sext(b.block_id(), I64)
        b.store(bid, base)
        v = b.load(I64, base)
        b.store(v, b.array_gep(func.args[0], I64, bid))
        b.ret()
        for engine in ENGINES:
            gpu = VirtualGPU(module, engine=engine)
            out = gpu.alloc_array(np.zeros(3, dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", num_teams=3, args=(out,),
                               dynamic_shared_bytes=16))
            assert list(gpu.read_array(out, np.int64, 3)) == [0, 1, 2], engine

    def test_unreserved_use_is_an_error(self, module):
        staging_kernel(module)
        for engine in ENGINES:
            gpu = VirtualGPU(module, engine=engine)
            out = gpu.alloc_array(np.zeros(8, dtype=np.int64))
            with pytest.raises(SimulationError, match="dynamic shared"):
                gpu.run(LaunchSpec(kernel="kern", threads_per_team=8,
                                   args=(out,)))  # no dynamic_shared_bytes

    def test_does_not_overlap_static_shared(self, module):
        from repro.memory.addrspace import AddressSpace, pointer_offset
        from repro.ir import ArrayType, F64, GlobalVariable

        module.add_global(GlobalVariable(
            "static_tile", ArrayType(F64, 16), addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        base = b.intrinsic("gpu.dynamic_shared", [], "dyn")
        gv_addr = b.cast("ptrtoint", module.get_global("static_tile"), I64)
        dyn_addr = b.cast("ptrtoint", base, I64)
        b.store(b.sub(dyn_addr, gv_addr), func.args[0])
        b.ret()
        for engine in ENGINES:
            gpu = VirtualGPU(module, engine=engine)
            out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", args=(out,),
                               dynamic_shared_bytes=32))
            gap = gpu.read_array(out, np.int64, 1)[0]
            # the dynamic region starts after the static tile
            assert gap >= 16 * 8, engine
