"""Cost model and profiler accounting."""

import pytest

from repro.memory.addrspace import AddressSpace
from repro.ir import F64, GlobalVariable, I64, PTR_GLOBAL
from repro.vgpu import GPUConfig, LaunchSpec, VirtualGPU
from repro.vgpu.config import LaunchConfig
from repro.vgpu.cost import CostModel
from repro.vgpu.profiler import NOMINAL_CLOCK_GHZ, KernelProfile
from tests.conftest import make_kernel


class TestLaunchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LaunchConfig(0, 32)
        with pytest.raises(ValueError):
            LaunchConfig(1, 0)
        assert LaunchConfig(4, 32).total_threads == 128


class TestCostModel:
    def test_global_loads_cost_more_than_shared(self):
        model = CostModel(GPUConfig())
        assert model.load_cost(AddressSpace.GLOBAL) > model.load_cost(AddressSpace.SHARED)
        assert model.load_cost(AddressSpace.SHARED) > model.load_cost(AddressSpace.LOCAL)

    def test_intrinsic_costs_from_registry(self):
        model = CostModel(GPUConfig())
        assert model.call_cost("llvm.sqrt.f64") == 12
        assert model.call_cost("llvm.assume") == 0
        assert model.call_cost("user_function") == GPUConfig().call_cost

    def test_float_div_expensive(self, module):
        from repro.ir.instructions import BinOp
        from repro.ir.values import const_float

        model = CostModel(GPUConfig())
        div = BinOp("fdiv", const_float(1.0), const_float(2.0))
        add = BinOp("fadd", const_float(1.0), const_float(2.0))
        assert model.binop_cost(div) > model.binop_cost(add)


class TestProfileAccounting:
    def _profiled(self, module, teams=2, threads=4):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["p"])
        v = b.load(F64, func.args[0])
        b.store(b.fmul(v, b.f64(2.0)), b.ptradd(func.args[0], 8))
        b.ret()
        gpu = VirtualGPU(module)
        import numpy as np

        p = gpu.alloc_array(np.zeros(4))
        return gpu.run(LaunchSpec(kernel="kern", num_teams=teams,
                                  threads_per_team=threads, args=(p,))).profile

    def test_launch_overhead_included(self, module):
        profile = self._profiled(module)
        assert profile.cycles > GPUConfig().launch_overhead

    def test_loads_binned_by_space(self, module):
        profile = self._profiled(module, teams=1, threads=4)
        assert profile.loads_by_space[AddressSpace.GLOBAL] == 4
        assert profile.stores_by_space[AddressSpace.GLOBAL] == 4

    def test_flops_counted(self, module):
        profile = self._profiled(module, teams=1, threads=8)
        assert profile.flops == 8  # one fmul per thread

    def test_gflops_scaling(self):
        p = KernelProfile("k", 1, 1, cycles=1000, flops=500)
        assert p.gflops == pytest.approx(0.5 * NOMINAL_CLOCK_GHZ)

    def test_time_conversions(self):
        p = KernelProfile("k", 1, 1, cycles=int(NOMINAL_CLOCK_GHZ * 1e9))
        assert p.time_seconds == pytest.approx(1.0)
        assert p.time_ms == pytest.approx(1000.0)

    def test_zero_cycles_zero_gflops(self):
        assert KernelProfile("k", 1, 1).gflops == 0.0

    def test_instructions_counted_across_teams(self, module):
        one = self._profiled(module, teams=1, threads=4)

    def test_team_cycles_recorded(self, module):
        profile = self._profiled(module, teams=3, threads=2)
        assert set(profile.team_cycles) == {0, 1, 2}
        assert all(c > 0 for c in profile.team_cycles.values())

    def test_summary_mentions_key_numbers(self, module):
        profile = self._profiled(module)
        text = profile.summary()
        assert str(profile.cycles) in text
        assert "regs" in text


class TestDeviceEnvironment:
    def test_env_written_into_device_global(self, module):
        from repro.ir import I32

        gv = module.add_global(GlobalVariable(
            "__omp_rtl_env_DEBUG", I32, linkage="external"))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        v = b.load(I32, gv)
        b.store(b.sext(v, I64), func.args[0])
        b.ret()
        gpu = VirtualGPU(module, env={"DEBUG": 3})
        import numpy as np

        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", args=(out,)))
        assert gpu.read_array(out, np.int64, 1)[0] == 3

    def test_unknown_env_ignored(self, module):
        func, b = make_kernel(module, params=())
        b.ret()
        gpu = VirtualGPU(module, env={"NOT_A_THING": 7})
        gpu.run(LaunchSpec(kernel="kern"))
