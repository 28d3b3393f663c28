"""Barrier semantics: team synchronization, divergence, timing phases."""

import numpy as np
import pytest

from repro.memory.addrspace import AddressSpace
from repro.ir import ArrayType, GlobalVariable, I64, PTR_GLOBAL
from repro.vgpu import (
    DivergenceError, LaunchSpec, StepLimitExceeded, VirtualGPU,
)
from repro.vgpu.config import GPUConfig
from tests.conftest import make_kernel


class TestBarrierSynchronization:
    def test_barrier_publishes_shared_writes(self, module):
        """Classic tile pattern: each thread writes its slot, barrier,
        then reads a neighbour's slot."""
        tile = module.add_global(GlobalVariable(
            "tile", ArrayType(I64, 16), addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        tid = b.sext(b.thread_id(), I64)
        b.store(b.mul(tid, b.i64(10)), b.array_gep(tile, I64, tid))
        b.aligned_barrier()
        nbr = b.srem(b.add(tid, b.i64(1)), b.i64(16))
        v = b.load(I64, b.array_gep(tile, I64, nbr))
        b.store(v, b.array_gep(func.args[0], I64, tid))
        b.ret()
        gpu = VirtualGPU(module)
        out = gpu.alloc_array(np.zeros(16, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=16, args=(out,)))
        expected = [((t + 1) % 16) * 10 for t in range(16)]
        assert list(gpu.read_array(out, np.int64, 16)) == expected

    def test_barriers_counted_per_team(self, module):
        func, b = make_kernel(module, params=())
        b.aligned_barrier()
        b.aligned_barrier()
        b.ret()
        gpu = VirtualGPU(module)
        profile = gpu.run(LaunchSpec(kernel="kern", num_teams=3,
                                     threads_per_team=4)).profile
        assert profile.barriers == 6  # 2 barriers x 3 teams

    def test_threads_that_exited_do_not_block_barrier(self, module):
        """Threads returning early must not deadlock the rest."""
        func, b = make_kernel(module, params=())
        tid = b.thread_id()
        early = func.add_block("early")
        work = func.add_block("work")
        b.cond_br(b.icmp("eq", tid, b.i32(0)), early, work)
        b.set_insert_point(early)
        b.ret()
        b.set_insert_point(work)
        b.barrier()  # unaligned: only surviving threads participate
        b.ret()
        gpu = VirtualGPU(module)
        profile = gpu.run(LaunchSpec(kernel="kern",
                                     threads_per_team=4)).profile
        assert profile.barriers == 1


class TestDivergenceDetection:
    def _divergent_module(self, module):
        func, b = make_kernel(module, params=())
        tid = b.thread_id()
        a = func.add_block("a")
        c = func.add_block("c")
        merge = func.add_block("merge")
        b.cond_br(b.icmp("eq", tid, b.i32(0)), a, c)
        b.set_insert_point(a)
        b.aligned_barrier()
        b.br(merge)
        b.set_insert_point(c)
        b.aligned_barrier()
        b.br(merge)
        b.set_insert_point(merge)
        b.ret()
        return func

    def test_divergent_aligned_barrier_raises_in_debug(self, module):
        self._divergent_module(module)
        gpu = VirtualGPU(module, debug_checks=True)
        with pytest.raises(DivergenceError):
            gpu.run(LaunchSpec(kernel="kern", threads_per_team=4))

    def test_divergent_aligned_barrier_tolerated_in_release(self, module):
        self._divergent_module(module)
        gpu = VirtualGPU(module, debug_checks=False)
        # UB on hardware; the simulator proceeds.
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=4))

    def test_unaligned_barriers_may_diverge(self, module):
        func, b = make_kernel(module, params=())
        tid = b.thread_id()
        a = func.add_block("a")
        c = func.add_block("c")
        merge = func.add_block("merge")
        b.cond_br(b.icmp("eq", tid, b.i32(0)), a, c)
        b.set_insert_point(a)
        b.barrier()
        b.br(merge)
        b.set_insert_point(c)
        b.barrier()
        b.br(merge)
        b.set_insert_point(merge)
        b.ret()
        gpu = VirtualGPU(module, debug_checks=True)
        gpu.run(LaunchSpec(kernel="kern",
                           threads_per_team=4))  # fine: generic barriers


class TestLivelockGuard:
    def test_infinite_loop_hits_step_limit(self, module):
        func, b = make_kernel(module, params=())
        spin = func.add_block("spin")
        b.br(spin)
        b.set_insert_point(spin)
        b.br(spin)
        gpu = VirtualGPU(module, config=GPUConfig(max_steps_per_thread=10_000))
        with pytest.raises(StepLimitExceeded):
            gpu.run(LaunchSpec(kernel="kern", threads_per_team=2))


class TestPhaseTiming:
    def test_team_time_is_max_of_threads_per_phase(self, module):
        """One slow thread dominates the phase; work does not add up."""
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["data"])
        tid = b.thread_id()
        heavy = func.add_block("heavy")
        join = func.add_block("join")
        b.cond_br(b.icmp("eq", tid, b.i32(0)), heavy, join)
        b.set_insert_point(heavy)
        # thread 0 does 100 global loads
        loop = func.add_block("loop")
        b.br(loop)
        b.set_insert_point(loop)
        iv = b.phi(I64, "iv")
        iv.add_incoming(b.i64(0), heavy)
        b.load(I64, b.array_gep(func.args[0], I64, iv), volatile=True)
        nxt = b.add(iv, b.i64(1))
        iv.add_incoming(nxt, loop)
        b.cond_br(b.icmp("slt", nxt, b.i64(100)), loop, join)
        b.set_insert_point(join)
        b.ret()
        gpu = VirtualGPU(module)
        data = gpu.alloc_array(np.zeros(128, dtype=np.int64))
        one_thread = gpu.run(LaunchSpec(kernel="kern",
                                        args=(data,))).profile.team_cycles[0]
        gpu2 = VirtualGPU(module)
        data2 = gpu2.alloc_array(np.zeros(128, dtype=np.int64))
        many = gpu2.run(LaunchSpec(kernel="kern", threads_per_team=32,
                                   args=(data2,))).profile.team_cycles[0]
        # 31 idle threads add only epsilon (their branch), not 32x.
        assert many < one_thread * 1.5

    def test_wave_model_sums_over_sm_batches(self, module):
        func, b = make_kernel(module, params=())
        b.aligned_barrier()
        b.ret()
        config = GPUConfig(num_sms=2)
        gpu = VirtualGPU(module, config=config)
        t2 = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                threads_per_team=4)).profile.cycles
        t4 = gpu.run(LaunchSpec(kernel="kern", num_teams=4,
                                threads_per_team=4)).profile.cycles
        # 4 teams on 2 SMs = 2 waves: roughly double the team time.
        assert t4 > t2
