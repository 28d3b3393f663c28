"""The serve layer's contract: served == direct, and failures stay put.

* A request served through :class:`repro.serve.SimulationService` is
  bit-identical to a direct ``VirtualGPU.run`` of the same spec —
  profiles, verification, fault firing and the device-timeline trace —
  across engines and under concurrent submitters.
* A saturated service answers with a structured
  :class:`~repro.serve.AdmissionRejected` instead of hanging.
* A request's failure becomes its own ``ok=False`` result; it never
  leaks into other tenants or poisons the pool.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.bench.builds import BUILD_ORDER, NEW_RT, build_options
from repro.bench.harness import APPS, run_single
from repro.faults.plan import FaultPlan
from repro.faults.report import CrashReport
from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions
from repro.ir import I64, PTR_GLOBAL, Constant, Module, verify_module
from repro.ir.types import F32
from repro.serve import (
    AdmissionRejected,
    DevicePool,
    LaunchSpec,
    ServiceClosed,
    SimulationService,
)
from repro.toolchain.cache import CompileCache
from repro.toolchain.service import ToolchainSession
from repro.trace.collector import TraceCollector, install
from repro.vgpu import ENGINE_DECODED, ENGINE_WARP, VirtualGPU
from tests.conftest import make_kernel

pytestmark = pytest.mark.serve

APP = "testsnap"
BUILD = BUILD_ORDER[0]


def _direct_app_run(engine, build=BUILD):
    """The reference: compile + run the app cell directly."""
    app = APPS[APP]
    size = app.default_size()
    compiled = ToolchainSession().compile(app.build_program(size),
                                          build_options()[build])
    gpu = VirtualGPU(compiled.module)
    host_args, verify = app.prepare(gpu, size)
    spec = LaunchSpec(
        kernel=app.KERNEL, num_teams=app.TEAMS, threads_per_team=app.THREADS,
        args=tuple(compiled.abi(app.KERNEL).marshal(gpu, host_args)),
        engine=engine,
    )
    result = gpu.run(spec)
    assert result.executed_engine == EXECUTED[build, engine]
    return result.profile.to_dict(), verify(gpu, host_args)


#: The engine matrix of the acceptance criterion: (build, requested
#: engine) -> the engine that runs the teams.  Old RT builds take
#: warp's decoded fallback; on New RT warp runs every team itself.
EXECUTED = {
    (BUILD, ENGINE_WARP): ENGINE_DECODED,
    (BUILD, ENGINE_DECODED): ENGINE_DECODED,
    (NEW_RT, ENGINE_WARP): ENGINE_WARP,
    (NEW_RT, ENGINE_DECODED): ENGINE_DECODED,
}


def _barrier_loop_module(iterations):
    """kern(): *iterations* barrier phases — abortable at each one."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    entry = b.block
    loop = func.add_block("loop")
    done = func.add_block("done")
    b.br(loop)
    b.set_insert_point(loop)
    i = b.phi(I64, "i")
    i.add_incoming(b.i64(0), entry)
    b.barrier()
    ni = b.add(i, b.i64(1))
    i.add_incoming(ni, loop)
    b.cond_br(b.icmp("slt", ni, b.i64(iterations)), loop, done)
    b.set_insert_point(done)
    b.ret()
    verify_module(module)
    return module


def _malloc_module():
    """kern(): three device mallocs, then return."""
    module = Module("m")
    func, b = make_kernel(module, params=())
    for _ in range(3):
        b.intrinsic("malloc", [b.i64(16)])
    b.ret()
    verify_module(module)
    return module


class TestServedEqualsDirect:
    def test_profiles_and_verification_match_across_engines(self):
        """On an Old RT build, whose warp launches run on the decoded
        fallback, and on a New RT build, where warp runs every team."""
        direct = {cell: _direct_app_run(cell[1], cell[0]) for cell in EXECUTED}
        with SimulationService() as svc:
            jobs = {
                (build, engine): svc.submit_app(APP, build=build, engine=engine)
                for build, engine in EXECUTED
            }
            for cell, job in jobs.items():
                served = job.result(timeout=600)
                profile, max_error = direct[cell]
                assert served.ok, served.report and served.report.to_dict()
                assert served.engine == cell[1]
                assert served.executed_engine == EXECUTED[cell]
                assert served.profile.to_dict() == profile
                assert served.payload == {"max_error": max_error}
                assert served.latency_s >= served.duration_s >= 0.0

    def test_served_minifmm_is_the_binary_the_matrix_runs(self):
        """minifmm's own build settings (its smaller device stack)
        apply to served runs too, not only to the build matrix."""
        direct = run_single("minifmm", build_options()[NEW_RT])
        with SimulationService() as svc:
            served = svc.submit_app("minifmm", build=NEW_RT).result(
                timeout=600)
        assert served.ok
        assert served.profile.to_dict() == direct.profile.to_dict()

    def test_concurrent_tenants_on_one_warm_pool_stay_identical(self):
        """4 client threads submit at once: one compile per fingerprint
        without per-fingerprint compile locks."""
        profile, max_error = _direct_app_run(ENGINE_DECODED)
        start = threading.Barrier(4)
        jobs = {}

        def tenant(t):
            start.wait()
            jobs[t] = [svc.submit_app(APP, build=BUILD, request_id=f"t{t}-{i}")
                       for i in range(2)]

        with SimulationService() as svc:
            threads = [threading.Thread(target=tenant, args=(t,))
                       for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert sorted(jobs) == [0, 1, 2, 3]
            for job in (job for tenant_jobs in jobs.values()
                        for job in tenant_jobs):
                served = job.result(timeout=600)
                assert served.ok
                assert served.profile.to_dict() == profile
                assert served.payload == {"max_error": max_error}
            assert svc.stats.to_dict()["compiles"] == 1

    def test_one_program_runs_on_one_warm_device(self):
        profile, max_error = _direct_app_run(ENGINE_DECODED)
        with SimulationService() as svc:
            jobs = [svc.submit_app(APP, build=BUILD) for _ in range(8)]
            for job in jobs:
                served = job.result(timeout=600)
                assert served.ok
                assert served.profile.to_dict() == profile
                assert served.payload == {"max_error": max_error}
            assert svc.pool.stats.builds == 1
            assert svc.pool.stats.reuses == 7

    def test_request_ids_round_trip_and_autogenerate(self):
        with SimulationService() as svc:
            tagged = svc.submit_app(APP, build=BUILD, request_id="mine")
            auto = svc.submit_app(APP, build=BUILD)
            assert tagged.result(timeout=600).request_id == "mine"
            generated = auto.result(timeout=600).request_id
            assert generated and generated.startswith("r")


class TestFaultParity:
    def test_injected_fault_fires_identically_served_and_direct(self):
        module = _malloc_module()
        spec = LaunchSpec(kernel="kern", faults="malloc_fail:n=2")
        gpu = VirtualGPU(module)
        with pytest.raises(Exception) as excinfo:
            gpu.run(spec)
        direct_report = CrashReport.from_exception(
            excinfo.value, kernel="kern", engine=gpu.engine,
            fault_plan=gpu.fault_plan_for(spec))
        with SimulationService() as svc:
            served = svc.run(spec, module=_malloc_module())
        assert not served.ok and served.profile is None
        assert served.report.error_type == "InjectedFault"
        assert served.report.comparable_dict() == \
            direct_report.comparable_dict()

    @pytest.mark.parametrize("on_device", [False, True])
    def test_crash_report_echoes_the_plan_the_run_used(self, on_device,
                                                       monkeypatch):
        # A plan in the spec is echoed like one the device was built
        # with, although run() restores the device's own plan before
        # the service builds the report.
        plan = "malloc_fail:n=1"
        if on_device:
            monkeypatch.setenv("REPRO_FAULTS", plan)
        spec = LaunchSpec(kernel="kern", faults=None if on_device else plan)
        with SimulationService() as svc:
            served = svc.run(spec, module=_malloc_module())
        assert not served.ok and served.report.error_type == "InjectedFault"
        assert served.report.fault_plan == FaultPlan.parse(plan).to_dict()

    def test_watchdog_expiry_is_an_isolated_failure_not_a_hang(self):
        spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                          deadline_s=0.05)
        with SimulationService() as svc:
            served = svc.run(spec, module=_barrier_loop_module(500_000))
            assert not served.ok
            assert served.report.error_type == "WatchdogExpired"
            # The worker (and its device slot) survive for the next tenant.
            ok = svc.run(LaunchSpec(kernel="kern", num_teams=1,
                                    threads_per_team=1, deadline_s=30.0),
                         module=_barrier_loop_module(3))
            assert ok.ok

    def test_one_tenants_fault_does_not_poison_others(self):
        with SimulationService() as svc:
            bad = svc.submit(LaunchSpec(kernel="kern",
                                        faults="malloc_fail:n=1"),
                             module=_malloc_module())
            good = svc.submit_app(APP, build=BUILD)
            assert not bad.result(timeout=600).ok
            assert good.result(timeout=600).ok
            assert svc.stats.to_dict()["failed"] == 1


def _ieee_edge_module():
    """kern(d, f): d[0] = pow(-2.0, 0.5); f[0] = exp.f32(100.0)."""
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL, PTR_GLOBAL),
                          arg_names=["d", "f"])
    b.store(b.intrinsic("llvm.pow.f64", [b.f64(-2.0), b.f64(0.5)]),
            func.args[0])
    b.store(b.intrinsic("llvm.exp.f32", [Constant(F32, 100.0)]), func.args[1])
    b.ret()
    verify_module(module)
    return module


class TestIEEEResults:
    def test_nan_and_f32_overflow_are_results_not_engine_faults(self):
        """Valid device code whose results are NaN and +inf completes on
        the first attempt and leaves every breaker uncharged."""

        def make_args(gpu, _compiled):
            return (gpu.alloc_array(np.zeros(1)),
                    gpu.alloc_array(np.zeros(1, np.float32)))

        def finalize(gpu, result):
            d, f = result.spec.args
            return (gpu.read_array(d, np.float64, 1)[0],
                    gpu.read_array(f, np.float32, 1)[0])

        with SimulationService() as svc:
            served = svc.run(LaunchSpec(kernel="kern"),
                             module=_ieee_edge_module(),
                             make_args=make_args, finalize=finalize)
            health = svc.health()
        assert served.ok, served.report and served.report.to_dict()
        assert served.retried is False
        d, f = served.payload
        assert np.isnan(d) and f == np.inf
        assert svc.stats.to_dict()["retried"] == 0
        assert all(b["failures"] == 0 for b in health["breakers"].values())


class TestBadPointerTag:
    def test_is_a_program_fault_not_an_internal_error(self):
        """A load through a pointer whose tag names no address space is
        the program's fault: served, it fails on the first attempt
        without a retry and leaves every breaker uncharged."""
        from tests.vgpu.test_errors_unified import bad_tag_module

        with SimulationService() as svc:
            served = svc.run(LaunchSpec(kernel="kern", args=((9 << 48) | 16, 5)),
                             module=bad_tag_module("load"))
            health = svc.health()
        assert not served.ok
        assert served.retried is False
        assert served.report.error_type == "MemoryError_"
        assert "has tag 9, which names no address space" in served.report.message
        assert svc.stats.to_dict()["internal_errors"] == 0
        assert all(b["failures"] == 0 for b in health["breakers"].values())

class TestTraceParity:
    @staticmethod
    def _device_timeline(collector):
        """Device-timeline events (vgpu + runtime cats), wall-clock
        stamps stripped — everything else must match bit-for-bit."""
        out = []
        for event in collector.events_snapshot():
            if event.get("cat") not in ("vgpu", "runtime"):
                continue
            out.append({k: v for k, v in event.items()
                        if k not in ("ts", "dur")})
        return out

    def test_served_requests_emit_the_direct_device_timeline(self):
        spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                          request_id="req-x")

        direct_collector = TraceCollector()
        with install(direct_collector):
            VirtualGPU(_barrier_loop_module(3)).run(spec)

        served_collector = TraceCollector()
        with install(served_collector):
            with SimulationService() as svc:
                served = svc.run(spec, module=_barrier_loop_module(3))
        assert served.ok
        direct_events = self._device_timeline(direct_collector)
        served_events = self._device_timeline(served_collector)
        assert direct_events == served_events
        # The request id reached the kernel span in both runs.
        kernel_args = [e.get("args", {}) for e in direct_events
                       if e.get("name", "").startswith("kernel")]
        assert any(a.get("request_id") == "req-x" for a in kernel_args)

    def test_serve_layer_spans_carry_the_request_id(self):
        collector = TraceCollector()
        with install(collector):
            with SimulationService() as svc:
                svc.run(LaunchSpec(kernel="kern", request_id="req-y"),
                        module=_barrier_loop_module(3))
        serve_events = [e for e in collector.events_snapshot()
                        if e.get("cat") == "serve"]
        names = {e["name"] for e in serve_events}
        assert "serve.submit" in names and "serve.request" in names
        assert all(e["args"]["request_id"] == "req-y" for e in serve_events)


class TestAdmissionControl:
    def test_saturated_service_rejects_with_structured_error(self):
        slow = _barrier_loop_module(500_000)
        with SimulationService(queue_depth=1) as svc:
            assert svc.capacity == 2
            # Fill the worker and the queue with deadline-bounded slow
            # requests, then the next submission must bounce.  Budgets
            # count from submit(): the second one outlasts the first.
            spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                              deadline_s=1.0)
            first = svc.submit(spec, module=slow)
            second = svc.submit(spec.replace(deadline_s=2.0), module=slow)
            with pytest.raises(AdmissionRejected) as excinfo:
                svc.submit(spec.replace(request_id="bounced"), module=slow)
            err = excinfo.value
            assert err.in_flight == 2 and err.capacity == 2
            assert err.request_id == "bounced"
            assert err.to_dict()["error"] == "AdmissionRejected"
            # The admitted requests still drain (the deadline bounds them).
            assert not first.result(timeout=600).ok
            assert not second.result(timeout=600).ok
            assert svc.stats.to_dict()["rejected"] == 1

    def test_closed_service_refuses_submissions(self):
        svc = SimulationService()
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(LaunchSpec(kernel="kern"),
                       module=_barrier_loop_module(3))

    def test_submit_needs_exactly_one_payload_source(self):
        with SimulationService() as svc:
            with pytest.raises(ValueError, match="exactly one"):
                svc.submit(LaunchSpec(kernel="kern"))


class TestDevicePool:
    def test_release_then_acquire_reuses_the_same_device(self):
        module = _barrier_loop_module(3)
        pool = DevicePool()
        gpu = pool.acquire(module)
        pool.release(gpu, module)
        again = pool.acquire(module)
        assert again is gpu
        assert pool.stats.builds == 1 and pool.stats.reuses == 1

    def test_reset_clears_per_request_allocations(self):
        import numpy as np

        module = _barrier_loop_module(3)
        pool = DevicePool()
        gpu = pool.acquire(module)
        baseline_brk = gpu.memory.global_seg.brk
        gpu.alloc_array(np.zeros(1024, dtype=np.int64))
        pool.release(gpu, module)
        warm = pool.acquire(module)
        assert warm is gpu
        assert warm.memory.global_seg.brk == baseline_brk

    @pytest.mark.parametrize("engine", [ENGINE_DECODED, ENGINE_WARP])
    def test_reused_device_serves_what_a_fresh_one_does(self, engine):
        """kern(out): out[tid] = atomic @g += 1 plus a shared and a local
        read — state a warm reset must rewind exactly."""
        from repro.ir import GlobalVariable
        from repro.memory.addrspace import AddressSpace

        module = Module("m")
        g = module.add_global(GlobalVariable("g", I64))
        tile = module.add_global(GlobalVariable(
            "tile", I64, addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        tid = b.sext(b.thread_id(), I64)
        slot = b.alloca(I64)
        b.store(tid, slot)
        b.atomic_rmw("add", tile, tid)
        b.aligned_barrier()
        old = b.atomic_rmw("add", g, b.i64(1))
        total = b.add(b.add(old, b.load(I64, tile)), b.load(I64, slot))
        b.store(total, b.array_gep(func.args[0], I64, tid))
        b.ret()
        verify_module(module)

        def make_args(gpu, compiled):
            return (gpu.alloc_array(np.zeros(32, dtype=np.int64)),)

        def finalize(gpu, result):
            return gpu.read_array(result.spec.args[0], np.int64, 32).tolist()

        spec = LaunchSpec(kernel="kern", threads_per_team=32, engine=engine)
        with SimulationService() as svc:
            fresh, reused = (
                svc.run(spec, module=module, make_args=make_args,
                        finalize=finalize)
                for _ in range(2))
            assert svc.pool.stats.builds == 1
            assert svc.pool.stats.reuses == 1
        assert fresh.ok and reused.ok
        assert reused.executed_engine == engine
        assert reused.profile.to_dict() == fresh.profile.to_dict()
        assert reused.payload == fresh.payload
        # tile sums the 32 thread ids (496); @g hands out 0..31.
        assert sorted(v - 496 - tid for tid, v in enumerate(fresh.payload)) \
            == list(range(32))

    def test_sanitized_devices_are_never_pooled(self):
        module = _barrier_loop_module(3)
        pool = DevicePool()
        gpu = pool.acquire(module, sanitize=True)
        pool.release(gpu, module)
        assert pool.idle_count() == 0
        assert pool.stats.discards == 1
        assert pool.acquire(module, sanitize=True) is not gpu

    def test_idle_shelf_is_bounded(self):
        """One idle device per key: a release into a taken slot is a
        discard, and the kept device is the one released first."""
        module = _barrier_loop_module(3)
        pool = DevicePool()
        a, b = pool.acquire(module), pool.acquire(module)
        pool.release(a, module)
        pool.release(b, module)
        assert pool.idle_count() == 1
        assert pool.stats.discards == 1
        assert pool.acquire(module) is a


def _empty_program(name):
    """A one-kernel program; distinct names give distinct fingerprints."""
    return A.Program(name, kernels=[A.KernelDef(
        "empty", params=[A.Param("n", I64)], trip_count=A.Arg("n"),
        body=[])])


def _run_empty(svc, program):
    def make_args(gpu, compiled):
        return compiled.abi("empty").marshal(gpu, {"n": 8})

    return svc.run(LaunchSpec(kernel="empty", threads_per_team=4),
                   program=program, options=CompileOptions(),
                   make_args=make_args)


class TestProgramTable:
    """The pool is the service's one table of per-program state: the
    program, its breaker and its idle device, bounded by
    ``REPRO_CACHE_SIZE`` and evicted least recently used first."""

    @staticmethod
    def _service():
        return SimulationService(
            session=ToolchainSession(cache=CompileCache(disk_dir=None)))

    def test_distinct_programs_stay_within_the_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SIZE", "4")
        programs = [_empty_program(f"table{i}") for i in range(10)]
        with self._service() as svc:
            for program in programs:
                assert _run_empty(svc, program).ok
            assert svc.stats.compiles == 10
            assert len(svc.pool) <= 4
            assert svc.pool.idle_count() <= 4
            assert len(svc.health()["breakers"]) <= 4
            reuses = svc.pool.stats.reuses
            # The most recent program keeps its row: no compile, and its
            # warm device is reused.
            assert _run_empty(svc, programs[-1]).ok
            assert svc.stats.compiles == 10
            assert svc.pool.stats.reuses == reuses + 1
            # The oldest was evicted with everything it held.
            assert _run_empty(svc, programs[0]).ok
            assert svc.stats.compiles == 11
            assert len(svc.pool) <= 4

    def test_a_row_holds_the_session_cache_entry(self):
        """A program is held once: the row's program is the session
        cache's own frozen entry, which a later compile returns."""
        from repro.toolchain.fingerprint import compile_fingerprint

        program = _empty_program("held-once")
        with self._service() as svc:
            assert _run_empty(svc, program).ok
            key = compile_fingerprint(program, CompileOptions())
            row = svc.pool.entry(key, lambda: pytest.fail("row evicted"))
            assert row.compiled.module.frozen
            assert svc.session.compile(program, CompileOptions()) is row.compiled
            assert svc.session.cache.stats.hits == 1

    def test_a_module_row_keeps_its_module_alive_until_evicted(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SIZE", "2")
        module = _barrier_loop_module(1)
        ref = weakref.ref(module)
        with self._service() as svc:
            assert svc.run(LaunchSpec(kernel="kern"), module=module).ok
            del module
            gc.collect()
            assert ref() is not None
            for _ in range(2):
                assert svc.run(LaunchSpec(kernel="kern"),
                               module=_barrier_loop_module(1)).ok
            gc.collect()
            assert ref() is None
            assert len(svc.pool) == 2

    def test_health_reads_the_table_while_the_worker_evicts(
            self, monkeypatch):
        """Client threads submit six programs through a two-row table
        while another thread polls health(); every request completes and
        the table's accounting balances."""
        monkeypatch.setenv("REPRO_CACHE_SIZE", "2")
        programs = [_empty_program(f"stress{i}") for i in range(6)]
        errors, snapshots = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._service() as svc:
                def client(c):
                    try:
                        for i in range(12):
                            assert _run_empty(svc, programs[(c + i) % 6]).ok
                    except BaseException as exc:
                        errors.append(exc)

                def poll():
                    try:
                        while any(t.is_alive() for t in clients):
                            snapshots.append(svc.health())
                    except BaseException as exc:
                        errors.append(exc)

                clients = [threading.Thread(target=client, args=(c,))
                           for c in range(4)]
                poller = threading.Thread(target=poll)
                for thread in clients + [poller]:
                    thread.start()
                for thread in clients + [poller]:
                    thread.join(60)
                assert not any(t.is_alive() for t in clients + [poller])
                pool = svc.pool.stats
                assert pool.in_use == 0
                assert pool.builds + pool.reuses == svc.stats.attempts == 48
                assert len(svc.pool) == 2
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert snapshots
        assert all(len(h["breakers"]) <= 2 for h in snapshots)


class TestKnobs:
    def test_service_reads_the_serve_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "3")
        svc = SimulationService()
        try:
            assert svc.capacity == 4  # the running request + the queue
        finally:
            svc.close()

    def test_only_one_worker(self):
        with pytest.raises(ValueError, match="one worker"):
            SimulationService(workers=2)

    @pytest.mark.parametrize("kwargs", [{"max_in_flight": 3},
                                        {"pool": DevicePool()},
                                        {"retry_policy": None}])
    def test_removed_service_options_are_type_errors(self, kwargs):
        with pytest.raises(TypeError):
            SimulationService(**kwargs)

    def test_pool_shelf_depth_is_not_an_option(self):
        with pytest.raises(TypeError):
            DevicePool(max_idle_per_key=4)

    def test_removed_env_knobs_are_not_registered(self):
        from repro import envconfig

        for name in ("REPRO_SERVE_WORKERS", "REPRO_SERVE_MAX_INFLIGHT",
                     "REPRO_SERVE_RETRIES", "REPRO_SERVE_BACKOFF_S",
                     "REPRO_WATCHDOG_S"):
            assert name not in envconfig.KNOBS


class TestSubmitCloseRace:
    def test_submit_refused_after_close_leaves_no_accounting(self,
                                                            monkeypatch):
        """close() shuts the executor down between submit()'s _closed
        check and its hand-off: the caller gets ServiceClosed, and the
        refused request is neither counted nor traced."""
        from repro.serve import service as service_mod

        svc = SimulationService()
        init = service_mod.ServeJob.__init__

        def init_then_shut_down(self, *args, **kwargs):
            init(self, *args, **kwargs)
            svc._executor.shutdown()

        monkeypatch.setattr(service_mod.ServeJob, "__init__",
                            init_then_shut_down)
        collector = TraceCollector()
        with install(collector):
            with pytest.raises(ServiceClosed):
                svc.submit(LaunchSpec(kernel="kern"),
                           module=_barrier_loop_module(3))
        svc.close()
        stats = svc.stats.to_dict()
        terminal = (stats["completed"] + stats["cancelled"]
                    + stats["shed_deadline"] + stats["shed_breaker"]
                    + stats["internal_errors"])
        assert stats["submitted"] == terminal == 0
        assert svc.health()["in_flight"] == 0
        assert not any(e.get("name") == "serve.submit"
                       for e in collector.events_snapshot())
