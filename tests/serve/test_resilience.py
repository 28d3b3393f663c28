"""Resilience primitives and their service integration.

Units for :mod:`repro.serve.resilience` (deadline arithmetic, breaker
state machine, drain-rate hints), then the end-to-end promises:
queue/compile expiry sheds structured ``DeadlineExceeded`` before
wasting the worker, the *remaining* budget becomes the launch's own
``deadline_s``, an internal failure reruns once on a fresh per-op
decoded device, and consecutive internal failures open a per-program
circuit that half-opens on the probe schedule.
"""

import os
import threading
import time

import pytest

from repro.serve import (
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    DrainRateTracker,
    LaunchSpec,
    SimulationService,
)
from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions
from repro.ir.types import I64
from repro.serve.resilience import (
    BreakerOpenSignal,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.ir import Module, verify_module
from repro.vgpu import ENGINE_DECODED, ENGINE_WARP
from tests.conftest import make_kernel
from tests.serve.chaos import InjectedWorkerDeath

pytestmark = pytest.mark.serve


def _noop_module():
    module = Module("m")
    _, b = make_kernel(module, params=())
    b.ret()
    verify_module(module)
    return module


class TestDeadline:
    def test_budget_arithmetic(self):
        d = Deadline(10.0, start_s=time.monotonic() - 4.0)
        assert 3.9 < d.elapsed_s() < 4.5
        assert 5.5 < d.remaining_s() < 6.1
        assert not d.expired()

    def test_expiry_and_clamped_remaining(self):
        d = Deadline(1.0, start_s=time.monotonic() - 2.0)
        assert d.expired()
        assert d.remaining_s() == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_s"):
            Deadline(-0.1)

    def test_combine_picks_the_tightest(self):
        now = time.monotonic()
        loose = Deadline(10.0, start_s=now)
        tight = Deadline(1.0, start_s=now)
        assert Deadline.combine(loose, tight) is tight
        assert Deadline.combine(None, loose, None) is loose
        assert Deadline.combine(None, None) is None

    def test_combine_accounts_for_start_times(self):
        # A 5s budget started 4.5s ago is tighter than a fresh 2s one.
        old = Deadline(5.0, start_s=time.monotonic() - 4.5)
        fresh = Deadline(2.0)
        assert Deadline.combine(old, fresh) is old


class TestCircuitBreaker:
    POLICY = BreakerPolicy(threshold=3, cooldown_s=0.05)

    def test_closed_below_threshold(self):
        brk = CircuitBreaker("k", self.POLICY)
        assert not brk.record_failure()
        assert not brk.record_failure()
        assert brk.state() == STATE_CLOSED
        brk.admit()  # no raise

    def test_opens_at_threshold_and_sheds(self):
        brk = CircuitBreaker("k", self.POLICY)
        brk.record_failure()
        brk.record_failure()
        assert brk.record_failure()  # the opening transition
        assert brk.state() == STATE_OPEN and brk.opens == 1
        with pytest.raises(BreakerOpenSignal) as excinfo:
            brk.admit()
        sig = excinfo.value
        assert sig.key == "k" and sig.failures == 3
        assert sig.retry_after_s is not None and sig.retry_after_s > 0

    def test_success_resets_the_failure_streak(self):
        brk = CircuitBreaker("k", self.POLICY)
        brk.record_failure()
        brk.record_failure()
        brk.record_success()
        brk.record_failure()
        brk.record_failure()
        assert brk.state() == STATE_CLOSED  # streak broken, not cumulative

    def test_half_open_admits_one_probe(self):
        brk = CircuitBreaker("k", self.POLICY)
        for _ in range(3):
            brk.record_failure()
        time.sleep(self.POLICY.cooldown_s * 1.5)
        brk.admit()  # the probe
        assert brk.state() == STATE_HALF_OPEN
        with pytest.raises(BreakerOpenSignal):
            brk.admit()  # a second caller while the probe is live
        brk.record_success()
        assert brk.state() == STATE_CLOSED
        brk.admit()

    def test_failed_probe_reopens(self):
        brk = CircuitBreaker("k", self.POLICY)
        for _ in range(3):
            brk.record_failure()
        time.sleep(self.POLICY.cooldown_s * 1.5)
        brk.admit()
        assert brk.record_failure("/tmp/report.json")  # probe failed
        assert brk.state() == STATE_OPEN and brk.opens == 2
        assert brk.to_dict()["report_path"] == "/tmp/report.json"

    def test_threshold_zero_disables(self):
        policy = BreakerPolicy(threshold=0)
        assert not policy.enabled
        brk = CircuitBreaker("k", policy)
        for _ in range(10):
            assert not brk.record_failure()
        brk.admit()


class TestDrainRateTracker:
    def test_cold_tracker_gives_the_fixed_hint(self):
        tracker = DrainRateTracker()
        assert tracker.rate_per_s() is None
        assert tracker.retry_after_s() == DrainRateTracker.COLD_HINT_S

    def test_rate_and_hint_from_observed_completions(self):
        tracker = DrainRateTracker()
        t0 = 100.0
        for i in range(5):  # one completion every 10ms => 100/s
            tracker.record_completion(stamp=t0 + i * 0.01)
        assert tracker.rate_per_s() == pytest.approx(100.0)
        assert tracker.retry_after_s(backlog=1) == pytest.approx(0.01)
        assert tracker.retry_after_s(backlog=10) == pytest.approx(0.1)

    def test_hint_is_clamped(self):
        tracker = DrainRateTracker()
        tracker.record_completion(stamp=100.0)
        tracker.record_completion(stamp=100.0001)
        assert tracker.retry_after_s() >= DrainRateTracker.MIN_HINT_S
        slow = DrainRateTracker()
        slow.record_completion(stamp=100.0)
        slow.record_completion(stamp=200.0)
        assert slow.retry_after_s() == DrainRateTracker.MAX_HINT_S


class TestDeadlinePropagation:
    def test_spent_budget_sheds_in_queue_with_structure(self):
        with SimulationService() as svc:
            job = svc.submit(LaunchSpec(kernel="kern", deadline_s=0.0,
                                        request_id="doomed"),
                             module=_noop_module())
            with pytest.raises(DeadlineExceeded) as excinfo:
                job.result(timeout=60)
            err = excinfo.value
            assert err.stage == "queue"
            assert err.budget_s == 0.0 and err.elapsed_s >= 0.0
            assert err.request_id == "doomed"
            assert err.retry_after_s is not None and err.retry_after_s > 0
            assert err.to_dict()["error"] == "DeadlineExceeded"
            assert svc.stats.to_dict()["shed_deadline"] == 1

    def test_queued_requests_behind_slow_work_are_shed(self):
        slow = _slow_module()
        with SimulationService(queue_depth=8) as svc:
            spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                              deadline_s=2.0)
            blocker = svc.submit(spec, module=slow)
            doomed = [svc.submit(
                LaunchSpec(kernel="kern", deadline_s=0.01,
                           request_id=f"d{i}"),
                module=_noop_module()) for i in range(3)]
            shed = 0
            for job in doomed:
                try:
                    job.result(timeout=60)
                except DeadlineExceeded as exc:
                    assert exc.stage in ("queue", "compile")
                    shed += 1
            assert shed == 3  # 10ms budgets cannot survive the blocker
            assert not blocker.result(timeout=60).ok  # deadline-bounded

    def test_remaining_budget_becomes_the_device_watchdog(self):
        # In-run expiry surfaces as a structured WatchdogExpired crash
        # result — the launch is aborted with whatever budget was left.
        with SimulationService() as svc:
            served = svc.run(LaunchSpec(kernel="kern", num_teams=2,
                                        threads_per_team=2, deadline_s=0.05),
                             module=_slow_module())
            assert not served.ok
            assert served.report.error_type == "WatchdogExpired"
            # The launch ran on what was left, never the original.
            assert served.spec.deadline_s < 0.05

    def test_generous_deadline_changes_nothing(self):
        with SimulationService() as svc:
            served = svc.run(LaunchSpec(kernel="kern", deadline_s=60.0),
                             module=_noop_module())
            assert served.ok and not served.retried

    def test_no_deadline_launches_without_a_budget(self):
        with SimulationService() as svc:
            served = svc.run(LaunchSpec(kernel="kern"), module=_noop_module())
            assert served.ok and served.spec.deadline_s is None

    def test_successful_launch_ran_on_the_remaining_budget(self):
        with SimulationService() as svc:
            job = svc.submit(LaunchSpec(kernel="kern", deadline_s=60.0),
                             module=_noop_module())
            served = job.result(timeout=60)
            assert served.ok
            assert job.spec.deadline_s == 60.0  # the request keeps its own
            assert 0 < served.spec.deadline_s < 60.0

    def test_budget_counts_from_submit_including_the_queue_wait(self):
        with SimulationService() as svc:
            blocker = svc.submit(LaunchSpec(kernel="kern", num_teams=2,
                                            threads_per_team=2,
                                            deadline_s=0.3),
                                 module=_slow_module())
            queued = svc.submit(LaunchSpec(kernel="kern", deadline_s=5.0),
                                module=_noop_module())
            assert not blocker.result(timeout=60).ok
            served = queued.result(timeout=60)
            assert served.ok
            # The ~0.3 s spent queued behind the blocker was charged.
            assert served.spec.deadline_s < 5.0 - 0.25


def _slow_module():
    from tests.serve.test_service import _barrier_loop_module

    return _barrier_loop_module(500_000)


class _Flaky:
    """make_args hook that raises *fail_first* times, then cooperates.

    A make_args failure is an *internal* service failure (not a program
    fault), which is exactly what the fallback run and breaker govern.
    """

    def __init__(self, fail_first, exc=RuntimeError):
        self.fail_first = fail_first
        self.exc = exc
        self.calls = 0

    def __call__(self, gpu, compiled):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise self.exc(f"injected internal failure #{self.calls}")
        return ()


class TestRetryIntegration:
    def test_one_internal_failure_retries_and_succeeds(self):
        flaky = _Flaky(fail_first=1)
        with SimulationService() as svc:
            result = svc.run(LaunchSpec(kernel="kern"),
                             module=_noop_module(), make_args=flaky)
            assert result.ok and result.retried
            assert result.report is not None  # the internal fault on record
            assert result.report.retry["error_type"] == "RuntimeError"
            stats = svc.stats.to_dict()
            assert stats["retried"] == 1 and stats["attempts"] == 2

    def test_failed_fallback_raises_the_internal_error(self):
        flaky = _Flaky(fail_first=10)
        with SimulationService() as svc:
            job = svc.submit(LaunchSpec(kernel="kern"),
                             module=_noop_module(), make_args=flaky)
            with pytest.raises(RuntimeError, match="internal failure #2"):
                job.result(timeout=60)
            assert flaky.calls == 2  # the launch and its one fallback
            stats = svc.stats.to_dict()
            assert stats["internal_errors"] == 1 and stats["attempts"] == 2

    def test_fallback_runs_on_a_fresh_per_op_decoded_device(self):
        devices = []

        def make_args(gpu, compiled):
            devices.append(gpu)
            if len(devices) == 1:
                raise RuntimeError("injected internal failure")
            return ()

        module = _noop_module()
        with SimulationService() as svc:
            result = svc.run(LaunchSpec(kernel="kern", engine="warp"),
                             module=module, make_args=make_args)
            assert result.ok and result.retried
            first, fallback = devices
            assert fallback is not first and fallback._per_op
            assert result.engine == ENGINE_DECODED
            assert result.spec.engine == ENGINE_DECODED
            assert result.report.retry["from_engine"] == ENGINE_WARP
            assert result.report.retry["to_engine"] == ENGINE_DECODED
            # The device that failed internally is never reused.
            svc.run(LaunchSpec(kernel="kern"), module=module,
                    make_args=make_args)
            assert devices[2] is not first and devices[2] is not fallback
            assert svc.pool.stats.discards == 1

    def test_fallback_launch_gets_the_remaining_budget(self):
        flaky = _Flaky(fail_first=1)
        with SimulationService() as svc:
            result = svc.run(LaunchSpec(kernel="kern", deadline_s=60.0),
                             module=_noop_module(), make_args=flaky)
            assert result.ok and result.retried
            assert 0 < result.spec.deadline_s < 60.0

    def test_program_fault_is_not_rerun(self):
        from tests.serve.test_service import _malloc_module

        with SimulationService() as svc:
            result = svc.run(LaunchSpec(kernel="kern",
                                        faults="malloc_fail:n=1"),
                             module=_malloc_module())
            assert not result.ok and not result.retried
            assert result.report.retry is None
            stats = svc.stats.to_dict()
            assert stats["attempts"] == 1 and stats["retried"] == 0

    def test_program_fault_in_the_fallback_is_an_isolated_result(self):
        from tests.serve.test_service import _malloc_module

        flaky = _Flaky(fail_first=1)
        with SimulationService() as svc:
            result = svc.run(LaunchSpec(kernel="kern",
                                        faults="malloc_fail:n=1"),
                             module=_malloc_module(), make_args=flaky)
            assert not result.ok and result.retried
            assert result.report.retry["error_type"] == "RuntimeError"
            stats = svc.stats.to_dict()
            assert stats["failed"] == 1 and stats["retried"] == 1
            assert stats["internal_errors"] == 0

    def test_successful_fallback_saves_the_internal_fault(self, tmp_path):
        report_dir = str(tmp_path / "crash-reports")
        flaky = _Flaky(fail_first=1)
        with SimulationService(save_reports=True,
                               report_dir=report_dir) as svc:
            result = svc.run(LaunchSpec(kernel="kern"),
                             module=_noop_module(), make_args=flaky)
        assert result.ok and result.retried
        assert result.report_path.startswith(report_dir)
        assert len(list((tmp_path / "crash-reports").glob("*.json"))) == 1


class TestBreakerIntegration:
    POLICY = BreakerPolicy(threshold=2, cooldown_s=0.05)

    def _service(self):
        return SimulationService(breaker_policy=self.POLICY)

    def test_consecutive_failures_open_and_shed(self):
        module = _noop_module()
        flaky = _Flaky(fail_first=100)
        with self._service() as svc:
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    svc.run(LaunchSpec(kernel="kern"), module=module,
                            make_args=flaky)
            with pytest.raises(CircuitOpen) as excinfo:
                svc.run(LaunchSpec(kernel="kern", request_id="shed-me"),
                        module=module, make_args=flaky)
            err = excinfo.value
            assert err.failures == 2
            assert err.request_id == "shed-me"
            assert err.retry_after_s is not None and err.retry_after_s > 0
            assert err.key.startswith("module:")
            stats = svc.stats.to_dict()
            assert stats["shed_breaker"] == 1
            assert stats["breaker_opens"] == 1
            # Two launches per failed request; the shed one never ran.
            assert flaky.calls == 4

    def test_circuit_open_names_the_last_failure_report(self, tmp_path):
        """With saving on, each terminal internal failure saves a
        CrashReport; the open breaker and its ``CircuitOpen`` point at
        the last one."""
        report_dir = str(tmp_path / "crash-reports")
        module = _noop_module()
        flaky = _Flaky(fail_first=100)
        with SimulationService(breaker_policy=self.POLICY,
                               save_reports=True,
                               report_dir=report_dir) as svc:
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    svc.run(LaunchSpec(kernel="kern"), module=module,
                            make_args=flaky)
            with pytest.raises(CircuitOpen) as excinfo:
                svc.run(LaunchSpec(kernel="kern"), module=module,
                        make_args=flaky)
            (breaker,) = svc.health()["breakers"].values()
        path = excinfo.value.report_path
        assert path is not None and path.startswith(report_dir)
        assert os.path.isfile(path)
        assert breaker["report_path"] == path

    def test_no_report_is_written_when_saving_is_off(self, tmp_path):
        """Saving is opt-in: without it a terminal internal failure
        writes nothing, and the shed carries no report path."""
        report_dir = tmp_path / "crash-reports"
        module = _noop_module()
        flaky = _Flaky(fail_first=100)
        with SimulationService(breaker_policy=self.POLICY,
                               report_dir=str(report_dir)) as svc:
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    svc.run(LaunchSpec(kernel="kern"), module=module,
                            make_args=flaky)
            with pytest.raises(CircuitOpen) as excinfo:
                svc.run(LaunchSpec(kernel="kern"), module=module,
                        make_args=flaky)
            (breaker,) = svc.health()["breakers"].values()
        assert excinfo.value.report_path is None
        assert breaker["report_path"] is None
        assert not report_dir.exists()

    def test_probe_closes_the_circuit_after_recovery(self):
        module = _noop_module()
        flaky = _Flaky(fail_first=4)  # recovered by probe time
        with self._service() as svc:
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    svc.run(LaunchSpec(kernel="kern"), module=module,
                            make_args=flaky)
            time.sleep(self.POLICY.cooldown_s * 1.5)
            probe = svc.run(LaunchSpec(kernel="kern"), module=module,
                            make_args=flaky)
            assert probe.ok
            after = svc.run(LaunchSpec(kernel="kern"), module=module,
                            make_args=flaky)
            assert after.ok
            assert svc.health()["breakers_open"] == 0

    def test_breakers_are_per_module(self):
        poisoned, healthy = _noop_module(), _noop_module()
        flaky = _Flaky(fail_first=100)
        with self._service() as svc:
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    svc.run(LaunchSpec(kernel="kern"), module=poisoned,
                            make_args=flaky)
            # The poisoned module's circuit is open...
            with pytest.raises(CircuitOpen):
                svc.run(LaunchSpec(kernel="kern"), module=poisoned,
                        make_args=flaky)
            # ...but an unrelated module is untouched.
            assert svc.run(LaunchSpec(kernel="kern"), module=healthy).ok

    def test_probe_shed_before_launch_does_not_wedge_the_breaker(self, chaos):
        """Only a request that launches may hold the half-open probe.
        The would-be probe here outlives its deadline in the shared
        compile and is shed there; the next request must become the
        probe and close the circuit instead of being shed with
        CircuitOpen for good."""
        program = A.Program("wedge", kernels=[A.KernelDef(
            "empty", params=[A.Param("n", I64)], trip_count=A.Arg("n"),
            body=[])])

        def make_args(gpu, compiled):
            return compiled.abi("empty").marshal(gpu, {"n": 8})

        with SimulationService(
                breaker_policy=BreakerPolicy(threshold=1,
                                             cooldown_s=0.01)) as svc:
            chaos(svc, worker_die=2, slow_request_ms=50)

            def submit(**overrides):
                spec = LaunchSpec(kernel="empty", threads_per_team=4,
                                  **overrides)
                return svc.submit(spec, program=program,
                                  options=CompileOptions(),
                                  make_args=make_args)

            # The launch and its fallback both die: the breaker opens.
            with pytest.raises(InjectedWorkerDeath):
                submit().result(timeout=60)
            with pytest.raises(DeadlineExceeded) as excinfo:
                submit(deadline_s=0.02).result(timeout=60)
            assert excinfo.value.stage == "compile"
            for _ in range(3):
                assert submit().result(timeout=60).ok
            (breaker,) = svc.health()["breakers"].values()
            assert breaker["state"] == STATE_CLOSED
            assert svc.stats.to_dict()["shed_breaker"] == 0

    def test_program_faults_never_trip_the_breaker(self):
        from tests.serve.test_service import _malloc_module

        with self._service() as svc:
            module = _malloc_module()
            spec = LaunchSpec(kernel="kern", faults="malloc_fail:n=1")
            for _ in range(4):  # far past the threshold
                result = svc.run(spec, module=module)
                assert not result.ok  # isolated program fault each time
            assert svc.stats.to_dict()["breaker_opens"] == 0
            assert svc.health()["breakers_open"] == 0


class TestHealth:
    def test_health_snapshot_shape_and_liveness(self):
        with SimulationService() as svc:
            svc.run(LaunchSpec(kernel="kern"), module=_noop_module())
            health = svc.health()
        assert health["closed"] in (False, True)
        assert "workers" not in health
        assert health["workers_alive"] >= 1
        assert health["in_flight"] == 0 and health["queued"] == 0
        assert health["capacity"] == svc.capacity
        assert isinstance(health["breakers"], dict)
        assert health["retry_after_s"] > 0
        assert health["stats"]["completed"] == 1
        assert health["pool"]["in_use"] == 0  # everything returned

    def test_health_reports_queue_pressure(self):
        slow = _slow_module()
        with SimulationService(queue_depth=4) as svc:
            # Budgets count from submit(): staggered so each request
            # gets about 0.5 s on the device after waiting its turn.
            jobs = [svc.submit(LaunchSpec(kernel="kern", num_teams=2,
                                          threads_per_team=2,
                                          deadline_s=0.5 * (i + 1)),
                               module=slow) for i in range(3)]
            health = svc.health()
            assert health["in_flight"] == 3
            assert health["queued"] >= 1  # one running, rest waiting
            for job in jobs:
                job.result(timeout=60)

    def test_health_counter_lands_on_the_trace(self):
        from repro.trace.collector import TraceCollector, install

        collector = TraceCollector()
        with install(collector):
            with SimulationService() as svc:
                svc.run(LaunchSpec(kernel="kern"), module=_noop_module())
                svc.health()
        counters = [e for e in collector.events_snapshot()
                    if e.get("name") == "serve.health"]
        assert counters and counters[-1]["args"]["in_flight"] == 0
