"""Resilience primitives and their service integration.

Units for :mod:`repro.serve.resilience` (deadline arithmetic, retry
backoff determinism, breaker state machine, drain-rate hints), then the
end-to-end promises: queue/compile expiry sheds structured
``DeadlineExceeded`` before wasting a worker, the *remaining* budget
becomes the device watchdog, the retry policy generalizes a one-shot
retry on a fresh per-op decoded device, and consecutive internal failures
open a per-program circuit that half-opens on the probe schedule.
"""

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
    RetryPolicy,
    SimulationService,
)
from repro.serve.resilience import (
    BreakerOpenSignal,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    clamp_watchdog,
)
from repro.ir import Module, verify_module
from tests.conftest import make_kernel

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


class TestClampWatchdog:
    def test_no_deadline_passes_watchdog_through(self):
        assert clamp_watchdog(3.0, None) == 3.0
        assert clamp_watchdog(None, None) is None

    def test_remaining_budget_wins_when_tighter(self):
        d = Deadline(10.0, start_s=time.monotonic() - 9.0)
        assert clamp_watchdog(5.0, d) < 1.5

    def test_watchdog_wins_when_tighter(self):
        assert clamp_watchdog(0.5, Deadline(100.0)) == 0.5

    def test_deadline_replaces_disabled_watchdog(self):
        clamped = clamp_watchdog(None, Deadline(2.0))
        assert clamped is not None and 0 < clamped <= 2.0
        assert clamp_watchdog(0, Deadline(2.0)) > 0

    def test_spent_budget_stays_positive(self):
        # 0 would mean "watchdog disabled" — a spent deadline must trip
        # the run immediately instead.
        spent = Deadline(0.1, start_s=time.monotonic() - 1.0)
        assert clamp_watchdog(None, spent) == pytest.approx(1e-3)


class TestRetryPolicy:
    def test_default_matches_legacy_one_shot_retry(self):
        """The default is one retry, without sleeping (the id predates
        the per-op decoded retry target)."""
        policy = RetryPolicy()
        assert policy.max_attempts == 2
        assert policy.delay_s(1, "r000001") == 0.0  # no sleep by default

    def test_should_retry_honours_attempt_budget_and_classes(self):
        policy = RetryPolicy(max_attempts=3, retryable=(RuntimeError,))
        assert policy.should_retry(RuntimeError("x"), 1)
        assert policy.should_retry(RuntimeError("x"), 2)
        assert not policy.should_retry(RuntimeError("x"), 3)
        assert not policy.should_retry(KeyError("x"), 1)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=9, backoff_base_s=0.1,
                             backoff_cap_s=0.5, jitter=0.0)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.4)
        assert policy.delay_s(4) == pytest.approx(0.5)  # capped
        assert policy.delay_s(8) == pytest.approx(0.5)

    def test_jitter_is_deterministic_per_token_and_attempt(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.1, jitter=0.5)
        a = policy.delay_s(1, "r000001")
        assert a == policy.delay_s(1, "r000001")  # replayable
        assert a != policy.delay_s(1, "r000002")  # spread across requests
        assert a != policy.delay_s(2, "r000001")  # and across attempts
        assert 0.05 <= a <= 0.15

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_base_s=-1)


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
                              watchdog_s=2.0)
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
            assert not blocker.result(timeout=60).ok  # watchdog-bounded

    def test_remaining_budget_becomes_the_device_watchdog(self):
        # In-run expiry surfaces as a structured WatchdogExpired crash
        # result — the device is aborted with whatever budget was left.
        with SimulationService() as svc:
            served = svc.run(LaunchSpec(kernel="kern", num_teams=2,
                                        threads_per_team=2, deadline_s=0.05),
                             module=_slow_module())
            assert not served.ok
            assert served.report.error_type == "WatchdogExpired"

    def test_deadline_tightens_but_never_loosens_the_watchdog(self):
        # An explicit watchdog tighter than the deadline stays in force.
        with SimulationService() as svc:
            served = svc.run(
                LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                           watchdog_s=0.05, deadline_s=30.0),
                module=_slow_module())
            assert not served.ok
            assert served.report.error_type == "WatchdogExpired"

    def test_generous_deadline_changes_nothing(self):
        with SimulationService() as svc:
            served = svc.run(LaunchSpec(kernel="kern", deadline_s=60.0),
                             module=_noop_module())
            assert served.ok and not served.retried


def _slow_module():
    from tests.serve.test_service import _barrier_loop_module

    return _barrier_loop_module(500_000)


class _Flaky:
    """make_args hook that raises *fail_first* times, then cooperates.

    A make_args failure is an *internal* service failure (not a program
    fault), which is exactly what the retry policy and breaker govern.
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
        with SimulationService() as svc:  # default policy
            result = svc.run(LaunchSpec(kernel="kern"),
                             module=_noop_module(), make_args=flaky)
            assert result.ok and result.retried
            assert result.report is not None  # the internal fault on record
            assert result.report.retry["error_type"] == "RuntimeError"
            stats = svc.stats.to_dict()
            assert stats["retried"] == 1 and stats["attempts"] == 2

    def test_exhausted_policy_raises_the_internal_error(self):
        flaky = _Flaky(fail_first=10)
        with SimulationService() as svc:
            job = svc.submit(LaunchSpec(kernel="kern"),
                             module=_noop_module(), make_args=flaky)
            with pytest.raises(RuntimeError, match="internal failure"):
                job.result(timeout=60)
            assert flaky.calls == 2  # default policy: two attempts
            assert svc.stats.to_dict()["internal_errors"] == 1

    def test_wider_policy_takes_more_attempts(self):
        flaky = _Flaky(fail_first=3)
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.001,
                             backoff_cap_s=0.002)
        with SimulationService(retry_policy=policy) as svc:
            result = svc.run(LaunchSpec(kernel="kern"),
                             module=_noop_module(), make_args=flaky)
            assert result.ok and result.retried
            assert flaky.calls == 4
            assert svc.stats.to_dict()["attempts"] == 4

    def test_single_attempt_policy_never_retries(self):
        flaky = _Flaky(fail_first=1)
        with SimulationService(
                retry_policy=RetryPolicy(max_attempts=1)) as svc:
            job = svc.submit(LaunchSpec(kernel="kern"),
                             module=_noop_module(), make_args=flaky)
            with pytest.raises(RuntimeError):
                job.result(timeout=60)
            assert flaky.calls == 1

    def test_backoff_respects_the_request_deadline(self):
        # The retry would have to sleep past the deadline: shed at the
        # retry stage instead of sleeping into certain expiry.
        flaky = _Flaky(fail_first=1)
        policy = RetryPolicy(max_attempts=2, backoff_base_s=30.0,
                             backoff_cap_s=30.0, jitter=0.0)
        with SimulationService(retry_policy=policy) as svc:
            job = svc.submit(LaunchSpec(kernel="kern", deadline_s=0.5),
                             module=_noop_module(), make_args=flaky)
            with pytest.raises(DeadlineExceeded) as excinfo:
                job.result(timeout=60)
            assert excinfo.value.stage == "retry"


class TestBreakerIntegration:
    POLICY = BreakerPolicy(threshold=2, cooldown_s=0.05)

    def _service(self):
        return SimulationService(
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_policy=self.POLICY,
        )

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
            assert flaky.calls == 2  # the shed request never ran

    def test_probe_closes_the_circuit_after_recovery(self):
        module = _noop_module()
        flaky = _Flaky(fail_first=2)  # recovered by probe time
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
            spec = LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                              watchdog_s=2.0)
            jobs = [svc.submit(spec, module=slow) for _ in range(3)]
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
