"""Graceful-drain semantics: close(), cancel(), and no silent drops.

The serving layer's lifecycle promise: ``close(wait=True)`` drains
in-flight work; a drain *deadline* bounds that wait by cancelling
whatever is still queued (structured :class:`RequestCancelled`, never a
hung future); :meth:`ServeJob.cancel` releases individual queued
requests and their admission slots; late submissions are refused with
:class:`ServiceClosed`; and crash reports of failed requests land
where configured.
"""

import threading
import time

import pytest

from repro.serve import (
    AdmissionRejected,
    DeadlineExceeded,
    LaunchSpec,
    RequestCancelled,
    ServiceClosed,
    SimulationService,
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


def _slow_module():
    from tests.serve.test_service import _barrier_loop_module

    return _barrier_loop_module(500_000)


def _blocker_spec(deadline_s=0.5):
    return LaunchSpec(kernel="kern", num_teams=2, threads_per_team=2,
                      deadline_s=deadline_s)


class TestClose:
    def test_default_close_drains_everything(self):
        svc = SimulationService()
        module = _noop_module()
        jobs = [svc.submit(LaunchSpec(kernel="kern"), module=module)
                for _ in range(4)]
        svc.close()
        assert all(job.result(timeout=60).ok for job in jobs)
        assert svc.stats.to_dict()["cancelled"] == 0

    def test_close_is_idempotent(self):
        svc = SimulationService()
        svc.close()
        svc.close(deadline_s=0.01)

    def test_late_submit_raises_service_closed(self):
        svc = SimulationService()
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(LaunchSpec(kernel="kern"), module=_noop_module())

    def test_drain_deadline_cancels_queued_work(self):
        svc = SimulationService(queue_depth=8)
        blocker = svc.submit(_blocker_spec(), module=_slow_module())
        queued = [svc.submit(LaunchSpec(kernel="kern", request_id=f"q{i}"),
                             module=_noop_module())
                  for i in range(3)]
        svc.close(deadline_s=0.05)
        # The running request drains (bounded by its own deadline)...
        assert blocker.result(timeout=60).report.error_type == \
            "WatchdogExpired"
        # ...while the queued ones resolve with a structured
        # cancellation instead of hanging or vanishing.
        cancelled = 0
        for job in queued:
            try:
                job.result(timeout=60)
            except (RequestCancelled, DeadlineExceeded):
                cancelled += 1
        assert cancelled == 3
        stats = svc.stats.to_dict()
        terminal = (stats["completed"] + stats["cancelled"]
                    + stats["shed_deadline"])
        assert stats["submitted"] == terminal

    def test_bounded_drain_cancels_each_queued_request_once(self):
        svc = SimulationService(queue_depth=8)
        blocker = svc.submit(_blocker_spec(), module=_slow_module())
        queued = [svc.submit(LaunchSpec(kernel="kern"),
                             module=_noop_module()) for _ in range(3)]
        svc.close(deadline_s=0.05)
        # The worker is still busy with the blocker when the drain
        # budget runs out: every queued request is cancelled, none shed.
        for job in queued:
            with pytest.raises(RequestCancelled):
                job.result(timeout=60)
            assert job.state == "cancelled"
            assert job.cancel() is False  # already cancelled by the drain
        assert not blocker.result(timeout=60).ok
        stats = svc.stats.to_dict()
        assert stats["cancelled"] == 3 and stats["shed_deadline"] == 0
        assert svc.health()["in_flight"] == 0

    def test_drain_deadline_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "0.05")
        svc = SimulationService(queue_depth=8)
        svc.submit(_blocker_spec(), module=_slow_module())
        queued = svc.submit(LaunchSpec(kernel="kern"), module=_noop_module())
        svc.close()  # no explicit deadline: the env knob bounds it
        with pytest.raises((RequestCancelled, DeadlineExceeded)):
            queued.result(timeout=60)


class TestCancel:
    def test_cancel_queued_request_releases_its_slot(self):
        with SimulationService(queue_depth=1) as svc:
            blocker = svc.submit(_blocker_spec(), module=_slow_module())
            queued = svc.submit(LaunchSpec(kernel="kern", request_id="victim"),
                                module=_noop_module())
            assert svc.capacity == 2  # saturated: next submit would bounce
            assert queued.cancel() is True
            assert queued.cancel() is False  # idempotent, reports once
            with pytest.raises(RequestCancelled) as excinfo:
                queued.result(timeout=60)
            assert excinfo.value.request_id == "victim"
            assert svc.stats.to_dict()["cancelled"] == 1
            # The admission slot came back: this submit must not bounce.
            replacement = svc.submit(LaunchSpec(kernel="kern"),
                                     module=_noop_module())
            assert blocker.result(timeout=60) is not None
            assert replacement.result(timeout=60).ok

    def test_cancel_after_completion_returns_false(self):
        with SimulationService() as svc:
            job = svc.submit(LaunchSpec(kernel="kern"), module=_noop_module())
            assert job.result(timeout=60).ok
            assert job.cancel() is False
            assert svc.stats.to_dict()["cancelled"] == 0

    def test_job_state_machine(self):
        with SimulationService() as svc:
            done = svc.submit(LaunchSpec(kernel="kern"), module=_noop_module())
            done.result(timeout=60)
            assert done.state == "done" and not done.cancelled
            blocker = svc.submit(_blocker_spec(), module=_slow_module())
            queued = svc.submit(LaunchSpec(kernel="kern"),
                                module=_noop_module())
            assert queued.state == "queued"
            queued.cancel()
            assert queued.state == "cancelled" and queued.cancelled
            blocker.result(timeout=60)

    def test_running_request_cannot_be_cancelled(self):
        with SimulationService() as svc:
            running = svc.submit(_blocker_spec(0.2), module=_slow_module())
            while running.state == "queued":
                time.sleep(0.001)
            assert running.state == "running"
            assert running.cancel() is False
            assert running.result(timeout=60).report.error_type == \
                "WatchdogExpired"
            assert svc.stats.to_dict()["cancelled"] == 0

    def test_cancel_racing_the_worker_resolves_exactly_one_way(self):
        """cancel() right after submit() races the worker's pick-up of
        the same request.  Each request resolves one way only: either
        it is cancelled (never runs, its slot is released) or cancel()
        loses and it runs to completion."""
        module = _noop_module()
        outcomes = []
        with SimulationService(queue_depth=1) as svc:
            for i in range(200):
                ran = []
                job = svc.submit(
                    LaunchSpec(kernel="kern", request_id=f"race-{i}"),
                    module=module,
                    make_args=lambda gpu, compiled, ran=ran: ran.append(1)
                    or ())
                if i % 2:
                    time.sleep(0)  # hand the worker the GIL: it may win
                won = job.cancel()
                if won:
                    # The slot is free as soon as cancel() returns.
                    assert svc.health()["in_flight"] == 0
                    with pytest.raises(RequestCancelled):
                        job.result(timeout=60)
                    assert job.state == "cancelled"
                else:
                    assert job.result(timeout=60).ok
                    assert job.state == "done" and not job.cancelled
                outcomes.append((won, ran))
            health = svc.health()
        cancelled = sum(won for won, _ in outcomes)
        # A cancelled request never ran; one that lost the race ran once.
        assert all(ran == ([] if won else [1]) for won, ran in outcomes)
        stats = svc.stats.to_dict()
        assert stats["cancelled"] == cancelled
        assert stats["completed"] == 200 - cancelled
        assert health["in_flight"] == 0 and health["queued"] == 0


class TestConcurrentDrain:
    def test_no_request_is_silently_dropped_under_racing_close(self):
        """Submitters racing a deadline-bounded close: every accepted
        job resolves (result or structured error), every refused submit
        raises a structured error, and the counters balance."""
        svc = SimulationService(queue_depth=16)
        module = _noop_module()
        accepted = []
        refused = []
        lock = threading.Lock()

        def submitter(t):
            for i in range(10):
                try:
                    job = svc.submit(
                        LaunchSpec(kernel="kern", request_id=f"s{t}-{i:02d}"),
                        module=module)
                    with lock:
                        accepted.append(job)
                except (ServiceClosed, AdmissionRejected) as exc:
                    with lock:
                        refused.append(type(exc).__name__)

        threads = [threading.Thread(target=submitter, args=(t,))
                   for t in range(4)]
        for th in threads:
            th.start()
        svc.close(deadline_s=0.05)
        for th in threads:
            th.join()

        outcomes = {"ok": 0, "cancelled": 0, "shed": 0}
        for job in accepted:
            try:
                assert job.result(timeout=60).ok
                outcomes["ok"] += 1
            except RequestCancelled:
                outcomes["cancelled"] += 1
            except DeadlineExceeded:
                outcomes["shed"] += 1
        # Everything is accounted for: accepted == resolved, and the
        # service's own books agree.
        assert sum(outcomes.values()) == len(accepted)
        stats = svc.stats.to_dict()
        assert stats["submitted"] == len(accepted)
        terminal = (stats["completed"] + stats["cancelled"]
                    + stats["shed_deadline"] + stats["shed_breaker"]
                    + stats["internal_errors"])
        assert stats["submitted"] == terminal
        assert stats["rejected"] == len(
            [r for r in refused if r == "AdmissionRejected"])


class TestCrashReportPlacement:
    def test_failed_requests_save_reports_under_report_dir(self, tmp_path):
        from tests.serve.test_service import _malloc_module

        report_dir = str(tmp_path / "crash-reports")
        with SimulationService(save_reports=True,
                               report_dir=report_dir) as svc:
            result = svc.run(LaunchSpec(kernel="kern",
                                        faults="malloc_fail:n=1"),
                             module=_malloc_module())
        assert not result.ok
        assert result.report_path is not None
        assert result.report_path.startswith(report_dir)
        reports = list((tmp_path / "crash-reports").glob("*.json"))
        assert len(reports) == 1

    def test_default_report_dir_is_the_cache_crash_reports_dir(self):
        from repro.faults.report import default_report_dir
        from tests.serve.test_service import _malloc_module

        with SimulationService(save_reports=True) as svc:
            result = svc.run(LaunchSpec(kernel="kern",
                                        faults="malloc_fail:n=1"),
                             module=_malloc_module())
        # The session fixture points REPRO_CACHE_DIR at a tmpdir, so
        # this lands in <tmp cache>/crash-reports/ — the documented
        # .repro-cache/crash-reports/ location in a real checkout.
        assert result.report_path.startswith(default_report_dir())
