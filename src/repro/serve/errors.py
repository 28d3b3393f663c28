"""Structured errors raised at the serving layer.

These are *host-side* failures of the service machinery (admission,
deadlines, circuit breaking, lifecycle), deliberately disjoint from the
simulator's :class:`~repro.vgpu.errors.SimulationError` hierarchy: a
rejected or shed request never gets far enough to have device context.

Every shed error that a polite client could usefully retry carries a
``retry_after_s`` hint, computed by the service from its current queue
drain rate (or, for an open breaker, from the probe schedule) — load
generators back off on the hint instead of guessing.
"""

from __future__ import annotations

from typing import Optional


class ServeError(RuntimeError):
    """Base class for serve-layer failures."""


class AdmissionRejected(ServeError):
    """The service is saturated: the request was refused at submission.

    Carries the admission state so load generators and clients can make
    structured back-off decisions instead of parsing a message.
    """

    def __init__(
        self,
        message: str,
        *,
        in_flight: int,
        capacity: int,
        request_id: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.in_flight = in_flight
        self.capacity = capacity
        self.request_id = request_id
        self.retry_after_s = retry_after_s

    def to_dict(self) -> dict:
        return {
            "error": "AdmissionRejected",
            "in_flight": self.in_flight,
            "capacity": self.capacity,
            "request_id": self.request_id,
            "retry_after_s": self.retry_after_s,
        }


class ServiceClosed(ServeError):
    """The service has been shut down; no further submissions accepted."""


class DeadlineExceeded(ServeError):
    """The request's ``deadline_s`` budget expired before it could run.

    ``stage`` names where the budget ran out: ``"queue"`` (expired
    while admitted-but-waiting — the request was shed before wasting
    the worker) or ``"compile"`` (the shared compile consumed the
    budget).  An expiry *during* device execution surfaces as an
    ``ok=False`` :class:`~repro.vgpu.errors.WatchdogExpired` result
    instead — the launch runs with the remaining budget as its own
    ``deadline_s``.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str,
        budget_s: float,
        elapsed_s: float,
        request_id: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s
        self.request_id = request_id
        self.retry_after_s = retry_after_s

    def to_dict(self) -> dict:
        return {
            "error": "DeadlineExceeded",
            "stage": self.stage,
            "budget_s": self.budget_s,
            "elapsed_s": round(self.elapsed_s, 6),
            "request_id": self.request_id,
            "retry_after_s": self.retry_after_s,
        }


class CircuitOpen(ServeError):
    """The (program, options) circuit breaker is open: shed fast.

    Carries the breaker key, the consecutive-internal-failure count
    that opened it, the crash-report path of the failure that probably
    explains it (when report saving is enabled), and when the next
    half-open probe is due.
    """

    def __init__(
        self,
        message: str,
        *,
        key: str,
        failures: int,
        report_path: Optional[str] = None,
        request_id: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.key = key
        self.failures = failures
        self.report_path = report_path
        self.request_id = request_id
        self.retry_after_s = retry_after_s

    def to_dict(self) -> dict:
        return {
            "error": "CircuitOpen",
            "key": self.key,
            "failures": self.failures,
            "report_path": self.report_path,
            "request_id": self.request_id,
            "retry_after_s": self.retry_after_s,
        }


class RequestCancelled(ServeError):
    """The request was cancelled while still queued (``ServeJob.
    cancel()`` or a drain deadline) and will never execute."""

    def __init__(self, message: str, *,
                 request_id: Optional[str] = None) -> None:
        super().__init__(message)
        self.request_id = request_id

    def to_dict(self) -> dict:
        return {"error": "RequestCancelled", "request_id": self.request_id}
