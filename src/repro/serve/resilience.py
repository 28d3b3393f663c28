"""Resilience primitives for the serving layer.

Three small, independently testable pieces that
:class:`~repro.serve.SimulationService` composes:

* :class:`Deadline` — a request's wall-clock budget, created at
  submission.  The *remaining* budget (never the original) is what
  flows downstream: an expired request is shed in queue with
  :class:`~repro.serve.errors.DeadlineExceeded` before wasting the
  worker, and whatever is left when execution starts becomes the
  launch's own ``deadline_s``.
* :class:`CircuitBreaker` — per-(program, options) closed→open→
  half-open state machine.  It counts *internal* service failures
  (engine faults, injected worker deaths) — never program faults,
  which are deterministic properties of the submitted kernel — and
  once open sheds requests fast with
  :class:`~repro.serve.errors.CircuitOpen` until the probe schedule
  half-opens it.
* :class:`DrainRateTracker` — the observed completion rate behind the
  ``retry_after_s`` hints of shed and rejected requests.

The service's one fallback (an internal failure reruns once on a fresh
per-op decoded device) needs no policy object: the simulator is
deterministic, so a further rerun would repeat the first.  In the
spirit of the paper's §III-D global-malloc fallback: slower but
correct beats failing, and every degradation is structured and
observable (`health()`, trace counters) rather than silent.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro import envconfig

# ------------------------------------------------------------- deadline --


class Deadline:
    """A wall-clock budget started at submission time.

    ``None`` budgets never expire; the helpers below treat a missing
    deadline as "infinite" so call sites stay branch-light.
    """

    __slots__ = ("budget_s", "start_s")

    def __init__(self, budget_s: float,
                 start_s: Optional[float] = None) -> None:
        if budget_s < 0:
            raise ValueError("Deadline budget_s must be >= 0")
        self.budget_s = float(budget_s)
        self.start_s = time.monotonic() if start_s is None else start_s

    def elapsed_s(self) -> float:
        return time.monotonic() - self.start_s

    def remaining_s(self) -> float:
        return max(0.0, self.budget_s - self.elapsed_s())

    def expired(self) -> bool:
        return self.elapsed_s() >= self.budget_s

    @staticmethod
    def combine(*deadlines: Optional["Deadline"]) -> Optional["Deadline"]:
        """The tightest of the given deadlines (ignoring ``None``)."""
        live = [d for d in deadlines if d is not None]
        if not live:
            return None
        return min(live, key=lambda d: d.start_s + d.budget_s)


# -------------------------------------------------------------- breaker --


@dataclass(frozen=True)
class BreakerPolicy:
    """When a circuit breaker opens and how it probes.

    ``threshold`` consecutive internal failures open the breaker
    (0 disables breaking entirely); after ``cooldown_s`` it half-opens
    and admits exactly one probe — success closes it, failure re-opens
    it for another cooldown.
    """

    threshold: int = 5
    cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("BreakerPolicy.threshold must be >= 0")
        if self.cooldown_s < 0:
            raise ValueError("BreakerPolicy.cooldown_s must be >= 0")

    @classmethod
    def resolve(cls, policy: Optional["BreakerPolicy"] = None) -> "BreakerPolicy":
        if policy is not None:
            return policy
        return cls(threshold=envconfig.serve_breaker_threshold())

    @property
    def enabled(self) -> bool:
        return self.threshold > 0


#: Breaker states (rendered by ``health()``).
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Thread-safe closed→open→half-open breaker for one key.

    Call :meth:`admit` right before launching, once nothing else can
    shed the request: it returns normally (and, in the half-open
    state, marks the caller as the probe) or raises the
    shed decision as a ``(failures, report_path, retry_after_s)``
    triple packed into :class:`BreakerOpenSignal` — the service turns
    that into a :class:`~repro.serve.errors.CircuitOpen` with the
    request context attached.  Then report the outcome with
    :meth:`record_success` / :meth:`record_failure`.
    """

    def __init__(self, key: str, policy: BreakerPolicy) -> None:
        self.key = key
        self.policy = policy
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._failures = 0          # consecutive internal failures
        self._opened_at: Optional[float] = None
        self._opens = 0             # lifetime open transitions
        self._probe_live = False
        self._last_report_path: Optional[str] = None

    # ----------------------------------------------------------- admit --

    def admit(self) -> None:
        """Admit one request, or raise :class:`BreakerOpenSignal`."""
        if not self.policy.enabled:
            return
        with self._lock:
            if self._state == STATE_CLOSED:
                return
            now = time.monotonic()
            since_open = now - (self._opened_at or now)
            if self._state == STATE_OPEN:
                if since_open >= self.policy.cooldown_s:
                    self._state = STATE_HALF_OPEN
                    self._probe_live = True
                    return  # this caller is the probe
                raise BreakerOpenSignal(
                    self.key, self._failures, self._last_report_path,
                    retry_after_s=self.policy.cooldown_s - since_open)
            # HALF_OPEN: one probe at a time.
            if not self._probe_live:
                self._probe_live = True
                return
            raise BreakerOpenSignal(
                self.key, self._failures, self._last_report_path,
                retry_after_s=self.policy.cooldown_s)

    # --------------------------------------------------------- outcomes --

    def record_success(self) -> None:
        """Any structurally-completed request: reset toward closed."""
        if not self.policy.enabled:
            return
        with self._lock:
            self._state = STATE_CLOSED
            self._failures = 0
            self._opened_at = None
            self._probe_live = False

    def record_failure(self, report_path: Optional[str] = None) -> bool:
        """One internal failure; returns True when this opens the
        breaker (closed→open or a failed half-open probe)."""
        if not self.policy.enabled:
            return False
        with self._lock:
            self._failures += 1
            self._last_report_path = report_path or self._last_report_path
            was_shedding = self._state == STATE_OPEN
            if self._state == STATE_HALF_OPEN:
                self._probe_live = False
            if self._failures >= self.policy.threshold or \
                    self._state == STATE_HALF_OPEN:
                self._state = STATE_OPEN
                self._opened_at = time.monotonic()
                if not was_shedding:
                    self._opens += 1
                    return True
            return False

    # ------------------------------------------------------------ query --

    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def opens(self) -> int:
        with self._lock:
            return self._opens

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "failures": self._failures,
                "opens": self._opens,
                "threshold": self.policy.threshold,
                "report_path": self._last_report_path,
            }


class BreakerOpenSignal(Exception):
    """Internal control-flow signal from :meth:`CircuitBreaker.admit`.

    Never escapes the service: it is converted into a
    :class:`~repro.serve.errors.CircuitOpen` carrying request context.
    """

    def __init__(self, key: str, failures: int,
                 report_path: Optional[str],
                 retry_after_s: Optional[float]) -> None:
        super().__init__(f"circuit open for {key}")
        self.key = key
        self.failures = failures
        self.report_path = report_path
        self.retry_after_s = retry_after_s


# ----------------------------------------------------------- drain rate --


class DrainRateTracker:
    """Sliding-window completion-rate estimate for back-off hints.

    The service records each completion; :meth:`retry_after_s` turns
    the observed drain rate into "roughly when a slot frees up" —
    the ``retry_after_s`` hint carried by shed errors.  With no signal
    yet (cold service) a small fixed hint is returned.
    """

    #: Hint when no completions have been observed yet.
    COLD_HINT_S = 0.05
    #: Hints are clamped into this range.
    MIN_HINT_S = 0.001
    MAX_HINT_S = 5.0

    def __init__(self, window: int = 32) -> None:
        self._lock = threading.Lock()
        self._window = window
        self._stamps: list = []

    def record_completion(self, stamp: Optional[float] = None) -> None:
        stamp = time.monotonic() if stamp is None else stamp
        with self._lock:
            self._stamps.append(stamp)
            if len(self._stamps) > self._window:
                del self._stamps[0]

    def rate_per_s(self) -> Optional[float]:
        """Observed completions/second over the window, or None."""
        with self._lock:
            if len(self._stamps) < 2:
                return None
            span = self._stamps[-1] - self._stamps[0]
            if span <= 0:
                return None
            return (len(self._stamps) - 1) / span

    def retry_after_s(self, backlog: int = 1) -> float:
        """Estimated wait until *backlog* slots drain."""
        rate = self.rate_per_s()
        if rate is None:
            return self.COLD_HINT_S
        hint = max(1, backlog) / rate
        return min(max(hint, self.MIN_HINT_S), self.MAX_HINT_S)
