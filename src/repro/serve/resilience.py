"""Resilience primitives for the serving layer.

Three small, independently testable pieces that
:class:`~repro.serve.SimulationService` composes:

* :class:`Deadline` — a request's wall-clock budget, created at
  submission.  The *remaining* budget (never the original) is what
  flows downstream: an expired request is shed in queue with
  :class:`~repro.serve.errors.DeadlineExceeded` before wasting a
  worker, and whatever is left when execution starts becomes the
  device watchdog.
* :class:`RetryPolicy` — generalizes a hard-coded one-shot retry on
  a fresh per-op decoded device into max attempts, exponential backoff with
  **deterministic** jitter (seeded by request id and attempt, so a
  replayed workload backs off identically), and a retryable-error
  filter.  The default policy is bit-compatible with the old
  behaviour: two attempts, no sleep.
* :class:`CircuitBreaker` — per-(program, options) closed→open→
  half-open state machine.  It counts *internal* service failures
  (engine faults, injected worker deaths) — never program faults,
  which are deterministic properties of the submitted kernel — and
  once open sheds requests fast with
  :class:`~repro.serve.errors.CircuitOpen` until the probe schedule
  half-opens it.

In the spirit of the paper's §III-D global-malloc fallback: slower but
correct beats failing, and every degradation is structured and
observable (`health()`, trace counters) rather than silent.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple, Type

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


def clamp_watchdog(watchdog_s: Optional[float],
                   deadline: Optional[Deadline]) -> Optional[float]:
    """Fold *deadline*'s remaining budget into a watchdog value.

    Returns the tighter of the explicit watchdog and the remaining
    deadline; ``None`` when neither applies.  A fully spent deadline
    clamps to a tiny positive value (0 would mean "disabled" to the
    watchdog machinery) so the run trips immediately and structurally.
    """
    if deadline is None:
        return watchdog_s
    remaining = max(deadline.remaining_s(), 1e-3)
    if watchdog_s is None or watchdog_s <= 0:
        return remaining
    return min(watchdog_s, remaining)


# --------------------------------------------------------------- retry --


@dataclass(frozen=True)
class RetryPolicy:
    """How a served request retries after an *internal* failure.

    ``max_attempts`` counts total launches (1 = never retry).  The
    delay before attempt ``k+1`` is ``backoff_base_s * 2**(k-1)``
    capped at ``backoff_cap_s``, scaled by a deterministic jitter drawn
    from ``random.Random(f"{token}:{k}")`` in ``[1-jitter, 1+jitter]``
    — the same request id always waits the same amount, which keeps
    chaos runs and their assertions reproducible.  Only exceptions
    matching ``retryable`` are retried; program faults never reach this
    policy at all.
    """

    max_attempts: int = 2
    backoff_base_s: float = 0.0
    backoff_cap_s: float = 1.0
    jitter: float = 0.5
    retryable: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("RetryPolicy.max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("RetryPolicy backoff values must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("RetryPolicy.jitter must be in [0, 1]")

    @classmethod
    def resolve(cls, policy: Optional["RetryPolicy"] = None) -> "RetryPolicy":
        """Explicit policy, else the ``REPRO_SERVE_RETRIES`` /
        ``REPRO_SERVE_BACKOFF_S`` environment defaults."""
        if policy is not None:
            return policy
        return cls(max_attempts=envconfig.serve_retries(),
                   backoff_base_s=envconfig.serve_backoff_s())

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """True when *attempt* (1-based) may be followed by another."""
        return attempt < self.max_attempts and isinstance(exc, self.retryable)

    def delay_s(self, attempt: int, token: Optional[str] = None) -> float:
        """Backoff before the attempt *after* 1-based *attempt*."""
        if self.backoff_base_s <= 0:
            return 0.0
        base = min(self.backoff_base_s * (2.0 ** (attempt - 1)),
                   self.backoff_cap_s)
        if self.jitter == 0:
            return base
        rng = random.Random(f"{token or ''}:{attempt}")
        return base * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "jitter": self.jitter,
        }


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

    Call :meth:`admit` before doing work: it returns normally (and, in
    the half-open state, marks the caller as the probe) or raises the
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
