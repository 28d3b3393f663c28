"""Simulation error hierarchy, shared message formatting and crash context.

Both execution engines (the pre-decoded micro-op engine, fused or per
op, and the warp engine) raise through the factory helpers
below so that a given device failure produces a bit-identical exception
type *and* message regardless of engine — the invariant pinned by
``tests/vgpu/test_errors_unified.py`` and relied on by the
fault-injection determinism tests (same :class:`~repro.faults.FaultPlan`
seed ⇒ same CrashReport across fused and per-op decoded and warp).

On the way out of an engine run loop, :func:`attach_context` decorates
the in-flight :class:`SimulationError` with a
:class:`DeviceErrorContext` (team/thread, IR function, basic block,
device call stack, output tail, step count) — the raw material for
``repro.faults.report.CrashReport``.  Context fields never contain raw
simulated addresses, which is what keeps reports comparable across
engines and devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


class SimulationError(Exception):
    """Base class for virtual-GPU execution failures."""

    #: Populated by :func:`attach_context` as the error unwinds out of
    #: an engine run loop; ``None`` for errors raised outside a thread.
    context: Optional["DeviceErrorContext"] = None


class TrapError(SimulationError):
    """``llvm.trap`` executed (e.g. a failed runtime assertion)."""


class DivergenceError(SimulationError):
    """Threads reached *different* aligned-barrier instructions.

    An aligned barrier promises that every thread of the team arrives at
    the same barrier instruction (paper §IV-C); violating it is UB on
    real hardware and a hard error in the simulator's debug mode.
    """


class AssumptionViolation(SimulationError):
    """An ``llvm.assume`` operand evaluated to false in debug mode.

    This is the mechanism of paper §III-G: in debug builds assumptions
    are *checked* like assertions, in release builds they are trusted.
    """


class StepLimitExceeded(SimulationError):
    """A thread ran past the configured instruction budget (livelock guard)."""


class CallStackOverflow(SimulationError):
    """Device call depth exceeded the simulator's frame limit."""


class InjectedFault(SimulationError):
    """A failure deliberately raised by an active :class:`FaultPlan` site."""


class WatchdogExpired(SimulationError):
    """The wall-clock watchdog fired before team simulation finished (``LaunchSpec(watchdog_s=...)`` / ``REPRO_WATCHDOG_S``)."""


class EngineUnsupported(Exception):
    """An engine cannot execute a valid program (e.g. the warp engine
    meeting lane-divergent indirect call targets).

    Deliberately *not* a :class:`SimulationError`: it is an internal
    engine limitation, not a program fault, so the simulation service
    takes its internal-fault retry path instead of reporting the
    program as faulty."""


class SanitizerError(SimulationError):
    """Base class for diagnostics produced by ``VirtualGPU(sanitize=True)``."""


class OutOfBoundsAccess(SanitizerError):
    """A device access fell outside every live allocation."""


class UseAfterFree(SanitizerError):
    """A device access touched memory released by ``free``."""


class UninitializedRead(SanitizerError):
    """A typed load read device-heap bytes never written this launch."""


class BarrierDivergence(DivergenceError, SanitizerError):
    """Sanitizer form of barrier divergence: the would-be hang (threads
    waiting at different barriers, or waiting forever for exited
    threads) converted into a structured diagnostic."""

    def __init__(self, message: str, team: Optional[int] = None) -> None:
        super().__init__(message)
        self.team = team


# ------------------------------------------------------------- context --


@dataclass
class DeviceErrorContext:
    """Where on the device an error happened (no raw addresses)."""

    team: int
    thread: int
    function: Optional[str]
    block: Optional[str]
    call_stack: Tuple[str, ...] = ()
    steps: int = 0
    output_tail: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "team": self.team,
            "thread": self.thread,
            "function": self.function,
            "block": self.block,
            "call_stack": list(self.call_stack),
            "steps": self.steps,
            "output_tail": list(self.output_tail),
        }


#: How many trailing device ``print`` lines a context keeps.
OUTPUT_TAIL_LINES = 8


def attach_context(exc: SimulationError, thread,
                   block_name: Optional[str] = None) -> SimulationError:
    """Attach a :class:`DeviceErrorContext` built from *thread* to *exc*.

    Idempotent: the innermost frame (closest to the fault) wins, so
    re-raising through outer loops never overwrites the context.
    *thread* is duck-typed (``ThreadContext`` from either engine).
    """
    if getattr(exc, "context", None) is not None:
        return exc
    frames = thread.frames
    stats = thread.stats
    tail: Tuple[str, ...] = ()
    if stats is not None and stats.output:
        tail = tuple(stats.output[-OUTPUT_TAIL_LINES:])
    exc.context = DeviceErrorContext(
        team=thread.team_id,
        thread=thread.thread_id,
        function=frames[-1].function.name if frames else None,
        block=block_name,
        call_stack=tuple(f.function.name for f in frames),
        steps=thread.steps,
        output_tail=tail,
    )
    return exc


# ----------------------------------------------- shared message factories --
#
# One formatting site per failure mode; both engines call these.  The
# message text is frozen — tests assert on it verbatim.


def step_limit_error(thread, max_steps: int, function_name: str) -> StepLimitExceeded:
    return StepLimitExceeded(
        f"thread ({thread.team_id},{thread.thread_id}) exceeded "
        f"{max_steps} steps in @{function_name}"
    )


def unreachable_error(function_name: str, thread) -> TrapError:
    return TrapError(
        f"unreachable executed in @{function_name} "
        f"(team {thread.team_id}, thread {thread.thread_id})"
    )


def trap_error(function_name: str, thread, message: str) -> TrapError:
    return TrapError(
        f"trap in @{function_name} "
        f"(team {thread.team_id}, thread {thread.thread_id}): {message}"
    )


def call_stack_overflow_error(callee_name: str, thread) -> CallStackOverflow:
    return CallStackOverflow(
        f"call stack overflow in @{callee_name} "
        f"(team {thread.team_id}, thread {thread.thread_id})"
    )


def assumption_error(function_name: str, thread) -> AssumptionViolation:
    return AssumptionViolation(
        f"assumption violated in @{function_name} "
        f"(team {thread.team_id}, thread {thread.thread_id})"
    )


def division_by_zero_error() -> TrapError:
    return TrapError("integer division by zero")


def undefined_value_error(function_name: str, detail: str) -> SimulationError:
    return SimulationError(f"use of undefined value in @{function_name}: {detail}")


def injected_trap_error(k: int, callee_name: str, function_name: str,
                        thread) -> InjectedFault:
    return InjectedFault(
        f"injected trap at runtime call #{k} (@{callee_name}) in "
        f"@{function_name} (team {thread.team_id}, thread {thread.thread_id})"
    )


def injected_malloc_failure(n: int, function_name: str, thread) -> InjectedFault:
    return InjectedFault(
        f"injected device malloc failure #{n} in @{function_name} "
        f"(team {thread.team_id}, thread {thread.thread_id})"
    )
