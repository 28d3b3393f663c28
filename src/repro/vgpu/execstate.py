"""Execution state and scalar semantics shared by the engines.

Thread state, argument coercion and atomic-RMW combines live here,
once, for the decoded engine (:mod:`repro.vgpu.decode`) and the warp
engine (:mod:`repro.vgpu.warp`, which calls the same scalar helpers for
uniform operands and lane by lane).  The math intrinsics' semantics
live with the intrinsic registry (:mod:`repro.ir.intrinsics`).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Union

from repro.ir.instructions import Call
from repro.ir.intrinsics import MATH_BINARY
from repro.ir.types import FloatType, IntType, Type
from repro.vgpu.errors import SimulationError

Scalar = Union[int, float]


class ThreadStatus(enum.Enum):
    RUNNING = "running"
    AT_BARRIER = "at_barrier"
    DONE = "done"


class ThreadContext:
    """Execution state of one GPU thread.

    ``frames`` holds :class:`repro.vgpu.decode.DecodedFrame` records
    (warp teams keep their frames inside the warp executors); the team
    driver only looks at ``status``/``phase_cycles`` and is
    engine-agnostic.  ``stats`` points at the owning team's
    :class:`~repro.vgpu.profiler.TeamStats` accumulator.  ``segs`` is
    the thread's segment table: pointer tag -> the memory segment it
    names for this thread, filled lazily by
    :func:`repro.vgpu.decode._segment`, so a load or store finds its
    segment with one inline lookup; ``local_seg`` is the thread's local
    segment (allocas and the warp engine use it).
    """

    __slots__ = (
        "team_id",
        "thread_id",
        "frames",
        "status",
        "phase_cycles",
        "total_cycles",
        "steps",
        "barrier_call",
        "stats",
        "faults",
        "local_seg",
        "segs",
    )

    def __init__(self, team_id: int, thread_id: int) -> None:
        self.team_id = team_id
        self.thread_id = thread_id
        self.frames: List = []
        self.status = ThreadStatus.RUNNING
        self.phase_cycles = 0
        self.total_cycles = 0
        self.steps = 0
        self.barrier_call: Optional[Call] = None
        self.stats = None
        #: Per-team fault-injection state (:class:`repro.faults.plan.
        #: TeamFaultState`) or — almost always — None.
        self.faults = None
        self.local_seg = None
        self.segs: Dict[int, object] = {}

    def reset(self, team_id: int) -> None:
        """Recycle this context for another team (allocation reuse)."""
        self.team_id = team_id
        self.frames.clear()
        self.status = ThreadStatus.RUNNING
        self.phase_cycles = 0
        self.total_cycles = 0
        self.steps = 0
        self.barrier_call = None
        self.stats = None
        self.faults = None
        self.local_seg = None
        self.segs.clear()

    @property
    def frame(self):
        return self.frames[-1]


# ------------------------------------------------------------- coercion --


def make_coerce(ty: Type) -> Callable[[Scalar], Scalar]:
    """Coercion of a value into the register representation of *ty*
    (wrapped int for integers, float for floats, raw int otherwise)."""
    if isinstance(ty, IntType):
        mask = ty.mask
        return lambda v: int(v) & mask
    if isinstance(ty, FloatType):
        return float
    return int


# ------------------------------------------------------------ atomic RMW --


def atomic_apply(op: str, old: Scalar, operand: Scalar, ty: Type) -> Scalar:
    """Combine function of ``atomicrmw`` — shared by both engines."""
    if isinstance(ty, FloatType):
        a, b = float(old), float(operand)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "max":
            return MATH_BINARY["fmax"](a, b)
        if op == "min":
            return MATH_BINARY["fmin"](a, b)
        if op == "exchange":
            return b
    assert isinstance(ty, IntType)
    a, b = int(old), int(operand)
    if op == "add":
        return ty.wrap(a + b)
    if op == "sub":
        return ty.wrap(a - b)
    if op == "max":
        return max(ty.to_signed(a), ty.to_signed(b)) & ty.max_unsigned
    if op == "min":
        return min(ty.to_signed(a), ty.to_signed(b)) & ty.max_unsigned
    if op == "exchange":
        return b
    raise SimulationError(f"unhandled atomic {op}")  # pragma: no cover
