"""Virtual GPU configuration.

The default numbers are loosely modeled on one A100 SM partition but
scaled down so pure-Python interpretation stays fast.  Only *relative*
costs matter for the reproduction: global memory is an order of
magnitude slower than shared memory, barriers cost tens of cycles,
special-function math is expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import envconfig
from repro.memory.addrspace import AddressSpace

#: Execution engine names accepted by :class:`repro.vgpu.VirtualGPU`.
ENGINE_DECODED = "decoded"
ENGINE_WARP = "warp"
ENGINES = (ENGINE_DECODED, ENGINE_WARP)

#: Why a team of a warp-requested launch ran on the decoded engine
#: (:attr:`repro.vgpu.LaunchResult.fallback`): the old runtime's shared
#: stack is not lockstep-safe, an armed fault plan needs the scalar
#: fault hooks, sanitize mode needs the shadow-checked memory path, or
#: team 0 of the launch kept too few lanes active for lockstep to pay.
FALLBACK_OLD_RT = "old-rt-shared-stack"
FALLBACK_FAULT_PLAN = "fault-plan"
FALLBACK_SANITIZE = "sanitize"
FALLBACK_LOW_OCCUPANCY = "low-occupancy"


def resolve_sim_engine(engine: Optional[str] = None) -> str:
    """Effective execution engine: explicit *engine*, else the
    ``REPRO_SIM_ENGINE`` environment variable, else ``decoded``."""
    if engine is None:
        engine = envconfig.sim_engine()
    engine = engine.strip().lower()
    if engine not in ENGINES:
        raise ValueError(
            f"unknown simulation engine {engine!r}; pick one of {ENGINES}"
        )
    return engine


def resolve_sanitize(sanitize: Optional[bool] = None) -> bool:
    """Effective sanitizer mode: explicit *sanitize*, else ``REPRO_SANITIZE``."""
    if sanitize is None:
        return envconfig.sanitize_enabled()
    return bool(sanitize)


def resolve_fault_plan(faults=None):
    """Effective fault plan: an explicit :class:`~repro.faults.plan.
    FaultPlan`, a spec string to parse, or None -> ``REPRO_FAULTS``.
    Returns None when no injection is configured."""
    from repro.faults.plan import FaultPlan

    if faults is None:
        return FaultPlan.parse(envconfig.faults_spec())
    if isinstance(faults, str):
        return FaultPlan.parse(faults)
    return faults


def resolve_watchdog(watchdog_s: Optional[float] = None) -> float:
    """Effective simulation watchdog in seconds: explicit
    *watchdog_s*, else ``REPRO_WATCHDOG_S``; 0 disables it."""
    if watchdog_s is None:
        return envconfig.watchdog_s()
    return max(0.0, float(watchdog_s))


@dataclass(frozen=True)
class GPUConfig:
    """Hardware model parameters for the virtual GPU."""

    #: Number of streaming multiprocessors; teams beyond this execute in
    #: additional "waves" (time adds up instead of overlapping).
    num_sms: int = 8
    warp_size: int = 32
    max_threads_per_team: int = 128
    #: Static + dynamic shared memory capacity per team (bytes).
    shared_memory_per_team: int = 64 * 1024
    #: Local (stack) memory per thread (bytes).
    local_memory_per_thread: int = 64 * 1024
    global_memory: int = 1 << 24
    constant_memory: int = 1 << 20
    #: Fixed kernel launch cost in cycles.
    launch_overhead: int = 400
    #: Interpreter safety valve: per-thread executed-instruction cap.
    max_steps_per_thread: int = 20_000_000

    #: Memory access latencies by address space (cycles).
    load_cost: Dict[AddressSpace, int] = field(default_factory=lambda: {
        AddressSpace.GLOBAL: 40,
        AddressSpace.GENERIC: 40,
        AddressSpace.SHARED: 4,
        AddressSpace.CONSTANT: 4,
        AddressSpace.LOCAL: 2,
    })
    store_cost: Dict[AddressSpace, int] = field(default_factory=lambda: {
        AddressSpace.GLOBAL: 40,
        AddressSpace.GENERIC: 40,
        AddressSpace.SHARED: 4,
        AddressSpace.CONSTANT: 4,
        AddressSpace.LOCAL: 2,
    })
    atomic_cost: int = 60
    #: Cost of the call/return bookkeeping for a non-inlined call.
    call_cost: int = 6
    #: Integer ALU op cost.
    int_op_cost: int = 1
    #: Floating point add/mul cost.
    float_op_cost: int = 2
    #: Floating point divide cost.
    float_div_cost: int = 10
    #: Integer divide/remainder cost.
    int_div_cost: int = 8
    branch_cost: int = 1
    select_cost: int = 1
    cast_cost: int = 1
    alloca_cost: int = 1
    phi_cost: int = 0


DEFAULT_CONFIG = GPUConfig()


@dataclass(frozen=True)
class LaunchConfig:
    """Grid geometry for one kernel launch."""

    num_teams: int
    threads_per_team: int

    def __post_init__(self) -> None:
        if self.num_teams < 1:
            raise ValueError("num_teams must be >= 1")
        if self.threads_per_team < 1:
            raise ValueError("threads_per_team must be >= 1")

    @property
    def total_threads(self) -> int:
        return self.num_teams * self.threads_per_team
