"""Virtual GPU: execution engines, cost model and resource accounting."""

from repro.vgpu.config import (  # noqa: F401
    DEFAULT_CONFIG,
    ENGINE_DECODED,
    ENGINE_WARP,
    ENGINES,
    FALLBACK_FAULT_PLAN,
    FALLBACK_LOW_OCCUPANCY,
    FALLBACK_OLD_RT,
    FALLBACK_SANITIZE,
    GPUConfig,
    LaunchConfig,
    resolve_fault_plan,
    resolve_sanitize,
    resolve_sim_engine,
    resolve_watchdog,
)
from repro.vgpu.cost import CostModel  # noqa: F401
from repro.vgpu.decode import (  # noqa: F401
    BoundFunction,
    DecodedFunction,
    decode_function,
)
from repro.vgpu.errors import (  # noqa: F401
    AssumptionViolation,
    BarrierDivergence,
    CallStackOverflow,
    DeviceErrorContext,
    DivergenceError,
    InjectedFault,
    OutOfBoundsAccess,
    SanitizerError,
    SimulationError,
    StepLimitExceeded,
    TrapError,
    UninitializedRead,
    UseAfterFree,
    WatchdogExpired,
)
from repro.vgpu.sanitizer import SanitizedMemorySystem  # noqa: F401
from repro.vgpu.execstate import ThreadContext, ThreadStatus  # noqa: F401
from repro.vgpu.interpreter import CooperativeWatchdog, VirtualGPU  # noqa: F401
from repro.vgpu.launchspec import LaunchResult, LaunchSpec  # noqa: F401
from repro.vgpu.profiler import KernelProfile, NOMINAL_CLOCK_GHZ, TeamStats  # noqa: F401
from repro.vgpu.registers import estimate_kernel_registers, max_live_values  # noqa: F401
from repro.vgpu.resources import (  # noqa: F401
    ResourceUsage,
    measure_resources,
    shared_memory_usage,
)
