"""Multi-tenant async simulation service over the request-object API.

See :mod:`repro.serve.service` for the architecture overview and the
README "Serving" section for usage.  Resilience primitives (deadlines,
circuit breaking, drain-rate hints) live in
:mod:`repro.serve.resilience`.
"""

from repro.serve.errors import (  # noqa: F401
    AdmissionRejected,
    CircuitOpen,
    DeadlineExceeded,
    RequestCancelled,
    ServeError,
    ServiceClosed,
)
from repro.serve.pool import DevicePool, PoolStats  # noqa: F401
from repro.serve.resilience import (  # noqa: F401
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    DrainRateTracker,
)
from repro.serve.service import (  # noqa: F401
    ServeJob,
    ServeStats,
    SimulationService,
    resolve_serve_drain,
    resolve_serve_queue,
)
from repro.vgpu.launchspec import LaunchResult, LaunchSpec  # noqa: F401
