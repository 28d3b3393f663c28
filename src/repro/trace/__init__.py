"""``repro.trace`` — end-to-end tracing & metrics for the simulated stack.

A low-overhead structured event layer threaded through all four layers
of the reproduction:

* **toolchain** — compile spans and cache hit/miss instants wrapping
  :class:`~repro.passes.pass_manager.PipelineStats`;
* **runtime** — per-call counters for the paper's overhead categories
  (parallel region entry, worksharing ``noChunkImpl`` invocations,
  thread-state escapes, shared-stack pushes and global-memory
  fallbacks, aligned vs. unaligned barriers);
* **vgpu** — per-team, per-phase execution spans on the device
  timeline (cycle clock), with cycles attributed per IR function;
* **bench** — launch/run spans around each measured cell.

Tracing is **off by default**.  Enable it with ``REPRO_TRACE=1`` (see
:mod:`repro.envconfig`) or programmatically via :func:`enable` /
:func:`install`.  When disabled every instrumentation site goes
through the shared :data:`NULL_COLLECTOR`, whose methods are no-ops —
the simulator hot loops additionally check ``vm._trace is None`` once
per phase so the disabled path stays byte-identical to the
pre-tracing code (guarded by ``tests/trace/test_overhead_guard.py``).

Export is Chrome Trace Format JSON (``chrome://tracing`` /
https://ui.perfetto.dev) plus a flat metrics JSON; see
``python -m repro.bench trace``.
"""

from repro.trace.collector import (  # noqa: F401
    NULL_COLLECTOR,
    NullCollector,
    PID_DEVICE,
    PID_HOST,
    TraceCollector,
    TraceConfig,
    active_or_none,
    disable,
    enable,
    get_collector,
    install,
    span,
    tracing_enabled,
)
from repro.trace.categories import (  # noqa: F401
    CATEGORY_NAMES,
    OVERHEAD_CATEGORIES,
    runtime_category,
)
from repro.trace.snapshot import (  # noqa: F401
    OverheadSnapshot,
    profile_summary,
)
from repro.trace.export import (  # noqa: F401
    build_metrics,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
