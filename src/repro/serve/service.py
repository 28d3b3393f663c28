"""``repro.serve`` — the multi-tenant async simulation service.

:class:`SimulationService` accepts many concurrent compile+run requests
described by :class:`~repro.vgpu.LaunchSpec` and multiplexes them over
a persistent worker pool:

* **Admission control** — at most ``workers + queue_depth`` requests
  (capped by ``max_in_flight``) may be unfinished at once; beyond that
  ``submit()`` raises a structured :class:`~repro.serve.errors.
  AdmissionRejected` carrying a ``retry_after_s`` back-off hint derived
  from the observed queue drain rate.
* **Deadline propagation** — a spec's ``deadline_s`` budget flows
  request→queue→compile→watchdog: a request that expires while queued
  is shed with :class:`~repro.serve.errors.DeadlineExceeded` *before*
  wasting a worker, and the **remaining** budget (never the original)
  becomes the device watchdog of the launch.
* **Shared compilation** — requests compile through one
  :class:`~repro.toolchain.service.ToolchainSession` (the
  content-addressed compile cache), and the service additionally
  memoizes the live ``CompiledProgram`` per fingerprint so concurrent
  tenants share one module object — which is what lets the
  :class:`~repro.serve.pool.DevicePool` hand the same warm devices to
  all of them.
* **Warm devices** — finished devices are reset (not rebuilt) and
  reused; decode bindings survive across requests.
* **Failure isolation** — a program fault (trap, sanitizer diagnostic,
  injected fault, watchdog) becomes an ``ok=False``
  :class:`~repro.vgpu.LaunchResult` carrying a deduplicated
  :class:`~repro.faults.report.CrashReport`; it never leaks as an
  exception into other tenants.  An *internal* fault retries under the
  configurable :class:`~repro.serve.resilience.RetryPolicy`
  (exponential backoff, deterministic jitter, a fresh per-op decoded
  device as the fallback); the default policy is one retry.
  This is the project's only retry loop: a one-off guarded launch is
  ``SimulationService().run(spec, module=..., make_args=...)``.
* **Circuit breaking** — consecutive internal failures of one
  (program, options) open its :class:`~repro.serve.resilience.
  CircuitBreaker`; further requests shed fast with
  :class:`~repro.serve.errors.CircuitOpen` (carrying the probable
  crash-report path) until a half-open probe succeeds.
* **Graceful drain** — ``close(deadline_s=...)`` stops intake, drains
  in-flight work within the budget and cancels what cannot finish;
  :meth:`ServeJob.cancel` releases individual queued requests.
  :meth:`health` reports queue depth, breaker states, worker liveness
  and the shed/retry/cancel counters (also exported as trace
  counters).
* **Traceability** — when the :mod:`repro.trace` collector is active,
  every request's id is threaded from the ``serve.submit`` instant
  through the ``serve.request`` span and per-attempt ``serve.attempt``
  spans into the device timeline.

Results are bit-identical to a direct ``VirtualGPU.run(spec)`` of the
same spec — profiles, traces and fault firing — pinned by
``tests/serve/test_service.py``.  Chaos injection for all of the above
lives in :mod:`repro.serve.chaos` and is only imported when a service
is constructed with a chaos plan.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import envconfig
from repro.faults.report import PROGRAM_FAULTS, CrashReport
from repro.serve.errors import (
    AdmissionRejected,
    CircuitOpen,
    DeadlineExceeded,
    RequestCancelled,
    ServiceClosed,
)
from repro.serve.pool import DevicePool
from repro.serve.resilience import (
    BreakerOpenSignal,
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    DrainRateTracker,
    RetryPolicy,
    clamp_watchdog,
)
from repro.toolchain.fingerprint import compile_fingerprint
from repro.toolchain.service import ToolchainSession
from repro.trace.categories import SERVE_EVENT_CATEGORY
from repro.trace.collector import active_or_none as _active_trace
from repro.vgpu import (
    ENGINE_DECODED,
    GPUConfig,
    LaunchResult,
    LaunchSpec,
    VirtualGPU,
    resolve_sim_engine,
)

#: ``make_args`` callback: bind kernel arguments against the device the
#: request landed on (args usually embed device pointers, so they must
#: be produced per device).  ``compiled`` is the CompiledProgram for
#: program submissions, or None for raw-module submissions.
MakeArgs = Callable[[VirtualGPU, Optional[object]], Sequence[Any]]

#: ``finalize`` callback: runs in-worker after a successful launch,
#: while the request still owns the device (e.g. app verification);
#: its return value lands in ``LaunchResult.payload``.
Finalize = Callable[[VirtualGPU, LaunchResult], Any]


def resolve_serve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit, else ``REPRO_SERVE_WORKERS``."""
    if workers is None:
        workers = envconfig.serve_workers()
    return max(1, int(workers))


def resolve_serve_queue(queue_depth: Optional[int] = None) -> int:
    """Effective queue depth: explicit, else ``REPRO_SERVE_QUEUE``."""
    if queue_depth is None:
        queue_depth = envconfig.serve_queue()
    return max(0, int(queue_depth))


def resolve_serve_max_in_flight(limit: Optional[int] = None) -> int:
    """Effective admission cap: explicit, else ``REPRO_SERVE_MAX_INFLIGHT``
    (0 = derive from workers + queue depth)."""
    if limit is None:
        limit = envconfig.serve_max_in_flight()
    return max(0, int(limit))


def resolve_serve_drain(deadline_s: Optional[float] = None) -> Optional[float]:
    """Effective drain budget: explicit, else ``REPRO_SERVE_DRAIN_S``
    (0 / unset = drain without a deadline)."""
    if deadline_s is not None:
        return deadline_s if deadline_s > 0 else None
    env = envconfig.serve_drain_s()
    return env if env > 0 else None


@dataclass
class ServeStats:
    """Request accounting for one service instance."""

    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0        # program faults (ok=False results)
    retried: int = 0       # requests that needed >= 1 internal-fault retry
    compiles: int = 0      # distinct fingerprints compiled/materialized
    attempts: int = 0      # launch attempts executed (retries included)
    cancelled: int = 0     # queued requests cancelled before running
    shed_deadline: int = 0  # requests shed with DeadlineExceeded
    shed_breaker: int = 0   # requests shed with CircuitOpen
    breaker_opens: int = 0  # circuit-breaker open transitions
    internal_errors: int = 0  # requests resolved with an internal exception

    def to_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "compiles": self.compiles,
            "attempts": self.attempts,
            "cancelled": self.cancelled,
            "shed_deadline": self.shed_deadline,
            "shed_breaker": self.shed_breaker,
            "breaker_opens": self.breaker_opens,
            "internal_errors": self.internal_errors,
        }


#: ServeJob lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_CANCELLED = "cancelled"


class ServeJob:
    """Handle for one admitted request."""

    def __init__(self, request_id: str, spec: LaunchSpec, submitted_s: float,
                 deadline: Optional[Deadline] = None,
                 service: Optional["SimulationService"] = None) -> None:
        self.request_id = request_id
        self.spec = spec
        self.submitted_s = submitted_s
        self.deadline = deadline
        self.future: "Future[LaunchResult]" = Future()
        self._service = service
        self._state = JOB_QUEUED
        self._state_lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    @property
    def cancelled(self) -> bool:
        return self.state == JOB_CANCELLED

    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: Optional[float] = None) -> LaunchResult:
        """The request's :class:`LaunchResult`.

        Program faults come back as ``ok=False`` results; shed requests
        (deadline, breaker, cancellation) and internal failures that
        exhausted the retry policy raise their structured error.  A
        *timeout here* raises ``TimeoutError`` without consuming the
        request — call :meth:`cancel` to release a queued slot you no
        longer want to wait for.
        """
        return self.future.result(timeout)

    def cancel(self) -> bool:
        """Cancel this request if it has not started executing.

        Returns True when the request was still queued (its ``result``
        now raises :class:`~repro.serve.errors.RequestCancelled` and
        its admission slot is released); False when it is already
        running or finished — a launched request cannot be recalled.
        """
        with self._state_lock:
            if self._state != JOB_QUEUED:
                return False
            self._state = JOB_CANCELLED
        if self._service is not None:
            self._service._note_cancelled(self)
        self.future.set_exception(RequestCancelled(
            f"request {self.request_id} cancelled while queued",
            request_id=self.request_id))
        return True

    # Internal: worker-side state transitions.

    def _start(self) -> bool:
        """Transition queued→running; False when already cancelled."""
        with self._state_lock:
            if self._state != JOB_QUEUED:
                return False
            self._state = JOB_RUNNING
            return True

    def _finish(self) -> None:
        with self._state_lock:
            if self._state != JOB_CANCELLED:
                self._state = JOB_DONE


class _Request:
    """Internal: everything a worker needs to execute one job."""

    __slots__ = ("job", "program", "options", "module", "make_args", "finalize")

    def __init__(self, job, program, options, module, make_args, finalize):
        self.job = job
        self.program = program
        self.options = options
        self.module = module
        self.make_args = make_args
        self.finalize = finalize


class SimulationService:
    """Multi-tenant async front end over the virtual-GPU stack.

    Use as a context manager (or call :meth:`close`); in-flight
    requests drain on close, bounded by an optional drain deadline.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        session: Optional[ToolchainSession] = None,
        gpu_config: Optional[GPUConfig] = None,
        pool: Optional[DevicePool] = None,
        save_reports: bool = False,
        report_dir: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        chaos: Optional[object] = None,
    ) -> None:
        self.workers = resolve_serve_workers(workers)
        self.queue_depth = resolve_serve_queue(queue_depth)
        limit = resolve_serve_max_in_flight(max_in_flight)
        derived = self.workers + self.queue_depth
        #: Admission capacity: unfinished requests beyond this are
        #: rejected at submit() time.
        self.capacity = min(limit, derived) if limit else derived
        self.session = session or ToolchainSession()
        self.gpu_config = gpu_config or GPUConfig()
        self.pool = pool or DevicePool()
        self.save_reports = save_reports
        self.report_dir = report_dir
        self.retry_policy = RetryPolicy.resolve(retry_policy)
        self.breaker_policy = BreakerPolicy.resolve(breaker_policy)
        self.stats = ServeStats()
        if chaos is not None:
            # Lazy import: a chaos-free service never loads the module
            # (pinned by the disabled-path guard test).
            from repro.serve.chaos import resolve_chaos

            self._chaos = resolve_chaos(chaos)
        else:
            self._chaos = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        self._in_flight = 0
        self._closed = False
        self._ids = itertools.count(1)
        #: fingerprint -> CompiledProgram: the live-object complement of
        #: the pickled compile cache, shared across tenants so the
        #: device pool sees one module object per distinct compile.
        self._compiled: Dict[str, object] = {}
        self._compile_locks: Dict[str, threading.Lock] = {}
        #: breaker key -> CircuitBreaker (created on first use).
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: Outstanding (admitted, unfinished) jobs — the drain
        #: machinery cancels whatever of these is still queued.
        self._jobs: set = set()
        self._drain_rate = DrainRateTracker()
        self._drain_deadline: Optional[Deadline] = None

    # ------------------------------------------------------------ lifecycle --

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, wait: bool = True,
              deadline_s: Optional[float] = None) -> None:
        """Stop admitting requests and (by default) drain in-flight ones.

        With a drain budget (*deadline_s*, or ``REPRO_SERVE_DRAIN_S``
        when unset) the drain is bounded: requests still *queued* when
        the budget runs out are cancelled (their ``result()`` raises
        :class:`~repro.serve.errors.RequestCancelled`), and requests
        picked up by workers during the drain get their watchdog
        clamped to the remaining budget.  Without a budget the original
        unbounded drain is preserved.  Idempotent.
        """
        with self._lock:
            self._closed = True
        budget = resolve_serve_drain(deadline_s)
        if not wait or budget is None:
            self._executor.shutdown(wait=wait)
            return
        drain = Deadline(budget)
        with self._lock:
            self._drain_deadline = drain
        while not drain.expired():
            with self._lock:
                if self._in_flight == 0:
                    break
            time.sleep(min(0.005, max(drain.remaining_s(), 1e-4)))
        for job in self._jobs_snapshot():
            job.cancel()
        self._executor.shutdown(wait=wait)

    # ------------------------------------------------------------ submission --

    def submit(
        self,
        spec: LaunchSpec,
        *,
        program: Optional[object] = None,
        options: Optional[object] = None,
        module: Optional[object] = None,
        make_args: Optional[MakeArgs] = None,
        finalize: Optional[Finalize] = None,
    ) -> ServeJob:
        """Admit one request; returns its :class:`ServeJob` handle.

        Exactly one of *module* (a pre-built IR module) or *program*
        (a frontend program, compiled in-worker through the shared
        cache with *options*) must be given.  ``spec.args`` is used
        verbatim unless *make_args* rebinds arguments per device.
        ``spec.deadline_s`` starts the request's budget *now*.

        Raises :class:`AdmissionRejected` when the service is
        saturated and :class:`ServiceClosed` after :meth:`close`.
        """
        if (module is None) == (program is None):
            raise ValueError("submit() needs exactly one of module= or program=")
        rid = spec.request_id
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed; no new requests")
            if self._in_flight >= self.capacity:
                self.stats.rejected += 1
                backlog = self._in_flight - self.workers + 1
                raise AdmissionRejected(
                    f"service saturated: {self._in_flight} in flight "
                    f">= capacity {self.capacity}",
                    in_flight=self._in_flight,
                    capacity=self.capacity,
                    request_id=rid,
                    retry_after_s=self._drain_rate.retry_after_s(backlog),
                )
            self._in_flight += 1
            self.stats.submitted += 1
            if rid is None:
                rid = f"r{next(self._ids):06d}"
        spec = spec if spec.request_id == rid else spec.replace(request_id=rid)
        deadline = (Deadline(spec.deadline_s)
                    if spec.deadline_s is not None else None)
        job = ServeJob(rid, spec, time.monotonic(), deadline=deadline,
                       service=self)
        with self._lock:
            self._jobs.add(job)
        trace = _active_trace()
        if trace is not None:
            trace.instant("serve.submit", cat=SERVE_EVENT_CATEGORY,
                          request_id=rid, kernel=spec.kernel_name,
                          tag=spec.tag)
        request = _Request(job, program, options, module, make_args, finalize)
        try:
            self._executor.submit(self._run_request, request)
        except RuntimeError:  # executor shut down between checks
            with self._lock:
                self._in_flight -= 1
                self._jobs.discard(job)
            raise ServiceClosed("service is closed; no new requests") from None
        return job

    def run(self, spec: LaunchSpec, **kwargs: Any) -> LaunchResult:
        """Submit and wait — the one-call convenience wrapper."""
        return self.submit(spec, **kwargs).result()

    def submit_app(
        self,
        app_name: str,
        *,
        options: Optional[object] = None,
        build: Optional[str] = None,
        size: Optional[Dict[str, int]] = None,
        verify: bool = True,
        spec: Optional[LaunchSpec] = None,
        **spec_overrides: Any,
    ) -> ServeJob:
        """Submit one proxy-app run (compile + prepare + launch [+ verify]).

        *build* names a build configuration (default: the paper's
        baseline order head) unless explicit *options* are given.
        Keyword *spec_overrides* (engine=, deadline_s=,
        request_id=, ...) refine the app's default grid spec.  With
        ``verify=True`` the result's ``payload`` carries
        ``{"max_error": ...}`` computed in-worker against the NumPy
        reference.
        """
        from repro.bench.builds import BUILD_ORDER, build_options
        from repro.bench.harness import APPS

        if app_name not in APPS:
            raise KeyError(f"unknown app {app_name!r}; pick one of {sorted(APPS)}")
        app = APPS[app_name]
        size = size or app.default_size()
        if options is None:
            options = build_options()[build if build is not None else BUILD_ORDER[0]]
        elif build is not None:
            raise ValueError("submit_app() takes options= or build=, not both")
        if spec is None:
            spec = LaunchSpec(kernel=app.KERNEL, num_teams=app.TEAMS,
                              threads_per_team=app.THREADS)
        if spec_overrides:
            spec = spec.replace(**spec_overrides)

        holder: Dict[str, Any] = {}

        def make_args(gpu: VirtualGPU, compiled) -> Sequence[Any]:
            host_args, verify_fn = app.prepare(gpu, size)
            holder["verify"] = (verify_fn, host_args)
            return compiled.abi(app.KERNEL).marshal(gpu, host_args)

        def finalize(gpu: VirtualGPU, result: LaunchResult) -> Any:
            verify_fn, host_args = holder.pop("verify")
            return {"max_error": verify_fn(gpu, host_args)}

        return self.submit(
            spec,
            program=app.build_program(size),
            options=options,
            make_args=make_args,
            finalize=finalize if verify else None,
        )

    # --------------------------------------------------------------- health --

    def health(self) -> Dict[str, Any]:
        """Liveness/pressure snapshot of this service.

        Queue depth and running count, worker liveness, breaker states,
        the observed drain rate with the current back-off hint, and the
        full stats/pool counters.  When tracing is active the snapshot
        is also exported on the ``serve.health`` counter track.
        """
        jobs = self._jobs_snapshot()
        queued = sum(1 for j in jobs if j.state == JOB_QUEUED)
        with self._lock:
            in_flight = self._in_flight
            closed = self._closed
            draining = self._drain_deadline is not None
            breakers = {k: b.to_dict() for k, b in self._breakers.items()}
            stats = self.stats.to_dict()
        threads = getattr(self._executor, "_threads", ()) or ()
        workers_alive = sum(1 for t in threads if t.is_alive())
        rate = self._drain_rate.rate_per_s()
        backlog = max(1, in_flight - self.workers + 1)
        out = {
            "closed": closed,
            "draining": draining,
            "in_flight": in_flight,
            "queued": queued,
            "running": max(0, in_flight - queued),
            "capacity": self.capacity,
            "workers": self.workers,
            "workers_alive": workers_alive,
            "drain_rate_rps": round(rate, 3) if rate is not None else None,
            "retry_after_s": round(self._drain_rate.retry_after_s(backlog), 6),
            "breakers": breakers,
            "breakers_open": sum(
                1 for b in breakers.values() if b["state"] != "closed"),
            "stats": stats,
            "pool": self.pool.stats.to_dict(),
        }
        if self._chaos is not None:
            out["chaos"] = self._chaos.to_dict()
        trace = _active_trace()
        if trace is not None:
            trace.counter("serve.health", {
                "in_flight": in_flight,
                "queued": queued,
                "workers_alive": workers_alive,
                "breakers_open": out["breakers_open"],
                "shed_deadline": stats["shed_deadline"],
                "shed_breaker": stats["shed_breaker"],
                "cancelled": stats["cancelled"],
            }, cat=SERVE_EVENT_CATEGORY)
        return out

    # ------------------------------------------------------------- workers --

    def _jobs_snapshot(self) -> List[ServeJob]:
        with self._lock:
            return list(self._jobs)

    def _note_cancelled(self, job: ServeJob) -> None:
        # cancel() won the queued→cancelled race, so the worker's
        # _start() will refuse the job: the admission slot is released
        # here, exactly once, and immediately — a waiting submitter
        # must not bounce on a slot held by a corpse.
        with self._lock:
            self.stats.cancelled += 1
            self._in_flight -= 1
            self._jobs.discard(job)
        trace = _active_trace()
        if trace is not None:
            trace.instant("serve.cancel", cat=SERVE_EVENT_CATEGORY,
                          request_id=job.request_id)

    def _breaker_for(self, key: str) -> Optional[CircuitBreaker]:
        if not self.breaker_policy.enabled:
            return None
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    key, self.breaker_policy)
            return breaker

    def _retry_after_hint(self) -> float:
        with self._lock:
            backlog = max(1, self._in_flight - self.workers + 1)
        return self._drain_rate.retry_after_s(backlog)

    def _shed_deadline(self, job: ServeJob, deadline: Deadline,
                       stage: str) -> None:
        """Raise the structured shed error for an expired budget."""
        trace = _active_trace()
        if trace is not None:
            trace.instant("serve.shed", cat=SERVE_EVENT_CATEGORY,
                          request_id=job.request_id, reason="deadline",
                          stage=stage)
        raise DeadlineExceeded(
            f"request {job.request_id} deadline ({deadline.budget_s:g}s) "
            f"expired in {stage}",
            stage=stage,
            budget_s=deadline.budget_s,
            elapsed_s=deadline.elapsed_s(),
            request_id=job.request_id,
            retry_after_s=self._retry_after_hint(),
        )

    def _compile_shared(self, program, options, key):
        """Compile through the session cache, memoizing the live object
        per fingerprint (*key*) so all tenants share one module."""
        with self._lock:
            compiled = self._compiled.get(key)
            if compiled is not None:
                return compiled
            lock = self._compile_locks.setdefault(key, threading.Lock())
        with lock:  # serialize per fingerprint, not globally
            with self._lock:
                compiled = self._compiled.get(key)
            if compiled is None:
                if self._chaos is not None:
                    self._chaos.on_compile()
                compiled = self.session.compile(program, options)
                with self._lock:
                    self._compiled[key] = compiled
                    self.stats.compiles += 1
        return compiled

    def _run_request(self, request: _Request) -> None:
        job = request.job
        if not job._start():
            # Cancelled while queued: cancel() already resolved the
            # future and released the admission slot.
            return
        try:
            result = self._execute(request)
        except BaseException as exc:
            with self._lock:
                self._in_flight -= 1
                self._jobs.discard(job)
                if isinstance(exc, DeadlineExceeded):
                    self.stats.shed_deadline += 1
                elif isinstance(exc, CircuitOpen):
                    self.stats.shed_breaker += 1
                else:
                    self.stats.internal_errors += 1
            self._drain_rate.record_completion()
            job._finish()
            job.future.set_exception(exc)
            return
        with self._lock:
            self._in_flight -= 1
            self._jobs.discard(job)
            self.stats.completed += 1
            if not result.ok:
                self.stats.failed += 1
            if result.retried:
                self.stats.retried += 1
        self._drain_rate.record_completion()
        job._finish()
        job.future.set_result(result)

    def _execute(self, request: _Request) -> LaunchResult:
        job = request.job
        spec = job.spec
        trace = _active_trace()
        span = (trace.span("serve.request", cat=SERVE_EVENT_CATEGORY,
                           request_id=job.request_id,
                           kernel=spec.kernel_name, tag=spec.tag)
                if trace is not None else nullcontext())
        with span:
            return self._execute_on_device(request)

    def _execute_on_device(self, request: _Request) -> LaunchResult:
        job = request.job
        spec = job.spec
        deadline = Deadline.combine(job.deadline, self._drain_deadline)
        if deadline is not None and deadline.expired():
            self._shed_deadline(job, deadline, "queue")
        if self._chaos is not None:
            self._chaos.on_request()

        compiled = None
        if request.module is not None:
            module = request.module
            options = None
            key = f"module:{id(module):x}"
        else:
            from repro.frontend.driver import CompileOptions

            options = request.options or CompileOptions()
            key = compile_fingerprint(request.program, options)

        breaker = self._breaker_for(key)
        if breaker is not None:
            try:
                breaker.admit()
            except BreakerOpenSignal as sig:
                self._shed_breaker(job, sig)

        if request.module is None:
            compiled = self._compile_shared(request.program, options, key)
            module = compiled.module
            if deadline is not None and deadline.expired():
                self._shed_deadline(job, deadline, "compile")

        return self._attempt_loop(request, module, compiled, deadline, breaker)

    def _shed_breaker(self, job: ServeJob, sig: BreakerOpenSignal) -> None:
        trace = _active_trace()
        if trace is not None:
            trace.instant("serve.shed", cat=SERVE_EVENT_CATEGORY,
                          request_id=job.request_id, reason="breaker",
                          key=sig.key)
        raise CircuitOpen(
            f"circuit open for {sig.key} after {sig.failures} consecutive "
            f"internal failures",
            key=sig.key,
            failures=sig.failures,
            report_path=sig.report_path,
            request_id=job.request_id,
            retry_after_s=sig.retry_after_s,
        ) from None

    def _attempt_loop(self, request: _Request, module, compiled,
                      deadline: Optional[Deadline],
                      breaker: Optional[CircuitBreaker]) -> LaunchResult:
        """Run the request under the retry policy.

        Attempt 1 uses the spec's engine; every retry runs on a fresh
        decoded device that executes op by op (``VirtualGPU._per_op``),
        away from the generated fused code an internal decoded fault
        most likely came from.
        """
        job = request.job
        spec = job.spec
        policy = self.retry_policy
        trace = _active_trace()
        retry_info: Optional[dict] = None
        retry_report: Optional[CrashReport] = None
        first_engine = resolve_sim_engine(spec.engine)
        attempt = 1
        while True:
            attempt_engine = first_engine if attempt == 1 else ENGINE_DECODED
            span = (trace.span("serve.attempt", cat=SERVE_EVENT_CATEGORY,
                               request_id=job.request_id, attempt=attempt,
                               engine=attempt_engine)
                    if trace is not None else nullcontext())
            with self._lock:
                self.stats.attempts += 1
            try:
                with span:
                    if self._chaos is not None:
                        self._chaos.on_attempt()
                    result = self._launch_attempt(
                        request, module, compiled, deadline,
                        engine=attempt_engine, fresh=attempt > 1,
                        retry=retry_info)
            except PROGRAM_FAULTS:
                raise  # defensive: program faults are handled per-attempt
            except Exception as exc:
                # Internal failure of the service/engine machinery.
                if not policy.should_retry(exc, attempt):
                    if breaker is not None and breaker.record_failure(
                            self._internal_report_path(request, exc,
                                                       attempt_engine)):
                        with self._lock:
                            self.stats.breaker_opens += 1
                        if trace is not None:
                            trace.instant("serve.breaker_open",
                                          cat=SERVE_EVENT_CATEGORY,
                                          request_id=job.request_id,
                                          key=breaker.key)
                    raise
                retry_info = {
                    "from_engine": attempt_engine,
                    "to_engine": ENGINE_DECODED,
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                    "attempt": attempt,
                }
                retry_report = CrashReport.from_exception(
                    exc, kernel=spec.kernel_name, engine=attempt_engine)
                retry_report.retry = retry_info
                delay = policy.delay_s(attempt, job.request_id)
                if delay > 0:
                    if deadline is not None and \
                            delay >= deadline.remaining_s():
                        self._shed_deadline(job, deadline, "retry")
                    time.sleep(delay)
                attempt += 1
                continue
            # Structurally completed: ok result or isolated program fault.
            if breaker is not None:
                breaker.record_success()
            if retry_report is not None and result.report is None:
                # Successful retry: keep the internal fault on record.
                result.report = retry_report
                if self.save_reports:
                    result.report_path = retry_report.save(self.report_dir)
            if retry_info is not None:
                result.retried = True
            return result

    def _internal_report_path(self, request: _Request, exc: Exception,
                              engine: str) -> Optional[str]:
        """Save a CrashReport for a terminal internal failure (for the
        breaker's ``CircuitOpen.report_path``) when saving is on."""
        if not self.save_reports:
            return None
        report = CrashReport.from_exception(
            exc, kernel=request.job.spec.kernel_name, engine=engine)
        return report.save(self.report_dir)

    def _launch_attempt(self, request: _Request, module, compiled,
                        deadline: Optional[Deadline], *, engine: str,
                        fresh: bool, retry: Optional[dict]) -> LaunchResult:
        """One launch attempt on a pooled (or, for retries, fresh) device.

        Program faults are isolated here into ``ok=False`` results;
        internal faults propagate to the retry loop.
        """
        job = request.job
        spec = job.spec
        run_spec = spec
        if fresh:
            run_spec = run_spec.replace(engine=ENGINE_DECODED)
        if deadline is not None:
            # The *remaining* budget becomes the device watchdog.
            run_spec = run_spec.replace(
                watchdog_s=clamp_watchdog(spec.watchdog_s, deadline),
                deadline_s=None)
        sanitize = bool(spec.sanitize)
        if fresh:
            gpu = VirtualGPU(module, config=self.gpu_config, sanitize=sanitize)
            gpu._per_op = True
        else:
            gpu = self.pool.acquire(module, self.gpu_config, sanitize=sanitize)
        try:
            if request.make_args is not None:
                run_spec = run_spec.replace(
                    args=tuple(request.make_args(gpu, compiled)))
            result = gpu.run(run_spec)
            result.submitted_s = job.submitted_s
            if request.finalize is not None:
                result.payload = request.finalize(gpu, result)
            if not fresh:
                self.pool.release(gpu, module, self.gpu_config)
            return result
        except PROGRAM_FAULTS as exc:
            # Deterministic property of the program: isolate as a
            # CrashReport-carrying failed result, keep the device.
            result = self._failed_result(job, run_spec, exc, gpu, engine,
                                         retry=retry)
            if not fresh:
                self.pool.release(gpu, module, self.gpu_config)
            return result
        except Exception:
            # Internal engine fault: the device may be inconsistent.
            if not fresh:
                self.pool.discard(gpu)
            raise

    def _failed_result(self, job, spec, exc, gpu, engine,
                       retry: Optional[dict] = None) -> LaunchResult:
        # The plan the run used: run() has already restored the
        # device's own plan by the time the exception arrives here.
        report = CrashReport.from_exception(
            exc, kernel=spec.kernel_name, engine=engine,
            fault_plan=gpu.fault_plan_for(spec),
            trace=gpu._trace,
        )
        if retry is not None:
            report.retry = retry
        path = report.save(self.report_dir) if self.save_reports else None
        return LaunchResult(
            spec=spec, profile=None, engine=engine, ok=False,
            report=report, report_path=path, retried=retry is not None,
            submitted_s=job.submitted_s, started_s=None,
            finished_s=time.monotonic(),
        )
