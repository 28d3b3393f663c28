"""``repro.serve`` — the multi-tenant async simulation service.

:class:`SimulationService` accepts many concurrent compile+run requests
described by :class:`~repro.vgpu.LaunchSpec` and runs them in submission
order on one worker thread (under the GIL, more threads only interleave):

* **Admission control** — at most ``1 + queue_depth`` requests (the
  running one plus the queue) may be unfinished at once; beyond that
  ``submit()`` raises a structured :class:`~repro.serve.errors.
  AdmissionRejected` carrying a ``retry_after_s`` back-off hint derived
  from the observed queue drain rate.
* **One time budget** — a spec's ``deadline_s`` counts from
  ``submit()`` and flows request→queue→compile→launch: a request that
  expires while queued or compiling is shed with
  :class:`~repro.serve.errors.DeadlineExceeded` *before* wasting the
  worker, and the **remaining** budget (never the original) becomes
  the ``deadline_s`` of the launch itself.
* **Shared compilation** — the :class:`~repro.serve.pool.DevicePool`
  is the service's one table of per-program state, keyed by compile
  fingerprint (or ``module:<id>`` for a submitted module): the live
  program, its circuit breaker and its idle warm device.  A miss
  compiles through one :class:`~repro.toolchain.service.
  ToolchainSession` (the content-addressed compile cache); a hit
  shares the row's module across tenants.  The table holds at most
  ``REPRO_CACHE_SIZE`` programs and evicts the least recently used
  with everything it holds.
* **Warm devices** — a finished device is reset (not rebuilt) and
  reused; decode bindings survive across requests.  One request runs
  at a time, so one warm device per program is all the pool keeps.
* **Failure isolation** — a program fault (trap, sanitizer diagnostic,
  injected fault, expired budget) becomes an ``ok=False``
  :class:`~repro.vgpu.LaunchResult` carrying a deduplicated
  :class:`~repro.faults.report.CrashReport`; it never leaks as an
  exception into other tenants.  An *internal* fault reruns the
  request once on a fresh per-op decoded device; a second internal
  fault propagates.  This is the project's only fallback run: a
  one-off guarded launch is
  ``SimulationService().run(spec, module=..., make_args=...)``.
* **Circuit breaking** — consecutive internal failures of one
  (program, options) open its :class:`~repro.serve.resilience.
  CircuitBreaker`; further requests shed fast with
  :class:`~repro.serve.errors.CircuitOpen` (carrying the probable
  crash-report path) until a half-open probe succeeds.
* **Graceful drain** — ``close(deadline_s=...)`` stops intake, drains
  in-flight work within the budget and cancels what is still queued;
  :meth:`ServeJob.cancel` releases individual queued requests.  A
  :class:`ServeJob` is the executor's own future, so a cancel or a
  drain races the worker only through the executor's atomic
  queued→running switch.  :meth:`health` reports
  queue depth, breaker states, worker liveness and the
  shed/retry/cancel counters (also exported as trace counters).
* **Traceability** — when the :mod:`repro.trace` collector is active,
  every request's id is threaded from the ``serve.submit`` instant
  through the ``serve.request`` span and per-launch ``serve.attempt``
  spans into the device timeline.

Results are bit-identical to a direct ``VirtualGPU.run(spec)`` of the
same spec — profiles, traces and fault firing — pinned by
``tests/serve/test_service.py``.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro import envconfig
from repro.faults.report import PROGRAM_FAULTS, CrashReport
from repro.serve.errors import (
    AdmissionRejected,
    CircuitOpen,
    DeadlineExceeded,
    RequestCancelled,
    ServiceClosed,
)
from repro.serve.pool import DevicePool, ProgramEntry
from repro.serve.resilience import (
    BreakerOpenSignal,
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    DrainRateTracker,
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


def resolve_serve_queue(queue_depth: Optional[int] = None) -> int:
    """Effective queue depth: explicit, else ``REPRO_SERVE_QUEUE``."""
    if queue_depth is None:
        queue_depth = envconfig.serve_queue()
    return max(0, int(queue_depth))


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
    retried: int = 0       # requests served by the fallback run
    compiles: int = 0      # program-table misses (session compiles)
    attempts: int = 0      # launches executed (fallback runs included)
    cancelled: int = 0     # queued requests cancelled before running
    shed_deadline: int = 0  # requests shed with DeadlineExceeded
    shed_breaker: int = 0   # requests shed with CircuitOpen
    breaker_opens: int = 0  # circuit-breaker open transitions
    internal_errors: int = 0  # requests resolved with an internal exception

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class ServeJob:
    """Handle for one admitted request: its identity and budget, and the
    executor's own future for it.

    ``state`` reads the future: ``queued``, ``running``, ``done`` or
    ``cancelled``.
    """

    def __init__(self, request_id: str, spec: LaunchSpec, submitted_s: float,
                 deadline: Optional[Deadline] = None) -> None:
        self.request_id = request_id
        self.spec = spec
        self.submitted_s = submitted_s
        self.deadline = deadline
        #: The executor's future, set when the service hands it over.
        self.future: "Future[LaunchResult]" = None  # type: ignore[assignment]

    @property
    def state(self) -> str:
        future = self.future
        if future.cancelled():
            return "cancelled"
        if future.done():
            return "done"
        return "running" if future.running() else "queued"

    @property
    def cancelled(self) -> bool:
        return self.future.cancelled()

    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: Optional[float] = None) -> LaunchResult:
        """The request's :class:`LaunchResult`.

        Program faults come back as ``ok=False`` results; shed requests
        (deadline, breaker, cancellation) and internal failures that
        the fallback run could not absorb raise their structured error.
        A *timeout here* raises ``TimeoutError`` without consuming the
        request — call :meth:`cancel` to release a queued slot you no
        longer want to wait for.
        """
        try:
            return self.future.result(timeout)
        except CancelledError:
            raise RequestCancelled(
                f"request {self.request_id} cancelled while queued",
                request_id=self.request_id) from None

    def cancel(self) -> bool:
        """Cancel this request if it has not started executing.

        Returns True when this call cancelled the still-queued request
        (its ``result`` now raises
        :class:`~repro.serve.errors.RequestCancelled` and its admission
        slot is released); False when it is already cancelled, running
        or finished — a launched request cannot be recalled.  The
        executor's own queued→running switch decides a race with the
        worker: the request is either cancelled or runs, never both.
        """
        return not self.future.cancelled() and self.future.cancel()


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
    ``workers`` accepts only 1, the one worker every service runs.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        queue_depth: Optional[int] = None,
        session: Optional[ToolchainSession] = None,
        gpu_config: Optional[GPUConfig] = None,
        save_reports: bool = False,
        report_dir: Optional[str] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
    ) -> None:
        if workers != 1:
            raise ValueError(
                f"a SimulationService runs every request on one worker; "
                f"workers={workers!r} is not supported")
        self.queue_depth = resolve_serve_queue(queue_depth)
        #: Admission capacity: the running request plus the queue;
        #: unfinished requests beyond this are rejected at submit() time.
        self.capacity = 1 + self.queue_depth
        self.session = session or ToolchainSession()
        self.gpu_config = gpu_config or GPUConfig()
        self.pool = DevicePool()
        self.save_reports = save_reports
        self.report_dir = report_dir
        self.breaker_policy = BreakerPolicy.resolve(breaker_policy)
        self.stats = ServeStats()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        self._in_flight = 0
        self._running = 0   # 1 while the worker executes a request
        self._closed = False
        self._ids = itertools.count(1)
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
        picked up by the worker during the drain get at most the
        remaining drain budget.  Without a budget the drain is
        unbounded.  Idempotent.
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
        self._executor.shutdown(wait=True, cancel_futures=True)

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
                raise AdmissionRejected(
                    f"service saturated: {self._in_flight} in flight "
                    f">= capacity {self.capacity}",
                    in_flight=self._in_flight,
                    capacity=self.capacity,
                    request_id=rid,
                    retry_after_s=self._drain_rate.retry_after_s(
                        self._in_flight),
                )
            self._in_flight += 1
            self.stats.submitted += 1
            if rid is None:
                rid = f"r{next(self._ids):06d}"
        spec = spec if spec.request_id == rid else spec.replace(request_id=rid)
        deadline = (Deadline(spec.deadline_s)
                    if spec.deadline_s is not None else None)
        job = ServeJob(rid, spec, time.monotonic(), deadline=deadline)
        request = _Request(job, program, options, module, make_args, finalize)
        try:
            job.future = self._executor.submit(self._run_request, request)
        except RuntimeError:
            # close() shut the executor down after the _closed check:
            # the request was never admitted, so undo its accounting.
            with self._lock:
                self._in_flight -= 1
                self.stats.submitted -= 1
            raise ServiceClosed("service is closed; no new requests") from None
        job.future.add_done_callback(
            lambda future: self._release_if_cancelled(job, future))
        trace = _active_trace()
        if trace is not None:
            trace.instant("serve.submit", cat=SERVE_EVENT_CATEGORY,
                          request_id=rid, kernel=spec.kernel_name,
                          tag=spec.tag)
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
        baseline order head) unless explicit *options* are given; the
        app's own build settings (:func:`repro.apps.common.app_options`)
        apply to either.
        Keyword *spec_overrides* (engine=, deadline_s=,
        request_id=, ...) refine the app's default grid spec.  With
        ``verify=True`` the result's ``payload`` carries
        ``{"max_error": ...}`` computed in-worker against the NumPy
        reference.
        """
        from repro.apps.common import app_options, prepare_launch
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
        options = app_options(app, options)
        if spec is None:
            spec = LaunchSpec(kernel=app.KERNEL, num_teams=app.TEAMS,
                              threads_per_team=app.THREADS)
        if spec_overrides:
            spec = spec.replace(**spec_overrides)

        holder: Dict[str, Any] = {}

        def make_args(gpu: VirtualGPU, compiled) -> Sequence[Any]:
            args, holder["check"] = prepare_launch(app, gpu, compiled, size)
            return args

        def finalize(gpu: VirtualGPU, result: LaunchResult) -> Any:
            return {"max_error": holder.pop("check")()}

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
        with self._lock:
            in_flight = self._in_flight
            queued = in_flight - self._running
            closed = self._closed
            draining = self._drain_deadline is not None
            stats = self.stats.to_dict()
        breakers = self.pool.breakers()
        threads = getattr(self._executor, "_threads", ()) or ()
        workers_alive = sum(1 for t in threads if t.is_alive())
        rate = self._drain_rate.rate_per_s()
        out = {
            "closed": closed,
            "draining": draining,
            "in_flight": in_flight,
            "queued": queued,
            "running": in_flight - queued,
            "capacity": self.capacity,
            "workers_alive": workers_alive,
            "drain_rate_rps": round(rate, 3) if rate is not None else None,
            "retry_after_s": round(self._drain_rate.retry_after_s(in_flight),
                                   6),
            "breakers": breakers,
            "breakers_open": sum(
                1 for b in breakers.values() if b["state"] != "closed"),
            "stats": stats,
            "pool": self.pool.stats.to_dict(),
        }
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

    def _release_if_cancelled(self, job: ServeJob, future: Future) -> None:
        # The worker releases every request it runs before resolving
        # its future; a request cancelled in the queue (cancel() or a
        # bounded drain) never reaches the worker, so its admission
        # slot is released here, once, as the cancellation lands.
        if not future.cancelled():
            return
        with self._lock:
            self.stats.cancelled += 1
            self._in_flight -= 1
        trace = _active_trace()
        if trace is not None:
            trace.instant("serve.cancel", cat=SERVE_EVENT_CATEGORY,
                          request_id=job.request_id)

    def _retry_after_hint(self) -> float:
        with self._lock:
            return self._drain_rate.retry_after_s(self._in_flight)

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

    def _compile(self, program, options):
        """A table miss: compile through the session cache."""
        compiled = self.session.compile(program, options)
        with self._lock:
            self.stats.compiles += 1
        return compiled

    def _run_request(self, request: _Request) -> LaunchResult:
        """Worker body.  The admission slot is released here, before
        the executor resolves the job's future with the return value
        or the raised error, so a client that resubmits as soon as
        ``result()`` returns is never bounced by its own old request."""
        with self._lock:
            self._running = 1
        try:
            result = self._execute(request)
        except BaseException as exc:
            with self._lock:
                self._in_flight -= 1
                self._running = 0
                if isinstance(exc, DeadlineExceeded):
                    self.stats.shed_deadline += 1
                elif isinstance(exc, CircuitOpen):
                    self.stats.shed_breaker += 1
                else:
                    self.stats.internal_errors += 1
            self._drain_rate.record_completion()
            raise
        with self._lock:
            self._in_flight -= 1
            self._running = 0
            self.stats.completed += 1
            if not result.ok:
                self.stats.failed += 1
            if result.retried:
                self.stats.retried += 1
        self._drain_rate.record_completion()
        return result

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
        deadline = Deadline.combine(job.deadline, self._drain_deadline)
        if deadline is not None and deadline.expired():
            self._shed_deadline(job, deadline, "queue")

        if request.module is not None:
            entry = self.pool.module_entry(request.module)
        else:
            from repro.frontend.driver import CompileOptions

            options = request.options or CompileOptions()
            entry = self.pool.entry(
                compile_fingerprint(request.program, options),
                lambda: self._compile(request.program, options))
            if deadline is not None and deadline.expired():
                self._shed_deadline(job, deadline, "compile")

        # Admitted only once nothing but the launch is left, so that a
        # half-open breaker's probe always reports back.  The breaker
        # lives in the program's row, so while the row lives an open
        # breaker costs no compile.
        if self.breaker_policy.enabled:
            if entry.breaker is None:
                entry.breaker = CircuitBreaker(entry.key, self.breaker_policy)
            try:
                entry.breaker.admit()
            except BreakerOpenSignal as sig:
                self._shed_breaker(job, sig)
        return self._launch(request, entry, deadline)

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

    def _launch(self, request: _Request, entry: ProgramEntry,
                deadline: Optional[Deadline]) -> LaunchResult:
        """Run the request, with one fallback run on an internal failure.

        The first launch uses the spec's engine on a pooled device.  An
        internal failure (never a program fault) reruns the request once
        on a fresh decoded device that executes op by op
        (``VirtualGPU._per_op``), away from the generated fused code the
        fault most likely came from.  The simulator is deterministic, so
        a further rerun would only repeat the fallback: its internal
        failure propagates and counts once against the breaker.
        """
        spec = request.job.spec
        first_engine = resolve_sim_engine(spec.engine)
        try:
            result = self._launch_attempt(request, entry, deadline,
                                          engine=first_engine)
        except PROGRAM_FAULTS:
            raise  # defensive: program faults are handled per launch
        except Exception as exc:
            retry = {
                "from_engine": first_engine,
                "to_engine": ENGINE_DECODED,
                "error_type": type(exc).__name__,
                "message": str(exc),
                "attempt": 1,
            }
            report = CrashReport.from_exception(
                exc, kernel=spec.kernel_name, engine=first_engine)
            report.retry = retry
            result = self._fallback(request, entry, deadline, retry)
            if result.report is None:
                # Successful fallback: keep the internal fault on record.
                result.report = report
                if self.save_reports:
                    result.report_path = report.save(self.report_dir)
            result.retried = True
        # Structurally completed: ok result or isolated program fault.
        if entry.breaker is not None:
            entry.breaker.record_success()
        return result

    def _fallback(self, request: _Request, entry: ProgramEntry,
                  deadline: Optional[Deadline], retry: dict) -> LaunchResult:
        """The one rerun on a fresh per-op decoded device."""
        try:
            return self._launch_attempt(request, entry, deadline,
                                        engine=ENGINE_DECODED, retry=retry)
        except PROGRAM_FAULTS:
            raise
        except Exception as exc:
            breaker = entry.breaker
            if breaker is not None and breaker.record_failure(
                    self._internal_report_path(request, exc,
                                               ENGINE_DECODED)):
                with self._lock:
                    self.stats.breaker_opens += 1
                trace = _active_trace()
                if trace is not None:
                    trace.instant("serve.breaker_open",
                                  cat=SERVE_EVENT_CATEGORY,
                                  request_id=request.job.request_id,
                                  key=breaker.key)
            raise

    def _internal_report_path(self, request: _Request, exc: Exception,
                              engine: str) -> Optional[str]:
        """Save a CrashReport for a terminal internal failure (for the
        breaker's ``CircuitOpen.report_path``) when saving is on."""
        if not self.save_reports:
            return None
        report = CrashReport.from_exception(
            exc, kernel=request.job.spec.kernel_name, engine=engine)
        return report.save(self.report_dir)

    def _launch_attempt(self, request: _Request, entry: ProgramEntry,
                        deadline: Optional[Deadline], *, engine: str,
                        retry: Optional[dict] = None) -> LaunchResult:
        """One launch: on a pooled device, or for the fallback run
        (*retry* set) on a fresh per-op decoded device.

        Program faults are isolated here into ``ok=False`` results;
        internal faults propagate to :meth:`_launch`.
        """
        job = request.job
        spec = job.spec
        fresh = retry is not None
        trace = _active_trace()
        span = (trace.span("serve.attempt", cat=SERVE_EVENT_CATEGORY,
                           request_id=job.request_id, attempt=1 + fresh,
                           engine=engine)
                if trace is not None else nullcontext())
        with self._lock:
            self.stats.attempts += 1
        with span:
            run_spec = spec
            if fresh:
                run_spec = run_spec.replace(engine=ENGINE_DECODED)
            if deadline is not None:
                # The launch gets the *remaining* budget as its own.
                run_spec = run_spec.replace(
                    deadline_s=deadline.remaining_s())
            sanitize = bool(spec.sanitize)
            if fresh:
                gpu = VirtualGPU(entry.module, config=self.gpu_config,
                                 sanitize=sanitize)
                gpu._per_op = True
            else:
                gpu = self.pool.acquire(entry, self.gpu_config,
                                        sanitize=sanitize)
            try:
                if request.make_args is not None:
                    run_spec = run_spec.replace(
                        args=tuple(request.make_args(gpu, entry.compiled)))
                result = gpu.run(run_spec)
                result.submitted_s = job.submitted_s
                if request.finalize is not None:
                    result.payload = request.finalize(gpu, result)
                if not fresh:
                    self.pool.release(gpu, entry)
                return result
            except PROGRAM_FAULTS as exc:
                # Deterministic property of the program: isolate as a
                # CrashReport-carrying failed result, keep the device.
                result = self._failed_result(job, run_spec, exc, gpu,
                                             engine, retry=retry)
                if not fresh:
                    self.pool.release(gpu, entry)
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
