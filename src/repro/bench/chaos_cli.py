"""``python -m repro.bench chaos`` — chaos/soak harness for ``repro.serve``.

Runs a scripted set of failure scenarios against dedicated
:class:`~repro.serve.SimulationService` instances — worker deaths,
compile stalls, slow requests, saturation, mid-load drain — and asserts
the resilience invariants the serving layer promises:

* **No request lost** — every admitted job resolves, with a result or
  a structured error; nothing hangs, nothing vanishes.
* **Every failure is structured** — program faults come back as
  ``ok=False`` results; shed/cancelled/internal failures raise
  :class:`~repro.serve.errors.ServeError` subclasses (or the
  deliberately injected :class:`~repro.serve.chaos.InjectedWorkerDeath`
  when the retry budget is exhausted on purpose).
* **Shedding is fast** — when the service sheds (deadline, breaker),
  the p99 time-to-verdict stays bounded instead of queueing behind the
  slow work being shed.
* **The breaker closes the loop** — it opens after the configured
  consecutive failures, sheds with
  :class:`~repro.serve.errors.CircuitOpen`, half-opens on the probe
  schedule, re-opens on a failed probe and closes on a good one.

The report is written to ``BENCH_chaos.json`` (tracked; ``--smoke``
runs the same scenarios at reduced request counts and does *not*
overwrite it).  The invariants are the gate: the CLI exits non-zero
when one fails.  The report's wall times describe the run and gate
nothing; host wall time is measured by ``perfbench/``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import record
from repro.bench.record import percentiles
from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions
from repro.ir.types import I64
from repro.serve import (
    AdmissionRejected,
    BreakerPolicy,
    CircuitOpen,
    DeadlineExceeded,
    LaunchSpec,
    RequestCancelled,
    RetryPolicy,
    ServeError,
    ServiceClosed,
    SimulationService,
)
from repro.serve.chaos import InjectedWorkerDeath
from repro.vgpu.errors import SimulationError

#: Default output file, committed at the repo root.
DEFAULT_OUTPUT = "BENCH_chaos.json"

#: Every exception class a served request may legitimately resolve
#: with under chaos.  Anything else is an *unstructured* failure and
#: fails the harness.
STRUCTURED_ERRORS = (ServeError, SimulationError, InjectedWorkerDeath)


def _chaos_program(tag: str) -> A.Program:
    """A tiny single-kernel program; *tag* varies the translation unit
    so scenarios that must re-compile get a fresh fingerprint."""
    return A.Program(
        f"chaos_{tag}",
        kernels=[A.KernelDef(
            "empty",
            params=[A.Param("n", I64)],
            trip_count=A.Arg("n"),
            body=[],
        )],
    )


def _spec(**overrides: Any) -> LaunchSpec:
    base = dict(kernel="empty", num_teams=1, threads_per_team=4)
    base.update(overrides)
    return LaunchSpec(**base)


def _make_args(gpu, compiled):
    return compiled.abi("empty").marshal(gpu, {"n": 8})


class _Outcome:
    """One submitted request's terminal verdict, for the invariants."""

    __slots__ = ("request_id", "kind", "detail", "verdict_s")

    def __init__(self, request_id: str, kind: str, detail: str,
                 verdict_s: float) -> None:
        self.request_id = request_id
        self.kind = kind          # ok | fault | shed_deadline | shed_breaker
        self.detail = detail      # | cancelled | internal | lost | unstructured
        self.verdict_s = verdict_s

    def to_dict(self) -> Dict[str, Any]:
        return {"request_id": self.request_id, "kind": self.kind,
                "detail": self.detail, "verdict_s": round(self.verdict_s, 6)}


def _settle(job, timeout: float = 60.0) -> _Outcome:
    """Wait one job out and classify its terminal outcome."""
    t0 = time.perf_counter()
    try:
        result = job.result(timeout=timeout)
    except DeadlineExceeded as exc:
        return _Outcome(job.request_id, "shed_deadline", exc.stage,
                        time.perf_counter() - t0)
    except CircuitOpen as exc:
        return _Outcome(job.request_id, "shed_breaker", exc.key,
                        time.perf_counter() - t0)
    except RequestCancelled:
        return _Outcome(job.request_id, "cancelled", "",
                        time.perf_counter() - t0)
    except STRUCTURED_ERRORS as exc:
        return _Outcome(job.request_id, "internal", type(exc).__name__,
                        time.perf_counter() - t0)
    except TimeoutError:
        return _Outcome(job.request_id, "lost", "result() timed out",
                        time.perf_counter() - t0)
    except Exception as exc:  # the invariant violation we hunt for
        return _Outcome(job.request_id, "unstructured",
                        f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - t0)
    kind = "ok" if result.ok else "fault"
    detail = "" if result.ok else (result.report.error_type
                                   if result.report else "?")
    if result.retried:
        detail = (detail + "+retried").lstrip("+")
    return _Outcome(job.request_id, kind, detail, time.perf_counter() - t0)


def _invariant(name: str, ok: bool, detail: str = "") -> Dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _accounting_invariants(service: SimulationService,
                           outcomes: Sequence[_Outcome]) -> List[Dict[str, Any]]:
    """The cross-scenario invariants: nothing lost, nothing raw."""
    stats = service.stats.to_dict()
    lost = [o.request_id for o in outcomes if o.kind == "lost"]
    raw = [f"{o.request_id} ({o.detail})" for o in outcomes
           if o.kind == "unstructured"]
    terminal = (stats["completed"] + stats["shed_deadline"]
                + stats["shed_breaker"] + stats["cancelled"]
                + stats["internal_errors"])
    return [
        _invariant("no_request_lost", not lost,
                   f"unresolved: {lost}" if lost else ""),
        _invariant("all_failures_structured", not raw,
                   f"raw exceptions: {raw}" if raw else ""),
        _invariant(
            "accounting_balances", stats["submitted"] == terminal,
            f"submitted {stats['submitted']} != terminal {terminal}"
            if stats["submitted"] != terminal else "",
        ),
    ]


def _counts(outcomes: Sequence[_Outcome]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for o in outcomes:
        counts[o.kind] = counts.get(o.kind, 0) + 1
    return counts


# --------------------------------------------------------------- scenarios --


def scenario_baseline(n: int) -> Dict[str, Any]:
    """No chaos: everything completes ok, nothing retries or sheds."""
    outcomes: List[_Outcome] = []
    with SimulationService(workers=2, queue_depth=2 * n) as svc:
        jobs = [svc.submit(_spec(request_id=f"base-{i:03d}"),
                           program=_chaos_program("baseline"),
                           options=CompileOptions(),
                           make_args=_make_args)
                for i in range(n)]
        outcomes = [_settle(j) for j in jobs]
        stats = svc.stats.to_dict()
        invariants = _accounting_invariants(svc, outcomes)
    counts = _counts(outcomes)
    invariants.append(_invariant(
        "all_ok", counts.get("ok", 0) == n,
        f"{counts.get('ok', 0)}/{n} ok: {counts}"))
    invariants.append(_invariant(
        "nothing_retried", stats["retried"] == 0,
        f"retried={stats['retried']}"))
    return {"scenario": "baseline", "requests": n, "counts": counts,
            "stats": stats, "invariants": invariants}


def scenario_retry_recovers(n: int) -> Dict[str, Any]:
    """``worker_die:n=1``: the one killed attempt retries on a fresh
    per-op decoded device and the request still succeeds."""
    outcomes: List[_Outcome] = []
    with SimulationService(
        workers=2, queue_depth=2 * n,
        chaos="worker_die:n=1",
        retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.005,
                                 backoff_cap_s=0.02),
    ) as svc:
        jobs = [svc.submit(_spec(request_id=f"retry-{i:03d}"),
                           program=_chaos_program("retry"),
                           options=CompileOptions(),
                           make_args=_make_args)
                for i in range(n)]
        outcomes = [_settle(j) for j in jobs]
        stats = svc.stats.to_dict()
        chaos = svc._chaos.to_dict()
        invariants = _accounting_invariants(svc, outcomes)
    counts = _counts(outcomes)
    invariants.append(_invariant(
        "all_ok_despite_death", counts.get("ok", 0) == n,
        f"{counts}"))
    invariants.append(_invariant(
        "exactly_one_retry",
        stats["retried"] == 1 and chaos["deaths"] == 1,
        f"retried={stats['retried']} deaths={chaos['deaths']}"))
    return {"scenario": "retry_recovers", "requests": n, "counts": counts,
            "stats": stats, "chaos": chaos, "invariants": invariants}


def scenario_breaker_lifecycle() -> Dict[str, Any]:
    """The breaker's full loop, scripted deterministically.

    ``worker_die:n=4`` with retries off and threshold 3: three failures
    open the breaker; a shed request gets :class:`CircuitOpen` fast;
    after the cooldown the half-open probe *also* dies (4th death),
    re-opening it; the next probe succeeds and closes the circuit.
    """
    cooldown = 0.15
    outcomes: List[_Outcome] = []
    phases: List[Dict[str, Any]] = []
    with SimulationService(
        workers=1, queue_depth=8, save_reports=True,
        chaos="worker_die:n=4",
        retry_policy=RetryPolicy(max_attempts=1),
        breaker_policy=BreakerPolicy(threshold=3, cooldown_s=cooldown),
    ) as svc:
        program = _chaos_program("breaker")

        def one(rid: str) -> _Outcome:
            out = _settle(svc.submit(_spec(request_id=rid), program=program,
                                     options=CompileOptions(),
                                     make_args=_make_args))
            outcomes.append(out)
            return out

        breaker_key = None
        for i in range(3):  # three consecutive internal failures
            one(f"brk-fail-{i}")
        with svc._lock:
            breaker_key = next(iter(svc._breakers), None)
            state_after_failures = (
                svc._breakers[breaker_key].state() if breaker_key else "?")
        phases.append({"phase": "opened", "state": state_after_failures})
        shed = one("brk-shed")  # immediate: shed while open
        phases.append({"phase": "shed_while_open", "outcome": shed.to_dict()})
        time.sleep(cooldown * 1.4)
        probe1 = one("brk-probe-1")  # half-open probe, dies (4th death)
        phases.append({"phase": "failed_probe", "outcome": probe1.to_dict()})
        shed2 = one("brk-shed-2")  # re-opened: shed again
        phases.append({"phase": "shed_after_reopen",
                       "outcome": shed2.to_dict()})
        time.sleep(cooldown * 1.4)
        probe2 = one("brk-probe-2")  # chaos budget spent: probe succeeds
        phases.append({"phase": "good_probe", "outcome": probe2.to_dict()})
        final = one("brk-closed")  # circuit closed again
        with svc._lock:
            final_state = (svc._breakers[breaker_key].state()
                           if breaker_key else "?")
        stats = svc.stats.to_dict()
        chaos = svc._chaos.to_dict()
        health = svc.health()
        invariants = _accounting_invariants(svc, outcomes)

    invariants += [
        _invariant("breaker_opened", state_after_failures == "open",
                   f"state after 3 failures: {state_after_failures}"),
        _invariant("open_sheds_circuitopen",
                   shed.kind == "shed_breaker" and
                   shed2.kind == "shed_breaker",
                   f"shed={shed.kind} shed2={shed2.kind}"),
        _invariant("failed_probe_reopens",
                   probe1.kind == "internal"
                   and stats["breaker_opens"] == 2,
                   f"probe1={probe1.kind} opens={stats['breaker_opens']}"),
        _invariant("good_probe_closes",
                   probe2.kind == "ok" and final.kind == "ok"
                   and final_state == "closed",
                   f"probe2={probe2.kind} final={final.kind} "
                   f"state={final_state}"),
        _invariant(
            "shed_is_fast",
            max(shed.verdict_s, shed2.verdict_s) < 0.1,
            f"shed verdicts: {shed.verdict_s:.4f}s {shed2.verdict_s:.4f}s"),
    ]
    return {"scenario": "breaker_lifecycle", "requests": len(outcomes),
            "counts": _counts(outcomes), "stats": stats, "chaos": chaos,
            "phases": phases, "health": health, "invariants": invariants,
            "shed_latency_s": [round(shed.verdict_s, 6),
                               round(shed2.verdict_s, 6)]}


def scenario_deadline_shed(n: int) -> Dict[str, Any]:
    """``slow_request:ms`` behind one worker: queued requests outlive
    their deadline and are shed in queue, with bounded verdict time."""
    slow_ms = 80
    deadline_s = 0.12
    with SimulationService(workers=1, queue_depth=2 * n + 1,
                           chaos=f"slow_request:ms={slow_ms}") as svc:
        program = _chaos_program("deadline")
        # Warm the compile memo without a deadline so the deadlined
        # batch measures queueing, not first-compile cost.
        warm = _settle(svc.submit(_spec(request_id="ddl-warm"),
                                  program=program, options=CompileOptions(),
                                  make_args=_make_args))
        jobs = [svc.submit(_spec(request_id=f"ddl-{i:03d}",
                                 deadline_s=deadline_s),
                           program=program, options=CompileOptions(),
                           make_args=_make_args)
                for i in range(n)]
        outcomes = [warm] + [_settle(j) for j in jobs]
        stats = svc.stats.to_dict()
        invariants = _accounting_invariants(svc, outcomes)
    counts = _counts(outcomes)
    shed = [o for o in outcomes if o.kind == "shed_deadline"]
    shed_verdicts = [o.verdict_s for o in shed]
    invariants += [
        _invariant("some_requests_survive", counts.get("ok", 0) >= 1,
                   f"{counts}"),
        _invariant("backlog_is_shed", len(shed) >= 1, f"{counts}"),
        _invariant(
            "shed_in_queue_or_compile",
            all(o.detail in ("queue", "compile", "retry") for o in shed),
            f"stages: {sorted({o.detail for o in shed})}"),
        _invariant(
            "shed_p99_bounded",
            not shed_verdicts
            or percentiles(shed_verdicts)["p99"] < n * slow_ms / 1000.0,
            f"p99={percentiles(shed_verdicts)['p99'] if shed_verdicts else 0}s "
            f"vs full-queue {n * slow_ms / 1000.0}s"),
    ]
    return {"scenario": "deadline_shed", "requests": n + 1, "counts": counts,
            "stats": stats,
            "config": {"slow_ms": slow_ms, "deadline_s": deadline_s},
            "shed_latency_s": [round(v, 6) for v in shed_verdicts],
            "invariants": invariants}


def scenario_compile_stall() -> Dict[str, Any]:
    """``compile_stall:ms`` longer than the deadline: the request is
    shed right after the stalled compile, at the compile stage."""
    with SimulationService(workers=1,
                           chaos="compile_stall:ms=250") as svc:
        job = svc.submit(_spec(request_id="stall-000", deadline_s=0.1),
                         program=_chaos_program("stall"),
                         options=CompileOptions(), make_args=_make_args)
        out = _settle(job)
        stats = svc.stats.to_dict()
        chaos = svc._chaos.to_dict()
        invariants = _accounting_invariants(svc, [out])
    invariants += [
        _invariant("stall_fired", chaos["stalls"] == 1, f"{chaos}"),
        _invariant("shed_at_compile_stage",
                   out.kind == "shed_deadline" and out.detail == "compile",
                   f"outcome: {out.to_dict()}"),
    ]
    return {"scenario": "compile_stall", "requests": 1,
            "counts": _counts([out]), "stats": stats, "chaos": chaos,
            "invariants": invariants}


def scenario_drain_under_load(n: int) -> Dict[str, Any]:
    """``close(deadline_s=...)`` mid-load: running work drains, queued
    work is cancelled (not dropped), late submits are refused."""
    with SimulationService(workers=1, queue_depth=2 * n,
                           chaos="slow_request:ms=60") as svc:
        program = _chaos_program("drain")
        jobs = [svc.submit(_spec(request_id=f"drn-{i:03d}"),
                           program=program, options=CompileOptions(),
                           make_args=_make_args)
                for i in range(n)]
        svc.close(deadline_s=0.15)
        late_refused = False
        try:
            svc.submit(_spec(request_id="drn-late"), program=program,
                       options=CompileOptions(), make_args=_make_args)
        except ServiceClosed:
            late_refused = True
        outcomes = [_settle(j) for j in jobs]
        stats = svc.stats.to_dict()
        invariants = _accounting_invariants(svc, outcomes)
    counts = _counts(outcomes)
    invariants += [
        _invariant("drain_completes_some", counts.get("ok", 0) >= 1,
                   f"{counts}"),
        _invariant("queued_work_cancelled_not_dropped",
                   counts.get("cancelled", 0) >= 1
                   and stats["cancelled"] == counts.get("cancelled", 0),
                   f"{counts} stats.cancelled={stats['cancelled']}"),
        _invariant("late_submit_refused", late_refused, ""),
    ]
    return {"scenario": "drain_under_load", "requests": n, "counts": counts,
            "stats": stats, "invariants": invariants}


def scenario_saturation_hints(n: int) -> Dict[str, Any]:
    """Overload past capacity: rejects carry drain-rate ``retry_after_s``
    hints, and backing off by the hint eventually admits everything."""
    hints: List[float] = []
    outcomes: List[_Outcome] = []
    lock = threading.Lock()
    with SimulationService(workers=2, queue_depth=2) as svc:
        program = _chaos_program("saturate")

        def tenant(t: int) -> None:
            for i in range(n):
                while True:
                    try:
                        job = svc.submit(
                            _spec(request_id=f"sat-{t}-{i:03d}"),
                            program=program, options=CompileOptions(),
                            make_args=_make_args)
                        break
                    except AdmissionRejected as exc:
                        with lock:
                            hints.append(exc.retry_after_s or 0.0)
                        time.sleep(max(exc.retry_after_s or 0.0, 0.001))
                out = _settle(job)
                with lock:
                    outcomes.append(out)

        threads = [threading.Thread(target=tenant, args=(t,))
                   for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        stats = svc.stats.to_dict()
        health = svc.health()
        invariants = _accounting_invariants(svc, outcomes)
    counts = _counts(outcomes)
    invariants += [
        _invariant("everything_eventually_admitted",
                   counts.get("ok", 0) == 4 * n, f"{counts}"),
        _invariant("rejects_carry_positive_hints",
                   all(h > 0 for h in hints),
                   f"{len(hints)} rejects, min hint "
                   f"{min(hints) if hints else None}"),
    ]
    return {"scenario": "saturation_hints", "requests": 4 * n,
            "counts": counts, "stats": stats, "rejections": len(hints),
            "health": {k: health[k] for k in
                       ("workers_alive", "drain_rate_rps", "retry_after_s")},
            "invariants": invariants}


# ----------------------------------------------------------------- harness --


def chaos_suite(smoke: bool = False) -> Dict[str, Any]:
    """Run every scenario and collect the invariant verdicts."""
    n = 4 if smoke else 12
    scenarios: List[Tuple[str, Callable[[], Dict[str, Any]]]] = [
        ("baseline", lambda: scenario_baseline(n)),
        ("retry_recovers", lambda: scenario_retry_recovers(n)),
        ("breaker_lifecycle", scenario_breaker_lifecycle),
        ("deadline_shed", lambda: scenario_deadline_shed(max(4, n // 2))),
        ("compile_stall", scenario_compile_stall),
        ("drain_under_load", lambda: scenario_drain_under_load(max(5, n // 2))),
        ("saturation_hints", lambda: scenario_saturation_hints(max(2, n // 4))),
    ]
    t0 = time.perf_counter()
    results = []
    for _, fn in scenarios:
        results.append(fn())
    wall = time.perf_counter() - t0
    failed = [
        f"{res['scenario']}.{inv['name']}"
        for res in results for inv in res["invariants"] if not inv["ok"]
    ]
    shed_latencies = [v for res in results
                      for v in res.get("shed_latency_s", ())]
    return {
        "benchmark": "chaos",
        "schema_version": record.SCHEMA_VERSION,
        "meta": record.meta_block(),
        "config": {
            "smoke": bool(smoke),
            "requests_per_scenario": n,
            "scenarios": [name for name, _ in scenarios],
        },
        "ok": not failed,
        "failed_invariants": failed,
        "totals": {
            "scenarios": len(results),
            "requests": sum(r["requests"] for r in results),
            "invariants": sum(len(r["invariants"]) for r in results),
        },
        "wall_seconds": round(wall, 6),
        "shed_latency_s": percentiles(shed_latencies),
        "scenarios_detail": results,
    }


def render_json(report: Dict[str, Any], indent: int = 2) -> str:
    return json.dumps(report, indent=indent, sort_keys=True)


def write_report(report: Dict[str, Any], path: str = DEFAULT_OUTPUT) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(report) + "\n")
    return path


def format_chaos(report: Dict[str, Any]) -> str:
    """Human-readable chaos verdict table."""
    lines = [
        f"chaos suite: {report['totals']['scenarios']} scenarios, "
        f"{report['totals']['requests']} requests, "
        f"{report['totals']['invariants']} invariants "
        f"in {report['wall_seconds']:.2f}s",
    ]
    for res in report["scenarios_detail"]:
        verdict = "ok" if all(i["ok"] for i in res["invariants"]) else "FAIL"
        counts = ", ".join(f"{k}={v}" for k, v in sorted(res["counts"].items()))
        lines.append(f"  [{verdict:>4}] {res['scenario']:<20} "
                     f"requests={res['requests']:<3} {counts}")
        for inv in res["invariants"]:
            if not inv["ok"]:
                lines.append(f"         FAILED {inv['name']}: {inv['detail']}")
    shed = report["shed_latency_s"]
    if shed["n"]:
        lines.append(f"  shed verdict p50 {shed['p50'] * 1e3:.1f} ms   "
                     f"p99 {shed['p99'] * 1e3:.1f} ms  (n={shed['n']})")
    lines.append("chaos invariants: "
                 + ("ALL OK" if report["ok"]
                    else f"FAILED {report['failed_invariants']}"))
    return "\n".join(lines)
