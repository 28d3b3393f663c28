"""CLI: regenerate the paper's figures.

Usage::

    python -m repro.bench fig10 [--jobs N]
    python -m repro.bench fig11 [--jobs N]
    python -m repro.bench fig12 [--jobs N]
    python -m repro.bench fig13 [--jobs N]
    python -m repro.bench oversub
    python -m repro.bench timings [--app APP] [--build BUILD]
    python -m repro.bench trace   [--app APP] [--build BUILD] [--out PATH]
                                  [--metrics-out PATH] [--smoke]
    python -m repro.bench faults  [--smoke] [--json]
    python -m repro.bench micro   [--smoke] [--json] [--out PATH]
    python -m repro.bench json     (machine-readable full report)
    python -m repro.bench all      [--jobs N]

``trace`` runs one (app, build) cell with the :mod:`repro.trace`
collector enabled and writes a Perfetto-viewable Chrome Trace Format
JSON plus a flat metrics JSON (see README "Observability");
``--smoke`` runs the fixed fast cell ``make trace`` uses; the
command exits non-zero when the traced cell fails verification.

``faults`` runs the fault-injection / sanitizer robustness matrix
(testsnap at ``-O0`` on both engines; see README "Robustness") and exits non-zero on any determinism or
degradation failure; ``--smoke`` keeps the three cheapest scenarios.

``micro`` runs the directive-level microbenchmark sweep (per-construct
modeled-cycle costs plus Extra-P-style scaling fits, written to
``BENCH_micro.json``, which tier-1 pins exactly; see README "Perf
tracking"); ``--smoke`` keeps one grid point of the sweep; ``--json``
prints the report instead of the table; the command exits non-zero
when the two engines' modeled numbers disagree.

Host wall time of the engines and the service is measured end to end
by ``perfbench/`` (``make perfbench``), not by this CLI.

``--jobs N`` (or the ``REPRO_JOBS`` environment variable) fans the
independent (app, build) cells of each figure out over N worker
processes; repeated invocations share compilations through the
on-disk compile cache (``.repro-cache/``, see README "Caching &
parallelism").
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import figures
from repro.bench.builds import BUILD_ORDER
from repro.bench.harness import APPS

COMMANDS = (
    "fig10", "fig11", "fig12", "fig13", "oversub", "timings", "trace",
    "faults", "micro", "json", "all",
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument("what", nargs="?", default="all", choices=COMMANDS)
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes for independent (app, build) cells "
             "(default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--app", default="xsbench", choices=sorted(APPS),
        help="app for the timings/trace commands",
    )
    parser.add_argument(
        "--build", default=None, choices=BUILD_ORDER,
        help="build label for the timings/trace commands",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="faults/micro: print the JSON report instead of the table",
    )
    parser.add_argument(
        "--out", default=None,
        help="micro: report path (default BENCH_micro.json; '-' skips "
             "writing); trace: Chrome-trace output path",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="trace: flat metrics JSON path "
             "(default TRACE_<app>_<build>.metrics.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="trace: run the fixed fast (app, build) smoke cell; "
             "faults: run the reduced scenario set; "
             "micro: one grid point of the construct sweep",
    )
    return parser


def main(argv) -> int:
    try:
        args = _parser().parse_args(argv[1:])
    except SystemExit as exc:
        # argparse already printed usage; report the classic status code
        # for unknown figures so scripted callers can branch on it.
        return 2 if exc.code not in (0, None) else 0
    what, jobs = args.what, args.jobs
    if what in ("fig10", "all"):
        print(figures.format_fig10(figures.fig10_relative_performance(jobs=jobs)))
        print()
    if what in ("fig11", "all"):
        print(figures.format_fig11(figures.fig11_resources(jobs=jobs)))
        print()
    if what in ("fig12", "all"):
        print(figures.format_fig12(figures.fig12_gridmini_gflops(jobs=jobs)))
        print()
    if what in ("fig13", "all"):
        print(figures.format_fig13(figures.fig13_ablation(jobs=jobs)))
        print()
    if what in ("oversub", "all"):
        print(figures.format_oversubscription(figures.oversubscription_effect()))
        print()
    if what == "timings":
        kwargs = {"app": args.app}
        if args.build is not None:
            kwargs["build"] = args.build
        print(figures.format_pipeline_timings(figures.pipeline_timings(**kwargs)))
    if what == "trace":
        from repro.bench import trace_cli

        if args.smoke:
            app, build = trace_cli.SMOKE_APP, trace_cli.SMOKE_BUILD
        else:
            app = args.app
            build = args.build if args.build is not None else BUILD_ORDER[0]
        result = trace_cli.run_trace(
            app, build,
            out=args.out if args.out != "-" else None,
            metrics_out=args.metrics_out,
        )
        print(trace_cli.format_trace_result(result))
        # The bar AppRunResult.verified uses; ``not <`` also fails NaN.
        if not result["max_error"] < 1e-9:
            print(f"trace: verification failed (max error "
                  f"{result['max_error']!r})")
            return 1
    if what == "faults":
        from repro.bench import faults_cli

        report = faults_cli.run_faults(smoke=args.smoke)
        if args.as_json:
            print(faults_cli.render_json(report))
        else:
            print(faults_cli.format_faults(report))
        if not report["ok"]:
            return 1
    if what == "micro":
        from repro.bench import micro

        report = micro.micro_matrix(smoke=args.smoke)
        # A smoke run never overwrites the tracked full-sweep report
        # unless an output path was given explicitly.
        out = args.out if args.out is not None else micro.DEFAULT_OUTPUT
        if out != "-" and (not args.smoke or args.out is not None):
            micro.write_report(report, out)
        if args.as_json:
            print(micro.render_json(report))
        else:
            print(micro.format_micro(report))
        if not report["parity_ok"]:
            return 1
    if what == "json":
        from repro.bench.report import render_json

        print(render_json(jobs=jobs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
