#!/usr/bin/env python3
"""Reproduce the Fig. 13 ablation on a chosen app.

Runs the app under the full pipeline and with each §IV optimization
disabled one at a time, printing the slowdown and residual resources —
the same experiment the paper uses to attribute GridMini's and
XSBench's gains to individual analyses (§V-C).

Every configuration is one ``run_app`` call through one
``ToolchainSession``, the same cell runner the bench harness uses, so
compilations are served from the compile cache on repeat runs.

Run:  python examples/ablation_study.py [xsbench|gridmini|minifmm]
"""

import sys

from repro.apps.common import run_app
from repro.bench.builds import ablation_configs
from repro.bench.harness import APPS
from repro.frontend.driver import CompileOptions, Target
from repro.toolchain import ToolchainSession


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "gridmini"
    if app_name not in APPS:
        raise SystemExit(f"unknown app {app_name!r}; pick one of {list(APPS)}")

    print(f"Ablation study on {app_name} (New RT, no user assumptions)\n")
    header = (f"{'configuration':32s} {'cycles':>8s} {'slowdown':>9s} "
              f"{'smem':>8s} {'barriers':>8s}")
    print(header)
    print("-" * len(header))

    session = ToolchainSession()
    baseline = None
    for label, pipeline in ablation_configs().items():
        options = CompileOptions(Target.OPENMP_NEW, pipeline=pipeline)
        result = run_app(APPS[app_name], options, session=session)
        assert result.verified, f"{label}: wrong results!"
        profile = result.profile
        if baseline is None:
            baseline = profile.cycles
        print(f"{label:32s} {profile.cycles:8d} "
              f"{profile.cycles / baseline:8.2f}x "
              f"{profile.shared_memory_bytes:7d}B {profile.barriers:8d}")

    print("\nDisabling the base field-sensitive analysis (IV-B1) disables")
    print("all of §IV-B, so it always shows the largest effect — exactly")
    print("the paper's observation.")


if __name__ == "__main__":
    main()
