#!/usr/bin/env python3
"""Tour of the five proxy applications across the full build matrix.

Runs XSBench, RSBench, GridMini, TestSNAP and MiniFMM under every build
of the paper's evaluation, verifies each against its NumPy reference,
and prints the relative-performance view of Fig. 10 plus GridMini's
GFlops (Fig. 12).

Run:  python examples/proxy_app_tour.py          (all apps, ~1 min)
      python examples/proxy_app_tour.py xsbench  (one app)
"""

import sys
import time

from repro.bench.builds import BUILD_ORDER, OLD_RT_NIGHTLY
from repro.bench.harness import APPS, run_build_matrix


def main() -> None:
    wanted = sys.argv[1:] or list(APPS)
    for app_name in wanted:
        if app_name not in APPS:
            raise SystemExit(f"unknown app {app_name!r}; pick from {list(APPS)}")

    for app_name in wanted:
        t0 = time.time()
        matrix = run_build_matrix(app_name)
        assert matrix.all_verified(), f"{app_name}: verification failed"
        relative = matrix.speedups(OLD_RT_NIGHTLY)
        print(f"== {app_name}  (verified, {time.time() - t0:.1f}s wall)")
        for build in BUILD_ORDER:
            if build not in matrix.results:
                print(f"   {build:28s} {'n/a':>10s}   (no 1:1 kernel mapping)")
                continue
            result = matrix.results[build]
            gflops = result.profile.gflops
            extra = f"  {gflops:6.2f} GFlops" if app_name == "gridmini" else ""
            print(f"   {build:28s} {relative[build]:9.2f}x "
                  f"({result.profile.cycles} cycles){extra}")
        print()


if __name__ == "__main__":
    main()
