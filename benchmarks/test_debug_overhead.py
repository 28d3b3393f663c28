"""§III-G — debug features cost nothing in release builds.

The same runtime supports assertions and call tracing; compiled out
(release) they leave zero instructions behind, compiled in but inactive
they cost only the env-flag checks, and activated they do real work."""

import pytest

from repro.apps.common import run_app
from repro.bench.figures import debug_overhead
from repro.bench.harness import APPS
from repro.frontend.driver import CompileOptions, Target
from benchmarks.conftest import run_once


@pytest.mark.parametrize("variant", ["release", "debug"])
def test_debug_vs_release_build(benchmark, record, variant):
    if variant == "release":
        options = CompileOptions(Target.OPENMP_NEW)
        result = run_once(benchmark, lambda: run_app(APPS["xsbench"], options))
    else:
        options = CompileOptions(Target.OPENMP_NEW).with_debug()
        result = run_once(benchmark, lambda: run_app(
            APPS["xsbench"], options, debug_checks=True, env={"DEBUG": 3}))
    record(result, variant=variant, figure="debug-overhead")


class TestDebugOverheadShape:
    def test_release_strictly_faster_than_debug(self):
        release, debug = debug_overhead("xsbench")
        assert release.profile.cycles < debug.profile.cycles

    def test_release_contains_no_debug_machinery(self):
        release, _ = debug_overhead("xsbench")
        module = release.compiled.module
        from repro.ir.instructions import Call

        for func in module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, Call) and inst.callee is not None:
                    assert inst.callee.name not in ("rt.print_str", "llvm.trap")

    def test_debug_checks_actually_run(self):
        _, debug = debug_overhead("xsbench")
        # Function tracing was active: runtime calls were logged.
        assert any("__kmpc" in line for line in debug.profile.output)
