"""§V-B — loop over-subscription assumptions (§III-F).

The paper reports a considerable register reduction on XSBench with a
kernel-time improvement (~5.6%), and register savings without much time
effect elsewhere (missing secondary effects)."""

import pytest

from repro.apps.common import run_app
from repro.bench.builds import NEW_RT, NEW_RT_NO_ASSUME, build_options
from repro.bench.figures import oversubscription_effect
from repro.bench.harness import APPS
from benchmarks.conftest import run_once


@pytest.mark.parametrize("app", ["xsbench", "rsbench", "gridmini", "testsnap"])
@pytest.mark.parametrize("build", [NEW_RT_NO_ASSUME, NEW_RT])
def test_oversubscription_build(benchmark, record, app, build):
    options = build_options()[build]
    result = run_once(benchmark, lambda: run_app(APPS[app], options))
    record(result, app=app, build=build, figure="oversubscription")


class TestOversubscriptionEffects:
    def test_xsbench_registers_and_time(self):
        effect = oversubscription_effect("xsbench")
        assert effect.register_delta < 0, "registers must drop"
        assert effect.time_delta_percent <= 0.5, "time must not regress"

    @pytest.mark.parametrize("app", ["rsbench", "gridmini", "testsnap"])
    def test_registers_drop_without_time_regression(self, app):
        effect = oversubscription_effect(app)
        assert effect.register_delta <= 0
        # "the kernel execution time is not affected much" (§V-B)
        assert abs(effect.time_delta_percent) < 5.0

    def test_loop_structure_removed(self):
        """No loop-carried induction state in the oversubscribed build:
        the kernel CFG is acyclic."""
        options = build_options()
        result = run_app(APPS["xsbench"], options[NEW_RT])
        kern = result.compiled.kernel("xs_lookup")
        from repro.ir.cfg import DominatorTree

        dom = DominatorTree(kern)
        # the worksharing loop is gone: no back edge targets the former
        # loop header over the *outer* iteration space (the binary-search
        # loops inside the body remain, so look only at the body call
        # structure: the iv phi from the runtime loop must be gone).
        from repro.ir.instructions import Phi

        for block in kern.blocks:
            for phi in block.phis():
                assert phi.name != "iv", "worksharing induction survived"
