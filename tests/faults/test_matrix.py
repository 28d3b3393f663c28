"""The fault-injection matrix: testsnap at ``-O0`` through the service.

At ``-O0`` every runtime call is still outlined and therefore hookable
by a fault plan.  :class:`repro.serve.SimulationService` turns program
faults into crash reports.  Every scenario runs in three cells:
``decoded`` (fused runs), ``per-op`` (the decoded engine executing op
by op through its ``_h_*`` handlers, the ``VirtualGPU._per_op`` switch
the service's fallback run uses) and ``warp``.  Warp teams with an
armed fault plan or under the sanitizer take the decoded fallback, so
without the per-op cell most rows would compare the fused decoded
engine with itself.

Each cell must show its row's outcome: a clean run, with the §III-D
global-malloc fallback where the shared stack is exhausted, or the
expected :class:`~repro.faults.report.CrashReport`.  Profiles must be
bit-identical and crash reports must compare equal
(``comparable_dict``) across the three cells, and a sanitized clean run
must cost exactly what the baseline costs (§III-G: the sanitizer
charges no cycles).
"""

import os
from typing import NamedTuple, Optional

import pytest

from repro.apps import testsnap
from repro.frontend.driver import CompileOptions, Target, compile_program
from repro.passes.pass_manager import PipelineConfig
from repro.serve import SimulationService
from repro.vgpu import LaunchSpec, VirtualGPU
from repro.vgpu.config import ENGINE_DECODED, ENGINE_WARP
from tests.conftest import PER_OP

pytestmark = pytest.mark.faults

TEAMS = 4
THREADS = 32
SIZE = {"n_atoms": TEAMS * THREADS, "n_neighbors": 4}


class Scenario(NamedTuple):
    #: REPRO_FAULTS-grammar plan, or None.
    faults: Optional[str]
    sanitize: bool = False
    #: "ok" or the expected error_type of the CrashReport.
    expect: str = "ok"
    #: Required minimum of profile.device_mallocs (fallback evidence).
    min_mallocs: int = 0


SCENARIOS = {
    "baseline": Scenario(None),
    "sanitize": Scenario(None, sanitize=True),
    "stack-exhaust": Scenario("shared_stack_exhaust", min_mallocs=1),
    "exhaust-malloc-fail": Scenario("shared_stack_exhaust;malloc_fail:n=2",
                                    expect="InjectedFault"),
    "rt-trap": Scenario("rt_trap:n=5;seed=11", expect="InjectedFault"),
    "barrier-skip": Scenario("barrier_skip:n=1;seed=3", sanitize=True,
                             expect="BarrierDivergence"),
}

#: The cells of every row, the reference first.
CELLS = (ENGINE_DECODED, PER_OP, ENGINE_WARP)


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("crash-reports"))


@pytest.fixture(scope="module")
def service(report_dir):
    with SimulationService(save_reports=True, report_dir=report_dir) as svc:
        yield svc


@pytest.fixture(scope="module")
def compiled():
    options = CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig.o0())
    return compile_program(testsnap.build_program(SIZE), options)


def _run(service, compiled, scenario, engine):
    """One served launch of the fixed testsnap cell."""

    def make_args(gpu, _compiled):
        host_args, _ = testsnap.prepare(gpu, SIZE)
        return compiled.abi(testsnap.KERNEL).marshal(gpu, host_args)

    spec = LaunchSpec(kernel=testsnap.KERNEL, num_teams=TEAMS,
                      threads_per_team=THREADS, engine=engine,
                      faults=scenario.faults, sanitize=scenario.sanitize)
    return service.run(spec, module=compiled.module, make_args=make_args)


@pytest.fixture(scope="module")
def decoded(service, compiled):
    """Every row's decoded cell, the reference the other cells match."""
    return {name: _run(service, compiled, scenario, ENGINE_DECODED)
            for name, scenario in SCENARIOS.items()}


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_cell(name, cell, service, compiled, decoded, report_dir,
              monkeypatch):
    scenario = SCENARIOS[name]
    ref = decoded[name]
    if cell == ENGINE_DECODED:
        result = ref
    elif cell == PER_OP:
        monkeypatch.setattr(VirtualGPU, "_per_op", True)
        result = _run(service, compiled, scenario, ENGINE_DECODED)
        assert result.engine == ENGINE_DECODED
    else:
        result = _run(service, compiled, scenario, cell)
    if scenario.expect == "ok":
        assert result.ok, result.report
        assert result.profile.device_mallocs >= scenario.min_mallocs
        assert result.profile.to_dict() == ref.profile.to_dict()
    else:
        assert not result.ok, f"expected {scenario.expect}, ran clean"
        report = result.report.comparable_dict()
        assert report["error_type"] == scenario.expect
        if scenario.expect in ("InjectedFault", "BarrierDivergence"):
            assert report["context"] is not None
        assert report == ref.report.comparable_dict()
        assert os.path.dirname(result.report_path) == report_dir
        assert os.path.isfile(result.report_path)


def test_sanitizer_charges_no_cycles(decoded):
    assert decoded["sanitize"].profile.to_dict() == \
        decoded["baseline"].profile.to_dict()
