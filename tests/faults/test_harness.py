"""Graceful degradation through the service: crash reports and the
retry on a fresh per-op decoded device.

``SimulationService.run(spec, module=, make_args=)`` is the one guarded
launch.  These tests script each engine's outcome by wrapping
``VirtualGPU.run`` (an engine "fails" when the spec it is asked to run
names it; ``per-op`` names a device that runs decoded op by op, the
retry target), so every degradation path (program fault, internal fault,
double fault) is covered on a trivial kernel; the real-device paths
are covered by ``tests/faults/test_injection.py`` and
``tests/faults/test_matrix.py``.
"""

import pytest

from repro.faults import PROGRAM_FAULTS
from repro.ir import I64, Module, verify_module
from repro.memory.memmodel import MemoryError_
from repro.serve import SimulationService
from repro.vgpu import LaunchSpec, VirtualGPU
from repro.vgpu.config import ENGINE_DECODED, ENGINE_WARP
from repro.vgpu.errors import SimulationError, TrapError
from tests.conftest import PER_OP, make_kernel

GEOMETRY = dict(num_teams=2, threads_per_team=32)


def _module():
    """kern(token): does nothing with its device-specific argument."""
    module = Module("m")
    _, b = make_kernel(module, params=(I64,))
    b.ret()
    verify_module(module)
    return module


def _make_args(gpu, _compiled):
    return (id(gpu) & 0xFFFF_FFFF,)  # args embed device state: differ per gpu


@pytest.fixture
def scripted(monkeypatch):
    """``scripted(outcomes)`` makes ``VirtualGPU.run`` raise
    ``outcomes[engine]`` for the engine a spec runs on, ``per-op`` on a
    per-op device (real runs otherwise); returns the launch log of
    (engine, device, args)."""
    real_run = VirtualGPU.run
    launches = []

    def install(outcomes):
        def run(gpu, spec):
            engine = PER_OP if gpu._per_op else spec.engine or gpu.engine
            launches.append((engine, gpu, spec.args))
            if outcomes.get(engine) is not None:
                raise outcomes[engine]
            return real_run(gpu, spec)

        monkeypatch.setattr(VirtualGPU, "run", run)
        return launches

    return install


def _run(scripted, outcomes, engine, **service_kwargs):
    launches = scripted(outcomes)
    service_kwargs.setdefault("save_reports", False)
    with SimulationService(**service_kwargs) as svc:
        result = svc.run(LaunchSpec(kernel="kern", engine=engine, **GEOMETRY),
                         module=_module(), make_args=_make_args)
    return result, launches


class TestCleanRun:
    def test_success_passes_the_profile_through(self, scripted):
        gpu = VirtualGPU(_module())
        direct = gpu.run(LaunchSpec(kernel="kern", args=_make_args(gpu, None),
                                    **GEOMETRY))
        result, launches = _run(scripted, {}, ENGINE_DECODED)
        assert result.ok and result.profile.to_dict() == direct.profile.to_dict()
        assert result.engine == ENGINE_DECODED and not result.retried
        assert result.report is None and result.report_path is None
        assert len(launches) == 1


class TestProgramFaults:
    def test_program_fault_reports_without_retry(self, scripted):
        result, launches = _run(scripted, {ENGINE_DECODED: TrapError("trap: boom")},
                                ENGINE_DECODED)
        assert not result.ok and not result.retried
        assert result.report.error_type == "TrapError"
        assert "boom" in result.report.message
        assert len(launches) == 1  # a deterministic program fault: no retry

    def test_memory_errors_count_as_program_faults(self, scripted):
        assert MemoryError_ in PROGRAM_FAULTS and SimulationError in PROGRAM_FAULTS
        result, _ = _run(scripted, {ENGINE_DECODED: MemoryError_("oob")},
                         ENGINE_DECODED)
        assert not result.ok and result.report.error_type == "MemoryError_"

    def test_report_is_saved_when_asked(self, scripted, tmp_path):
        result, _ = _run(scripted, {ENGINE_DECODED: TrapError("x")},
                         ENGINE_DECODED, save_reports=True,
                         report_dir=str(tmp_path))
        assert result.report_path is not None
        assert result.report_path.startswith(str(tmp_path))


class TestEngineFallback:
    def test_internal_decoded_fault_retries_on_fresh_legacy(self, scripted):
        """The retry runs on a fresh per-op decoded device (the test id
        predates it: the retry target used to be the legacy engine)."""
        result, launches = _run(
            scripted, {ENGINE_DECODED: RuntimeError("engine bug")},
            ENGINE_DECODED)
        assert result.ok and result.retried
        assert result.profile is not None and result.engine == ENGINE_DECODED
        # The internal fault is still on record — never silent recovery.
        assert result.report.retry == {
            "from_engine": ENGINE_DECODED, "to_engine": ENGINE_DECODED,
            "error_type": "RuntimeError", "message": "engine bug",
            "attempt": 1,
        }
        # Fresh per-op device for the retry, args rebuilt against it;
        # the pooled device of attempt 1 fuses as usual.
        (e1, gpu1, args1), (e2, gpu2, args2) = launches
        assert [e1, e2] == [ENGINE_DECODED, PER_OP]
        assert gpu1 is not gpu2 and args1 != args2
        assert not gpu1._per_op and gpu2._per_op

    def test_internal_warp_fault_retries_on_fresh_per_op_decoded(self, scripted):
        result, launches = _run(
            scripted, {ENGINE_WARP: RuntimeError("warp bug")}, ENGINE_WARP)
        assert result.ok and result.retried
        assert result.engine == result.executed_engine == ENGINE_DECODED
        assert result.report.retry["from_engine"] == ENGINE_WARP
        assert result.report.retry["to_engine"] == ENGINE_DECODED
        assert [engine for engine, _, _ in launches] == [ENGINE_WARP, PER_OP]

    def test_internal_legacy_fault_propagates(self, scripted):
        """An internal failure of the one per-op fallback run is
        terminal, and the circuit breaker counts the request once.
        (The test id predates the per-op fallback target.)"""
        launches = scripted({ENGINE_DECODED: RuntimeError("first"),
                             PER_OP: RuntimeError("engine bug")})
        with SimulationService() as svc:
            with pytest.raises(RuntimeError, match="engine bug"):
                svc.run(LaunchSpec(kernel="kern", engine=ENGINE_DECODED,
                                   **GEOMETRY),
                        module=_module(), make_args=_make_args)
            stats = svc.stats.to_dict()
            (breaker,) = svc.health()["breakers"].values()
        assert [engine for engine, _, _ in launches] == [
            ENGINE_DECODED, PER_OP]
        assert stats["attempts"] == 2 and stats["internal_errors"] == 1
        assert breaker["failures"] == 1

    def test_program_fault_on_retry_keeps_the_retry_record(self, scripted):
        result, launches = _run(
            scripted, {ENGINE_DECODED: RuntimeError("engine bug"),
                       PER_OP: TrapError("trap: boom")},
            ENGINE_DECODED)
        assert not result.ok and result.retried
        assert result.report.error_type == "TrapError"
        assert result.report.retry["error_type"] == "RuntimeError"
        assert len(launches) == 2

    def test_second_internal_fault_propagates(self, scripted):
        with pytest.raises(ZeroDivisionError):
            _run(scripted, {ENGINE_DECODED: RuntimeError("engine bug"),
                            PER_OP: ZeroDivisionError()},
                 ENGINE_DECODED)
