"""Device-side fault injection and crash reporting.

Two cooperating pieces (ROADMAP "robustness" item; the co-design
angle is that fault *sites* are defined by the runtime/simulator
contract, not bolted on):

:mod:`repro.faults.plan`
    :class:`FaultPlan` — the parsed ``REPRO_FAULTS`` spec — and the
    per-team counters both execution engines consult.
:mod:`repro.faults.report`
    :class:`CrashReport` — a deterministic, JSON-serializable record of
    a device failure (error type/message, device context, fault plan,
    trace tail) — and :data:`PROGRAM_FAULTS`, the exceptions that are
    failures of the simulated program rather than of the simulator.

Graceful degradation — program faults become reports, internal engine
faults retry on a fresh per-op decoded device — is
:class:`repro.serve.SimulationService`'s retry loop; a one-off launch
is ``SimulationService().run(spec, module=..., make_args=...)``.
"""

from repro.faults.plan import FaultPlan, FaultPlanError, FaultSite, TeamFaultState
from repro.faults.report import PROGRAM_FAULTS, CrashReport

__all__ = [
    "CrashReport",
    "FaultPlan",
    "FaultPlanError",
    "FaultSite",
    "PROGRAM_FAULTS",
    "TeamFaultState",
]
