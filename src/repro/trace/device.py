"""Device-timeline events for one kernel launch.

The simulator never emits events while teams run: each team logs its
barrier-delimited phases into its private ``TeamStats`` (only when
tracing is enabled) and ``VirtualGPU.run()`` calls
:func:`emit_launch_events` once, post-merge, in team order.  That is
what makes every engine emit the *identical* event list — the trace
is derived from merged data, not from host wall-clock order.

Timestamps on the device timeline are simulated cycles converted to
microseconds through the nominal clock, and team start offsets follow
the same SM wave model ``VirtualGPU.run()`` uses for the kernel total: teams
fill ``num_sms`` slots per wave, each wave starting when the slowest
team of the previous wave finished.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.trace.collector import PID_DEVICE, PID_HOST
from repro.vgpu.profiler import NOMINAL_CLOCK_GHZ, KernelProfile

#: Microseconds per simulated cycle at the nominal clock.
US_PER_CYCLE = 1e-3 / NOMINAL_CLOCK_GHZ

#: One phase record: (phase_cycles, barrier_cost, aligned) where
#: ``aligned`` is True/False for a closed barrier and None for the
#: final (barrier-less) tail phase.
PhaseRecord = Tuple[int, int, Optional[bool]]


def emit_launch_events(
    collector,
    profile: KernelProfile,
    config,
    phase_logs: Sequence[List[PhaseRecord]],
    engine: str,
    request_id: Optional[str] = None,
) -> None:
    """Emit the device timeline of one launch onto *collector*.

    *request_id* (when the launch came from a :class:`LaunchSpec`
    carrying one) tags the kernel span and the completion instant, so
    a served request can be followed from submission through the
    device timeline.  Untagged launches emit byte-identical events to
    the pre-serve layer.
    """
    launch_us = config.launch_overhead * US_PER_CYCLE
    kernel = profile.kernel_name

    kernel_args = {
        "engine": engine,
        "cycles": profile.cycles,
        "instructions": profile.instructions,
        "teams": profile.num_teams,
        "threads_per_team": profile.threads_per_team,
    }
    if request_id is not None:
        kernel_args["request_id"] = request_id

    # Kernel row (tid 0): launch overhead, then the whole kernel span.
    collector.complete(
        "launch_overhead", "vgpu", ts_us=0.0, dur_us=launch_us,
        pid=PID_DEVICE, tid=0, args={"cycles": config.launch_overhead},
    )
    collector.complete(
        f"kernel {kernel}", "vgpu", ts_us=0.0,
        dur_us=profile.cycles * US_PER_CYCLE,
        pid=PID_DEVICE, tid=0,
        args=kernel_args,
    )

    # Team rows (tid = team + 1) placed by the SM wave model.
    offset = config.launch_overhead
    for wave_start in range(0, profile.num_teams, config.num_sms):
        wave = range(wave_start, min(wave_start + config.num_sms, profile.num_teams))
        for team in wave:
            team_cycles = profile.team_cycles[team]
            tid = team + 1
            collector.complete(
                f"team {team}", "vgpu",
                ts_us=offset * US_PER_CYCLE,
                dur_us=team_cycles * US_PER_CYCLE,
                pid=PID_DEVICE, tid=tid,
                args={"cycles": team_cycles},
            )
            cursor = offset
            for i, (phase_cycles, barrier_cost, aligned) in enumerate(
                phase_logs[team] if team < len(phase_logs) else ()
            ):
                collector.complete(
                    f"phase {i}", "vgpu",
                    ts_us=cursor * US_PER_CYCLE,
                    dur_us=phase_cycles * US_PER_CYCLE,
                    pid=PID_DEVICE, tid=tid,
                    args={"cycles": phase_cycles},
                )
                cursor += phase_cycles
                if aligned is not None:
                    collector.complete(
                        "barrier.aligned" if aligned else "barrier.unaligned",
                        "runtime",
                        ts_us=cursor * US_PER_CYCLE,
                        dur_us=barrier_cost * US_PER_CYCLE,
                        pid=PID_DEVICE, tid=tid,
                        args={"cycles": barrier_cost, "aligned": bool(aligned)},
                    )
                    cursor += barrier_cost
        offset += max(profile.team_cycles[t] for t in wave)

    end_us = profile.cycles * US_PER_CYCLE

    # Runtime-overhead counters (paper categories) at kernel end.
    collector.counter(
        "runtime_overhead", profile.overhead_counters(),
        cat="runtime", pid=PID_DEVICE, tid=0, ts_us=end_us,
    )
    if request_id is not None:
        collector.instant(
            "launch_complete", cat="vgpu", pid=PID_HOST, tid=1,
            kernel=kernel, cycles=profile.cycles, engine=engine,
            request_id=request_id,
        )
    else:
        collector.instant(
            "launch_complete", cat="vgpu", pid=PID_HOST, tid=1,
            kernel=kernel, cycles=profile.cycles, engine=engine,
        )

    # Per-IR-function cycle attribution (hotspots), when collected.
    if profile.function_cycles:
        top = dict(sorted(
            profile.function_cycles.items(), key=lambda kv: -kv[1]
        ))
        collector.counter(
            "function_cycles", top,
            cat="vgpu", pid=PID_DEVICE, tid=0, ts_us=end_us,
        )
