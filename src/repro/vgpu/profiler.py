"""Kernel execution profile — the simulated Nsight Compute.

One :class:`KernelProfile` is produced per launch and carries the three
quantities the paper's Fig. 11 reports (kernel time, register count,
static shared memory) plus the instruction mix the harness uses for
derived metrics (GFlops for GridMini, Fig. 12).

Counting happens in exactly one place: every execution engine
(decoded, fused or per op, and warp) accumulates into a per-team
:class:`TeamStats`, and :meth:`KernelProfile.merge_team` folds team
results into the launch profile in team order.  Because the
accumulator and the merge are shared, the engines cannot drift apart
in what they count.

The counters the engines bump per executed op are plain dicts, keyed
up front with every opcode, address space and overhead category, so a
bump is an exact-dict subscript (a ``Counter`` is a dict subclass,
which CPython's specialized dict paths skip).  The merge drops zero
entries, so profiles only carry what executed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Tuple

from repro.ir.instructions import OPCODES
from repro.memory.addrspace import AddressSpace
from repro.trace.categories import CATEGORY_NAMES

#: Nominal clock used to convert cycles into "seconds" and flops/cycle
#: into "GFlops".  Arbitrary but fixed, so ratios between builds are
#: meaningful.
NOMINAL_CLOCK_GHZ = 1.41


@dataclass
class TeamStats:
    """Execution counters for one simulated team.

    Field names deliberately mirror the :class:`KernelProfile` fields
    they merge into, so the executors can treat either object as the
    counting sink (the trap/print intrinsics read ``output`` from
    whichever they were handed).  Each team gets a private instance,
    and :meth:`KernelProfile.merge_team` folds them in team order.
    """

    instructions: int = 0
    opcode_counts: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(OPCODES, 0))
    loads_by_space: Dict[AddressSpace, int] = field(
        default_factory=lambda: dict.fromkeys(AddressSpace, 0))
    stores_by_space: Dict[AddressSpace, int] = field(
        default_factory=lambda: dict.fromkeys(AddressSpace, 0))
    flops: int = 0
    barriers: int = 0
    output: List[str] = field(default_factory=list)
    shared_stack_high_water: int = 0
    #: Executed calls to categorized runtime functions, keyed by the
    #: paper overhead category (:mod:`repro.trace.categories`).
    runtime_calls: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(CATEGORY_NAMES, 0))
    #: Barrier phases closed by an aligned / unaligned barrier.
    barriers_aligned: int = 0
    barriers_unaligned: int = 0
    #: Device-side ``malloc``/``free`` executions — the shared-stack
    #: global-memory fallback of §III-D.
    device_mallocs: int = 0
    device_frees: int = 0
    #: Cycles attributed per IR function (populated only while tracing
    #: is enabled; the fast paths never touch it).
    function_cycles: Counter = field(default_factory=Counter)
    #: Per-phase trace log ``(phase_cycles, barrier_cost, aligned)``;
    #: appended by the team driver only while tracing is enabled and
    #: consumed by :mod:`repro.trace.device` (never merged into the
    #: profile).
    phase_log: List[Tuple[int, int, Any]] = field(default_factory=list)
    #: Executions per fused run of the decoded engine, keyed by the
    #: run's static counts: ``opcodes`` (``((opcode, n), ...)``) and
    #: ``flops``; :meth:`settle` folds them in.
    run_hits: Dict[Any, int] = field(default_factory=dict)

    def settle(self) -> None:
        """Fold :attr:`run_hits` x each run's static counts into
        ``opcode_counts`` and ``flops``.  The team driver calls this
        when the team ends, also by an exception, so the counters read
        the same as if every op had been counted as it ran."""
        counts = self.opcode_counts
        for run, n in self.run_hits.items():
            for opcode, k in run.opcodes:
                counts[opcode] += n * k
            self.flops += n * run.flops
        self.run_hits.clear()


def _add_nonzero(into: Counter, counts: Dict) -> None:
    """``into.update(counts)`` without the zero entries of a pre-keyed
    team counter."""
    for key, n in counts.items():
        if n:
            into[key] += n


@dataclass
class KernelProfile:
    """Measurements from one simulated kernel launch."""

    kernel_name: str
    num_teams: int
    threads_per_team: int
    #: Modeled kernel duration in cycles (includes launch overhead).
    cycles: int = 0
    #: Total instructions executed across all threads.
    instructions: int = 0
    #: Executed-instruction histogram by opcode.
    opcode_counts: Counter = field(default_factory=Counter)
    #: Loads/stores executed, keyed by address space.
    loads_by_space: Counter = field(default_factory=Counter)
    stores_by_space: Counter = field(default_factory=Counter)
    #: Floating point operations executed (for GFlops reporting).
    flops: int = 0
    #: Team barriers released.
    barriers: int = 0
    #: Device-side printed output (debug tracing, assert messages).
    output: List[str] = field(default_factory=list)
    #: Static resources of the launched binary.
    registers: int = 0
    shared_memory_bytes: int = 0
    #: Per-team cycle totals (diagnostic).
    team_cycles: Dict[int, int] = field(default_factory=dict)
    #: Peak dynamic shared-stack usage observed (bytes, diagnostic).
    shared_stack_high_water: int = 0
    #: Runtime-overhead call counters by paper category (see
    #: :mod:`repro.trace.categories`).
    runtime_calls: Counter = field(default_factory=Counter)
    #: Barrier phases closed by an aligned / unaligned barrier.
    barriers_aligned: int = 0
    barriers_unaligned: int = 0
    #: Device-side malloc/free executions (global-memory fallbacks).
    device_mallocs: int = 0
    device_frees: int = 0
    #: Cycles attributed per IR function (tracing only; empty otherwise).
    function_cycles: Counter = field(default_factory=Counter)

    def merge_team(self, team_id: int, team_time: int, stats: TeamStats) -> None:
        """Fold one team's counters into the launch profile.

        This is the single merge site for both engines; callers must
        invoke it in ascending ``team_id`` order so list-valued fields
        (``output``) are reproducible.
        """
        self.team_cycles[team_id] = team_time
        self.instructions += stats.instructions
        _add_nonzero(self.opcode_counts, stats.opcode_counts)
        _add_nonzero(self.loads_by_space, stats.loads_by_space)
        _add_nonzero(self.stores_by_space, stats.stores_by_space)
        self.flops += stats.flops
        self.barriers += stats.barriers
        self.output.extend(stats.output)
        self.shared_stack_high_water = max(
            self.shared_stack_high_water, stats.shared_stack_high_water
        )
        _add_nonzero(self.runtime_calls, stats.runtime_calls)
        self.barriers_aligned += stats.barriers_aligned
        self.barriers_unaligned += stats.barriers_unaligned
        self.device_mallocs += stats.device_mallocs
        self.device_frees += stats.device_frees
        self.function_cycles.update(stats.function_cycles)

    @property
    def time_seconds(self) -> float:
        """Cycles converted through the nominal clock."""
        return self.cycles / (NOMINAL_CLOCK_GHZ * 1e9)

    @property
    def time_ms(self) -> float:
        return self.time_seconds * 1e3

    @property
    def gflops(self) -> float:
        """Floating-point throughput at the nominal clock."""
        if self.cycles == 0:
            return 0.0
        return self.flops / self.cycles * NOMINAL_CLOCK_GHZ

    def summary(self) -> str:
        return (
            f"{self.kernel_name}[{self.num_teams}x{self.threads_per_team}]: "
            f"{self.cycles} cycles ({self.time_ms:.3f} ms), "
            f"{self.instructions} insts, {self.registers} regs, "
            f"{self.shared_memory_bytes}B smem, {self.barriers} barriers"
        )

    # ------------------------------------------------------- serialization --

    def overhead_counters(self) -> Dict[str, int]:
        """Flat runtime-overhead counters in the paper's categories
        (exported as the trace's ``runtime_overhead`` counter track)."""
        out = {f"runtime.{k}": v for k, v in sorted(self.runtime_calls.items())}
        out["barriers.total"] = self.barriers
        out["barriers.aligned"] = self.barriers_aligned
        out["barriers.unaligned"] = self.barriers_unaligned
        out["shared_stack.high_water_bytes"] = self.shared_stack_high_water
        out["global_fallback.mallocs"] = self.device_mallocs
        out["global_fallback.frees"] = self.device_frees
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view of every field plus the derived metrics."""
        return {
            "kernel_name": self.kernel_name,
            "num_teams": self.num_teams,
            "threads_per_team": self.threads_per_team,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "opcode_counts": dict(sorted(self.opcode_counts.items())),
            "loads_by_space": {
                space.name: count
                for space, count in sorted(
                    self.loads_by_space.items(), key=lambda kv: kv[0].name
                )
            },
            "stores_by_space": {
                space.name: count
                for space, count in sorted(
                    self.stores_by_space.items(), key=lambda kv: kv[0].name
                )
            },
            "flops": self.flops,
            "barriers": self.barriers,
            "output": list(self.output),
            "registers": self.registers,
            "shared_memory_bytes": self.shared_memory_bytes,
            "team_cycles": {str(k): v for k, v in sorted(self.team_cycles.items())},
            "shared_stack_high_water": self.shared_stack_high_water,
            "runtime_calls": dict(sorted(self.runtime_calls.items())),
            "barriers_aligned": self.barriers_aligned,
            "barriers_unaligned": self.barriers_unaligned,
            "device_mallocs": self.device_mallocs,
            "device_frees": self.device_frees,
            "function_cycles": dict(sorted(self.function_cycles.items())),
            # Derived metrics (ignored by from_dict).
            "time_ms": self.time_ms,
            "gflops": self.gflops,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelProfile":
        """Inverse of :meth:`to_dict` (derived keys are recomputed)."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        for counter_key in ("opcode_counts", "runtime_calls", "function_cycles"):
            if counter_key in kwargs:
                kwargs[counter_key] = Counter(kwargs[counter_key])
        for space_key in ("loads_by_space", "stores_by_space"):
            if space_key in kwargs:
                kwargs[space_key] = Counter({
                    AddressSpace[name]: count
                    for name, count in kwargs[space_key].items()
                })
        if "team_cycles" in kwargs:
            kwargs["team_cycles"] = {
                int(k): v for k, v in kwargs["team_cycles"].items()
            }
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "KernelProfile":
        return cls.from_dict(json.loads(text))
