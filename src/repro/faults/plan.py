"""Deterministic, seeded device-side fault injection.

A :class:`FaultPlan` names *where* the simulator should misbehave; the
grammar (surfaced through the ``REPRO_FAULTS`` knob) is::

    plan  := entry (";" entry)*
    entry := "seed" "=" int
           | site (":" key "=" value)*
    site  := shared_stack_exhaust | malloc_fail | rt_trap | barrier_skip
    key   := n | team | thread

Each site and each key appears at most once, and so does ``seed``.

Sites
-----

``shared_stack_exhaust``
    Before every ``__kmpc_alloc_shared`` / ``__kmpc_alloc_shared_old``
    executes, pin the caller's shared-stack top at "full" (layout facts
    come from the runtime's own ``shared_stack_saturation`` helpers),
    forcing the §III-D global-malloc fallback path.  Applies to all
    teams unless ``team=`` pins one.
``malloc_fail``
    Raise :class:`~repro.vgpu.errors.InjectedFault` at the *n*-th
    device ``malloc`` intrinsic executed by the team (1-based).
``rt_trap``
    Raise at the *n*-th categorized runtime call executed by the team.
``barrier_skip``
    Make one thread skip its *n*-th barrier arrival — it keeps running
    while its teammates wait, which is exactly the divergence bug class
    the sanitizer's barrier detector exists to diagnose.

Determinism
-----------

Counters live in a per-team :class:`TeamFaultState`; threads within a
team are stepped in thread-id order, so the same plan fires at the
same dynamic instruction in fused and per-op decoded execution.
(Warp-requested teams with an armed plan run decoded, so the warp
engine never consults a plan.)  Fields left unpinned (``team``/``thread``) are resolved from the plan ``seed`` and
the launch geometry at bind time — not from global randomness — so a
seed fully determines behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.types import I32
from repro.runtime.interface import NEW_RUNTIME, OLD_RUNTIME
from repro.runtime.libnew import memory as _libnew_memory
from repro.runtime.libold import builder as _libold_builder
from repro.vgpu.errors import injected_malloc_failure, injected_trap_error

#: Callee names whose execution consults the shared-stack top.
ALLOC_SHARED_NAMES = frozenset({NEW_RUNTIME.alloc_shared, OLD_RUNTIME.alloc_shared})

#: The fault-site vocabulary.
SITE_SHARED_STACK_EXHAUST = "shared_stack_exhaust"
SITE_MALLOC_FAIL = "malloc_fail"
SITE_RT_TRAP = "rt_trap"
SITE_BARRIER_SKIP = "barrier_skip"

SITE_NAMES = (
    SITE_SHARED_STACK_EXHAUST,
    SITE_MALLOC_FAIL,
    SITE_RT_TRAP,
    SITE_BARRIER_SKIP,
)

_SITE_KEYS = frozenset({"n", "team", "thread"})


class FaultPlanError(ValueError):
    """Malformed ``REPRO_FAULTS`` specification."""


@dataclass(frozen=True)
class FaultSite:
    """One parsed injection site (unresolved: team/thread may be None)."""

    kind: str
    n: int = 1
    team: Optional[int] = None
    thread: Optional[int] = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n,
                "team": self.team, "thread": self.thread}


def _parse_int(site: str, key: str, value: str) -> int:
    try:
        out = int(value)
    except ValueError:
        raise FaultPlanError(
            f"fault site {site!r}: {key}={value!r} is not an integer") from None
    if out < 0 or (key == "n" and out < 1):
        raise FaultPlanError(f"fault site {site!r}: {key}={out} out of range")
    return out


class FaultPlan:
    """A parsed set of fault sites plus the resolution seed."""

    def __init__(self, sites: List[FaultSite], seed: Optional[int] = None,
                 spec: str = "") -> None:
        self.sites = list(sites)
        self.seed = seed
        self.spec = spec

    # ------------------------------------------------------------- parse --

    @classmethod
    def parse(cls, spec: str) -> Optional["FaultPlan"]:
        """Parse *spec*; '' (or whitespace) means "no plan" -> None."""
        text = (spec or "").strip()
        if not text:
            return None
        sites: List[FaultSite] = []
        seen: set = set()
        seed: Optional[int] = None
        for entry in text.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                if seed is not None:
                    raise FaultPlanError("duplicate seed=")
                seed = _parse_int("seed", "seed", entry[len("seed="):])
                continue
            parts = [p.strip() for p in entry.split(":")]
            kind = parts[0]
            if kind not in SITE_NAMES:
                raise FaultPlanError(
                    f"unknown fault site {kind!r}; pick one of {SITE_NAMES}")
            if kind in seen:
                raise FaultPlanError(f"duplicate fault site {kind!r}")
            seen.add(kind)
            kwargs: Dict[str, int] = {}
            for part in parts[1:]:
                if "=" not in part:
                    raise FaultPlanError(
                        f"fault site {kind!r}: expected key=value, got {part!r}")
                key, _, value = part.partition("=")
                key = key.strip()
                if key not in _SITE_KEYS:
                    raise FaultPlanError(
                        f"fault site {kind!r}: unknown key {key!r} "
                        f"(expected one of {sorted(_SITE_KEYS)})")
                if key in kwargs:
                    raise FaultPlanError(f"fault site {kind!r}: duplicate key {key!r}")
                kwargs[key] = _parse_int(kind, key, value.strip())
            sites.append(FaultSite(kind, **kwargs))
        if not sites:
            raise FaultPlanError(f"no fault sites in {spec!r}")
        return cls(sites, seed=seed, spec=text)

    # ----------------------------------------------------------- queries --

    def to_dict(self) -> dict:
        return {"seed": self.seed, "spec": self.spec,
                "sites": [s.to_dict() for s in self.sites]}

    # ------------------------------------------------------------- bind --

    def _resolve(self, site: FaultSite, index: int, field: str,
                 modulus: int) -> int:
        """Seed-resolve an unpinned team/thread field deterministically."""
        pinned = getattr(site, field)
        if pinned is not None:
            return pinned % modulus
        if self.seed is None:
            return 0
        rng = random.Random(f"{self.seed}:{site.kind}:{index}:{field}")
        return rng.randrange(modulus)

    def team_state(self, team_id: int, launch) -> Optional["TeamFaultState"]:
        """Fault state for one team of *launch*, or None if no site
        targets it.  Called once per team per launch; counters start
        at zero, so a team fires the same way whichever teams ran before it."""
        state = TeamFaultState(team_id)
        armed = False
        for index, site in enumerate(self.sites):
            if site.kind == SITE_SHARED_STACK_EXHAUST:
                # Defaults to *every* team: exhaustion is a pressure
                # condition, not an event.
                if site.team is not None and site.team % launch.num_teams != team_id:
                    continue
                state.exhaust = True
                state.exhaust_thread = site.thread
                armed = True
                continue
            team = self._resolve(site, index, "team", launch.num_teams)
            if team != team_id:
                continue
            if site.kind == SITE_MALLOC_FAIL:
                state.malloc_n = site.n
                state.malloc_thread = site.thread
            elif site.kind == SITE_RT_TRAP:
                state.trap_n = site.n
                state.trap_thread = site.thread
            elif site.kind == SITE_BARRIER_SKIP:
                state.skip_n = site.n
                state.skip_thread = self._resolve(
                    site, index, "thread", launch.threads_per_team)
            armed = True
        return state if armed else None


class TeamFaultState:
    """Mutable per-team fault counters consulted by both engines.

    The hooks below are only reached from paths the engines already
    branch on (categorized runtime calls, the malloc/free intrinsic
    arms, barrier arrival), behind a ``thread.faults is not None``
    check — a plain launch never pays for them.  Hook work is pure
    Python bookkeeping: no simulated cycles are charged, so a plan that
    never fires leaves the :class:`KernelProfile` bit-identical.
    """

    __slots__ = (
        "team_id",
        "exhaust", "exhaust_thread", "exhausted",
        "malloc_n", "malloc_thread", "malloc_seen",
        "trap_n", "trap_thread", "trap_seen",
        "skip_n", "skip_thread", "skip_seen",
        "_saturation",
    )

    def __init__(self, team_id: int) -> None:
        self.team_id = team_id
        self.exhaust = False
        self.exhaust_thread: Optional[int] = None
        self.exhausted = False  # first-saturation latch for tracing
        self.malloc_n = 0
        self.malloc_thread: Optional[int] = None
        self.malloc_seen = 0
        self.trap_n = 0
        self.trap_thread: Optional[int] = None
        self.trap_seen = 0
        self.skip_n = 0
        self.skip_thread: Optional[int] = None
        self.skip_seen = 0
        self._saturation = False  # False = unresolved, None = unavailable

    # ------------------------------------------------------------- hooks --

    def on_runtime_call(self, vm, thread, frame, callee_name: str) -> None:
        """Fired after a categorized runtime call is counted, before the
        callee body runs."""
        if self.trap_n:
            if self.trap_thread is None or thread.thread_id == self.trap_thread:
                self.trap_seen += 1
                if self.trap_seen == self.trap_n:
                    self._emit(vm, "fault.rt_trap", thread, callee=callee_name)
                    raise injected_trap_error(
                        self.trap_n, callee_name, frame.function.name, thread)
        if self.exhaust and callee_name in ALLOC_SHARED_NAMES:
            if self.exhaust_thread is None or thread.thread_id == self.exhaust_thread:
                self._saturate(vm, thread)

    def on_device_malloc(self, vm, thread, function_name: str) -> None:
        """Fired before the malloc intrinsic allocates (and before the
        ``device_mallocs`` counter moves, so a failed malloc is never
        counted — another profile-identity requirement)."""
        if not self.malloc_n:
            return
        if self.malloc_thread is not None and thread.thread_id != self.malloc_thread:
            return
        self.malloc_seen += 1
        if self.malloc_seen == self.malloc_n:
            self._emit(vm, "fault.malloc_fail", thread)
            raise injected_malloc_failure(self.malloc_n, function_name, thread)

    def skip_barrier(self, vm, thread) -> bool:
        """True when *thread* should fall through its barrier arrival."""
        if not self.skip_n or thread.thread_id != self.skip_thread:
            return False
        self.skip_seen += 1
        if self.skip_seen != self.skip_n:
            return False
        self._emit(vm, "fault.barrier_skip", thread)
        return True

    # --------------------------------------------------------- internals --

    def _saturate(self, vm, thread) -> None:
        """Pin the caller's shared-stack top at "full" so the alloc call
        about to execute (and every later one) takes the global-malloc
        fallback.  Layout comes from the runtime that owns the stack."""
        sat = self._saturation
        if sat is False:
            sat = (_libnew_memory.shared_stack_saturation(vm.module)
                   or _libold_builder.shared_stack_saturation(vm.module))
            self._saturation = sat
        if sat is None:
            return  # no shared stack in this build: already malloc-only
        name, offset, stride, value = sat
        addr = (vm.global_addresses[vm.module.globals[name]]
                + offset + stride * thread.thread_id)
        # The top global lives in SHARED address space, so this store is
        # naturally per-team; the engines' own memory system routes it.
        vm.memory.store(addr, value, I32, thread.team_id, thread.thread_id)
        if not self.exhausted:
            self.exhausted = True
            self._emit(vm, "fault.shared_stack_exhaust", thread)

    def _emit(self, vm, name: str, thread, **args) -> None:
        trace = vm._trace
        if trace is not None:
            from repro.trace.categories import FAULT_EVENT_CATEGORY

            trace.instant(name, cat=FAULT_EVENT_CATEGORY,
                          team=thread.team_id, thread=thread.thread_id, **args)
