"""The virtual GPU: an IR executor with GPU execution semantics.

Execution model (paper Fig. 2): a launch creates ``num_teams`` teams of
``threads_per_team`` threads.  Teams are independent; within a team,
threads run interleaved at *barrier granularity* — every thread runs
until it either terminates or arrives at a team barrier, then the
barrier releases all arrivals at once.  This is a legal interleaving
for any data-race-free OpenMP/CUDA program and makes simulation
deterministic.

Timing: a team's elapsed time is the sum over barrier-delimited phases
of the *maximum* per-thread cycle count in the phase (threads run in
parallel on hardware), plus barrier costs.  The kernel time is the sum
over SM waves of the slowest team in each wave, plus launch overhead.

Two execution engines share this team/timing driver:

* ``decoded`` (default) — the pre-decoded engine of
  :mod:`repro.vgpu.decode`: functions are flattened once into micro-op
  arrays with slot-resolved operands and folded static costs, and each
  basic block's simple ops run as one fused, generated function.  Run
  op by op (:attr:`VirtualGPU._per_op`) it is the reference the
  differential tests pin the fused path and warp to, and the engine of
  a service retry.
* ``warp`` — :mod:`repro.vgpu.warp`: whole warps execute in lockstep
  over NumPy lane arrays; teams it cannot run take the decoded path.

Teams run one after another, in team order; each accumulates its
counters into its own :class:`~repro.vgpu.profiler.TeamStats`, merged
in team order.  Teams only meet in the SM wave model, after all of
them have run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.memory.addrspace import AddressSpace, make_pointer
from repro.memory.layout import DATA_LAYOUT
from repro.memory.memmodel import MemorySystem, encode_scalar
from repro.ir.instructions import Call
from repro.ir.intrinsics import intrinsic_info
from repro.ir.module import Function, Module
from repro.ir.types import Type
from repro.ir.values import GlobalVariable
from repro.vgpu import decode as _decode
from repro.vgpu.config import (
    DEFAULT_CONFIG,
    FALLBACK_FAULT_PLAN,
    FALLBACK_LOW_OCCUPANCY,
    FALLBACK_OLD_RT,
    FALLBACK_SANITIZE,
    GPUConfig,
    LaunchConfig,
    resolve_fault_plan,
    resolve_sanitize,
    resolve_sim_engine,
)
from repro.vgpu.config import (  # noqa: F401 (re-export)
    ENGINE_DECODED,
    ENGINE_WARP,
)
from repro.vgpu.cost import CostModel
from repro.vgpu.errors import (
    BarrierDivergence,
    DivergenceError,
    SanitizerError,
    SimulationError,
    WatchdogExpired,
    attach_context,
)
from repro.vgpu.execstate import (  # noqa: F401 (ThreadStatus re-exported)
    Scalar,
    ThreadContext,
    ThreadStatus,
)
from repro.runtime.state import GV_OLD_TEAM_CONTEXT
from repro.trace.collector import active_or_none as _active_trace
from repro.vgpu.launchspec import LaunchResult, LaunchSpec
from repro.vgpu.profiler import KernelProfile, TeamStats
from repro.vgpu.resources import ResourceUsage, measure_resources

_RUNNING = ThreadStatus.RUNNING
_AT_BARRIER = ThreadStatus.AT_BARRIER
_DONE = ThreadStatus.DONE

#: Below this lane occupancy of team 0 (see ``warp.lane_occupancy``) a
#: warp launch runs its other teams decoded.  One warp dispatch costs
#: 4-7 us of NumPy work against about 0.28 us per decoded op, and
#: minifmm's warp launches, at 7-8 of 32 lanes, took 1.8-2.1x as long
#: as decoded; every cell that beats decoded runs at 31-32 lanes.
_MIN_WARP_OCCUPANCY = 0.5


def _waiting_context(exc: BarrierDivergence, waiting) -> BarrierDivergence:
    """Attach the device context of the lowest-numbered thread in
    *waiting*: its function, call stack and the block of the barrier it
    waits at.  Barrier divergence is only diagnosed under the sanitizer,
    which always runs on the decoded engine, so every waiting thread
    keeps its own frame list."""
    thread = min(waiting, key=lambda t: t.thread_id)
    call = thread.barrier_call
    block = call.parent.name if call is not None and call.parent is not None else None
    return attach_context(exc, thread, block)


class CooperativeWatchdog:
    """Cooperative wall-clock abort shared by every team of a launch.

    Teams poll :meth:`expired` at phase boundaries.
    """

    __slots__ = ("seconds", "deadline")

    def __init__(self, seconds: float, start_s: float) -> None:
        self.seconds = seconds
        self.deadline = start_s + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


class VirtualGPU:
    """Loads a module onto simulated hardware and launches kernels."""

    #: When True, decoded frames run ``code.ops`` op by op instead of
    #: fused runs (chosen where a frame is created; see
    #: ``decode._frame_ops``).  This per-op path is the reference the
    #: differential tests compare against and what a service retry runs
    #: on a fresh device: it avoids the generated fused code.
    _per_op = False

    def __init__(
        self,
        module: Module,
        config: GPUConfig = DEFAULT_CONFIG,
        debug_checks: bool = False,
        env: Optional[Dict[str, int]] = None,
        engine: Optional[str] = None,
        trace=None,
        sanitize: Optional[bool] = None,
        faults=None,
    ) -> None:
        self.module = module
        self.config = config
        self.cost = CostModel(config)
        #: Trace collector, or None when tracing is disabled (the
        #: default).  The hot loops branch on this exactly once per
        #: phase, so the disabled path is byte-identical to the
        #: pre-tracing engine (guarded by the trace overhead tests).
        self._trace = trace if trace is not None else _active_trace()
        #: When True the simulator verifies assumptions and aligned-barrier
        #: alignment — the dynamic half of the paper's debug mode.
        self.debug_checks = debug_checks
        #: Execution engine: ``decoded`` (default) or ``warp``; also
        #: selectable via ``REPRO_SIM_ENGINE``.
        self.engine = resolve_sim_engine(engine)
        self.env = dict(env or {})
        #: Sanitizer mode (``REPRO_SANITIZE`` when not passed): swaps in
        #: the shadow-checked memory system and arms the barrier-
        #: divergence detector in the phase driver.
        self.sanitize = resolve_sanitize(sanitize)
        if self.sanitize:
            from repro.vgpu.sanitizer import SanitizedMemorySystem as _MemSys
        else:
            _MemSys = MemorySystem
        #: Fault-injection plan (``REPRO_FAULTS`` when not passed), or
        #: None — the common case, in which no engine hot path ever
        #: consults the fault machinery.
        self.fault_plan = resolve_fault_plan(faults)
        self.memory = _MemSys(
            global_size=config.global_memory,
            constant_size=config.constant_memory,
            shared_size=config.shared_memory_per_team,
            local_size=config.local_memory_per_thread,
        )
        self.global_addresses: Dict[GlobalVariable, int] = {}
        self._shared_inits: List[Tuple[int, bytes]] = []
        self.function_addresses: Dict[Function, int] = {}
        self._functions_by_address: Dict[int, Function] = {}
        self._string_table: Dict[int, str] = {}
        #: Per-device caches of everything derived from the IR: bound
        #: decodes, warp vectorizations and resource measurements.  Never
        #: on the module, which passes mutate in place (only the generated
        #: code of fused runs is shared process-wide, keyed by its source;
        #: see :mod:`repro.vgpu.decode`).
        self._bound_cache: Dict[Function, _decode.BoundFunction] = {}
        self._warp_cache: Dict[Function, Any] = {}
        self._resource_cache: Dict[Function, ResourceUsage] = {}
        #: Whether this module may execute in warp lockstep.  The old
        #: runtime's shared-memory stack bumps a single team-wide top
        #: with a plain load/add/store — a benign race under the serial
        #: per-thread engines (each thread runs alone between barriers)
        #: but a genuine one when a warp executes the sequence in
        #: lockstep: every lane would read the same ``top`` and alias
        #: the same allocation.  Such modules take the decoded scalar
        #: path instead (bit-parity by construction), mirroring the
        #: fault/sanitizer fallback below.
        self._warp_lockstep_ok = GV_OLD_TEAM_CONTEXT not in module.globals
        #: Launch-time state read by the ``gpu.*`` geometry intrinsics.
        self._launch: Optional[LaunchConfig] = None
        self._dynamic_shared_bytes = 0
        self._dynamic_shared_base: Dict[int, int] = {}
        #: Team id -> why that team of the current warp-requested launch
        #: ran decoded (reported on its LaunchResult).
        self._fallbacks: Dict[int, str] = {}
        #: Set when team 0 of the current launch ran warp below
        #: ``_MIN_WARP_OCCUPANCY``: the launch's later teams run decoded.
        self._low_occupancy = False
        self._materialize_globals()
        self._assign_function_addresses()
        self._apply_environment()
        #: Post-load device image for warm resets (:meth:`reset_device`).
        #: The sanitizer's shadow state is launch-scoped, not image-
        #: scoped, so sanitized devices are rebuilt instead of reset.
        if not self.sanitize:
            self.memory.snapshot_device_image()

    # ------------------------------------------------------------------ setup --

    def _materialize_globals(self) -> None:
        for gv in self.module.globals.values():
            size = DATA_LAYOUT.size_of(gv.value_type)
            align = DATA_LAYOUT.align_of(gv.value_type)
            image = self._initializer_image(gv, size)
            if gv.addrspace is AddressSpace.SHARED:
                addr = self.memory.reserve_shared_layout(size, align)
                if image is not None:
                    self._shared_inits.append((addr, image))
            elif gv.addrspace is AddressSpace.CONSTANT:
                addr = self.memory.constant_seg.allocate(size, align)
                if image is not None:
                    self.memory.constant_seg.write_bytes(addr & ((1 << 48) - 1), image)
            else:
                addr = self.memory.global_seg.allocate(size, align)
                if image is not None:
                    self.memory.write_raw(addr, image)
            self.global_addresses[gv] = addr
            if isinstance(gv.initializer, bytes) and gv.value_type.is_aggregate:
                # Register plausible C strings for device-side printing.
                raw = gv.initializer.split(b"\x00", 1)[0]
                try:
                    self._string_table[addr] = raw.decode("utf-8")
                except UnicodeDecodeError:
                    pass

    @staticmethod
    def _initializer_image(gv: GlobalVariable, size: int) -> Optional[bytes]:
        init = gv.initializer
        if init is None:
            return None  # segments are zero-initialized already
        if isinstance(init, bytes):
            if len(init) > size:
                raise SimulationError(
                    f"initializer of @{gv.name} larger than its type"
                )
            return init.ljust(size, b"\x00")
        image = bytearray()
        for const in init:
            image += encode_scalar(const.value, const.type)
        if len(image) > size:
            raise SimulationError(f"initializer of @{gv.name} larger than its type")
        return bytes(image).ljust(size, b"\x00")

    def _assign_function_addresses(self) -> None:
        for i, func in enumerate(self.module.functions.values()):
            addr = make_pointer(AddressSpace.CONSTANT, 0xF000 + 8 * i)
            self.function_addresses[func] = addr
            self._functions_by_address[addr] = func

    def _apply_environment(self) -> None:
        """Write host environment variables into device-environment globals.

        The runtime reads ``@__omp_rtl_env_<NAME>`` at initialization —
        the analogue of ``LIBOMPTARGET_DEVICE_RTL_DEBUG`` in the paper.
        """
        for name, value in self.env.items():
            gv = self.module.globals.get(f"__omp_rtl_env_{name}")
            if gv is not None:
                self.memory.store(
                    self.global_addresses[gv], int(value), gv.value_type
                )

    # ------------------------------------------------------------- host memory --

    def alloc_bytes(self, size: int) -> int:
        return self.memory.malloc(size)

    def alloc_array(self, array: "np.ndarray") -> int:
        """Copy a NumPy array into device global memory; returns a pointer."""
        import numpy as np  # deferred: scalar-engine launches never need it

        data = np.ascontiguousarray(array)
        ptr = self.memory.malloc(max(1, data.nbytes))
        self.memory.write_raw(ptr, data.tobytes())
        return ptr

    def read_array(self, ptr: int, dtype, count: int) -> "np.ndarray":
        import numpy as np  # deferred: scalar-engine launches never need it

        itemsize = np.dtype(dtype).itemsize
        raw = self.memory.read_raw(ptr, itemsize * count)
        return np.frombuffer(raw, dtype=dtype).copy()

    def read_scalar(self, ptr: int, ty: Type) -> Scalar:
        return self.memory.load(ptr, ty)

    def write_scalar(self, ptr: int, value: Scalar, ty: Type) -> None:
        self.memory.store(ptr, value, ty)

    # ------------------------------------------------------------------ launch --

    def run(self, spec: LaunchSpec) -> LaunchResult:
        """Execute *spec* and return a :class:`LaunchResult`.

        This is the one launch entry point.  Per-spec overrides
        (``engine``, ``faults``) are applied for the duration of the
        run and restored afterwards — a device executes one request at
        a time, which is what lets the serve layer multiplex warm
        devices across tenants.

        ``spec.dynamic_shared_bytes`` models the launch-time dynamic
        shared memory of §III-D; ``spec.deadline_s``, counted from this
        call, bounds wall-clock simulation time with a cooperative
        abort at phase boundaries, raising
        :class:`~repro.vgpu.errors.WatchdogExpired`.
        """
        if spec.sanitize is not None and bool(spec.sanitize) != self.sanitize:
            raise SimulationError(
                f"LaunchSpec expects sanitize={bool(spec.sanitize)} but this "
                f"device was built with sanitize={self.sanitize}"
            )
        engine = (self.engine if spec.engine is None
                  else resolve_sim_engine(spec.engine))
        fault_plan = self.fault_plan_for(spec)
        saved = (self.engine, self.fault_plan)
        self.engine, self.fault_plan = engine, fault_plan
        started = time.monotonic()
        try:
            profile = self._execute_spec(spec, started)
        finally:
            self.engine, self.fault_plan = saved
        fallbacks = self._fallbacks
        everywhere = len(fallbacks) == spec.num_teams
        return LaunchResult(
            spec=spec,
            profile=profile,
            engine=engine,
            executed_engine=ENGINE_DECODED if everywhere else engine,
            # a fault plan arms single teams and low occupancy gates
            # teams >= 1, so reasons can mix: the lowest team's wins
            fallback=fallbacks[min(fallbacks)] if fallbacks else None,
            started_s=started,
            finished_s=time.monotonic(),
        )

    def fault_plan_for(self, spec: LaunchSpec):
        """The fault plan :meth:`run` applies to *spec*: its own, else
        this device's."""
        if spec.faults is None:
            return self.fault_plan
        return resolve_fault_plan(spec.faults)

    def _execute_spec(self, spec: LaunchSpec,
                      started_s: float) -> KernelProfile:
        """Run one launch with the device-level engine/faults in effect;
        its time budget counts from *started_s*."""
        kernel = spec.kernel
        args = spec.args
        num_teams = spec.num_teams
        threads_per_team = spec.threads_per_team
        func = self.module.get_function(kernel) if isinstance(kernel, str) else kernel
        if func.is_declaration:
            raise SimulationError(f"kernel @{func.name} has no body")
        if threads_per_team > self.config.max_threads_per_team:
            raise SimulationError(
                f"threads_per_team {threads_per_team} exceeds device limit "
                f"{self.config.max_threads_per_team}"
            )
        if len(args) != len(func.args):
            raise SimulationError(
                f"kernel @{func.name} expects {len(func.args)} args, got {len(args)}"
            )
        launch = LaunchConfig(num_teams, threads_per_team)
        self._launch = launch
        self._fallbacks = {}
        self._low_occupancy = False
        self._dynamic_shared_bytes = spec.dynamic_shared_bytes
        self._dynamic_shared_base = {}
        profile = KernelProfile(
            kernel_name=func.name,
            num_teams=num_teams,
            threads_per_team=threads_per_team,
        )
        resources = self._resource_cache.get(func)
        if resources is None:
            resources = self._resource_cache[func] = measure_resources(
                func, self.module)
        profile.registers = resources.registers
        profile.shared_memory_bytes = resources.shared_memory_bytes

        self.memory.begin_launch()
        abort = (CooperativeWatchdog(spec.deadline_s, started_s)
                 if spec.deadline_s is not None else None)
        # One reusable thread-context workspace shared by all teams.
        workspace: List[ThreadContext] = []
        try:
            results = [
                self._run_team(func, args, team_id, launch, workspace, abort)
                for team_id in range(num_teams)
            ]
        except SimulationError as exc:
            if self._trace is not None:
                from repro.trace.categories import (
                    FAULT_EVENT_CATEGORY,
                    SANITIZER_EVENT_CATEGORY,
                )

                cat = (SANITIZER_EVENT_CATEGORY if isinstance(exc, SanitizerError)
                       else FAULT_EVENT_CATEGORY)
                self._trace.instant(
                    f"crash.{type(exc).__name__}", cat=cat,
                    kernel=func.name, engine=self.engine, message=str(exc),
                )
            raise

        team_times: List[int] = []
        for team_id, (team_time, stats) in enumerate(results):
            profile.merge_team(team_id, team_time, stats)
            team_times.append(team_time)

        # SM wave model: teams fill SMs; each wave costs its slowest team.
        total = self.config.launch_overhead
        for wave_start in range(0, num_teams, self.config.num_sms):
            total += max(team_times[wave_start : wave_start + self.config.num_sms])
        profile.cycles = total

        if self._trace is not None:
            # Events derive from merged per-team data, in team order.
            from repro.trace.device import emit_launch_events

            emit_launch_events(
                self._trace, profile, self.config,
                phase_logs=[stats.phase_log for _, stats in results],
                engine=self.engine,
                request_id=spec.request_id,
            )
        return profile

    # ------------------------------------------------------------ warm reset --

    @property
    def resettable(self) -> bool:
        """True when :meth:`reset_device` can restore the post-load image
        (sanitized devices must be rebuilt instead)."""
        return not self.sanitize

    def reset_device(self) -> "VirtualGPU":
        """Restore this device to its post-load state for reuse.

        Global and constant memory rewind onto fresh zero mappings
        holding only the image captured right after module load (so
        per-request ``alloc_array`` data and kernel-visible global
        mutations are discarded, and no zeros are written), shared/local
        segments are dropped for lazy re-creation, and launch-scoped
        state is cleared.  Decode bindings, warp vectorizations and
        resource measurements survive — that is the point of pooling
        warm devices: repeat requests skip both module load *and*
        kernel decode.
        """
        if self.sanitize:
            raise SimulationError(
                "sanitized devices cannot be warm-reset; build a fresh "
                "VirtualGPU(sanitize=True) per request"
            )
        self.memory.reset_device_image()
        self._launch = None
        self._dynamic_shared_bytes = 0
        self._dynamic_shared_base = {}
        return self

    # ------------------------------------------------------------- team driver --

    def _run_team(
        self,
        kernel: Function,
        args: Sequence[Scalar],
        team_id: int,
        launch: LaunchConfig,
        workspace: List[ThreadContext],
        abort: Optional[CooperativeWatchdog],
    ) -> Tuple[int, TeamStats]:
        """Simulate one team; returns its elapsed time and counters."""
        stats = TeamStats()
        seg = self.memory.reset_shared_segment(team_id)
        if self._dynamic_shared_bytes:
            self._dynamic_shared_base[team_id] = seg.allocate(
                self._dynamic_shared_bytes)
        for addr, image in self._shared_inits:
            offset = addr & ((1 << 48) - 1)
            seg.write_bytes(offset, image)

        n = launch.threads_per_team
        while len(workspace) < n:
            workspace.append(ThreadContext(team_id, len(workspace)))
        threads = workspace[:n]
        for thread in threads:
            thread.reset(team_id)

        # Per-team fault counters (None in the common, fault-free case;
        # every engine hook is behind a `thread.faults is not None`).
        fstate = (self.fault_plan.team_state(team_id, launch)
                  if self.fault_plan is not None else None)

        # Engine selection.  Teams with an armed fault plan (and sanitize
        # mode, which never selects warp at construction) fall back from
        # the warp engine to the decoded scalar engine: fault hooks and
        # sanitizer checks then behave identically by construction, and
        # the fault-free fast path stays free of per-op mode checks.
        # Old-runtime modules take the same fallback — their shared
        # stack is not lockstep-safe (see ``_warp_lockstep_ok``) — and
        # so do teams after a low-occupancy team 0 (``_MIN_WARP_OCCUPANCY``).
        engine = self.engine
        fallback = None
        if engine == ENGINE_WARP:
            fallback = (FALLBACK_SANITIZE if self.sanitize
                        else FALLBACK_OLD_RT if not self._warp_lockstep_ok
                        else FALLBACK_FAULT_PLAN if fstate is not None
                        else FALLBACK_LOW_OCCUPANCY if self._low_occupancy
                        else None)
            if fallback is not None:
                self._fallbacks[team_id] = fallback
        warp = engine == ENGINE_WARP and fallback is None
        for thread in threads:
            thread.stats = stats
            thread.faults = fstate
            if not warp:  # warp frames live inside the warp executors
                thread.frames.append(_decode.make_kernel_frame(self, kernel, args))
        if warp:
            from repro.vgpu import warp as _warp  # deferred: needs numpy

            warps = _warp.make_team_warps(self, kernel, args, threads, stats)

        # Barrier-granularity phase driver.  Threads leave `run_thread`
        # either DONE or AT_BARRIER, so each pass over `alive` runs one
        # phase; no per-iteration runnable-list rebuild is needed.
        team_time = 0
        plog = stats.phase_log if self._trace is not None else None
        alive = list(threads)
        try:
            while alive:
                if abort is not None and abort.expired():
                    raise WatchdogExpired(
                        f"watchdog ({abort.seconds:g}s) expired: team {team_id} "
                        f"of @{kernel.name} aborted at a phase boundary"
                    )
                if warp:
                    for wx in warps:
                        wx.run_phase()
                else:
                    for thread in alive:
                        if thread.status is _RUNNING:
                            _decode.run_thread(self, thread)
                still = [t for t in alive if t.status is not _DONE]
                if self.sanitize and still and len(still) < len(alive):
                    # Some threads exited the kernel while teammates wait at
                    # a barrier that can now never be satisfied: on hardware
                    # this is a hang; here it is a structured diagnostic.
                    waiting = sorted(t.thread_id for t in still)
                    exited = sorted(
                        t.thread_id for t in alive if t.status is _DONE)
                    raise _waiting_context(BarrierDivergence(
                        f"barrier divergence in team {team_id}: threads "
                        f"{exited} finished the kernel while threads "
                        f"{waiting} wait at a barrier", team=team_id,
                    ), still)
                alive = still
                if not alive:
                    break
                # Everyone alive is at a barrier: close the phase.
                barrier_calls = {t.barrier_call for t in alive}
                aligned = all(
                    self._barrier_is_aligned(c) for c in barrier_calls if c is not None
                )
                if aligned and len(barrier_calls) > 1:
                    if self.sanitize:
                        raise _waiting_context(BarrierDivergence(
                            f"threads of team {team_id} reached different "
                            f"aligned barrier instructions", team=team_id,
                        ), alive)
                    if self.debug_checks:
                        raise DivergenceError(
                            f"threads of team {team_id} reached different aligned "
                            f"barrier instructions"
                        )
                barrier_cost = max(
                    (self._barrier_cost(c) for c in barrier_calls if c is not None),
                    default=0,
                )
                phase = max(t.phase_cycles for t in threads)
                team_time += phase + barrier_cost
                stats.barriers += 1
                if aligned:
                    stats.barriers_aligned += 1
                else:
                    stats.barriers_unaligned += 1
                if plog is not None:
                    plog.append((phase, barrier_cost, aligned))
                for t in threads:
                    t.phase_cycles = 0
                    if t.status is _AT_BARRIER:
                        t.status = _RUNNING
                        t.barrier_call = None
        finally:
            # Fused runs count hits, not ops: fold them into the opcode
            # counters once per team, also when the team fails.
            stats.settle()
        if warp and team_id == 0 and launch.num_teams > 1:
            self._low_occupancy = (
                _warp.lane_occupancy(warps) < _MIN_WARP_OCCUPANCY)
        tail = max((t.phase_cycles for t in threads), default=0)
        team_time += tail
        if plog is not None:
            plog.append((tail, 0, None))
        for t in threads:
            stats.instructions += t.steps
        stats.shared_stack_high_water = max(
            stats.shared_stack_high_water,
            seg.high_water - self.memory.shared_brk_template,
        )
        return team_time, stats

    @staticmethod
    def _barrier_is_aligned(call: Call) -> bool:
        callee = call.callee
        if callee is None:
            return False
        info = intrinsic_info(callee.name)
        return bool(info and info.aligned)

    def _barrier_cost(self, call: Call) -> int:
        callee = call.callee
        if callee is None:
            return 0
        info = intrinsic_info(callee.name)
        return info.cost if info else 0
