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
  arrays with slot-resolved operands and folded static costs.
* ``legacy`` — the original tree-walking interpreter kept in this
  module as the deterministic reference; the differential tests pin
  the decoded engine to it bit for bit.

Teams are embarrassingly parallel, so ``LaunchSpec(sim_jobs=N)`` (or
``REPRO_SIM_JOBS``) fans independent teams out to a thread pool.  All
counters accumulate into per-team :class:`~repro.vgpu.profiler.
TeamStats` merged in team order, so serial and parallel simulation
produce identical profiles.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait as _wait_futures
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.memory.addrspace import AddressSpace, make_pointer, pointer_space
from repro.memory.layout import DATA_LAYOUT
from repro.memory.memmodel import (
    DEVICE_LOCK,
    MemoryError_,
    MemorySystem,
    encode_scalar,
)
from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.intrinsics import intrinsic_info
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import FloatType, IntType, PointerType, Type
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
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
    resolve_sim_jobs,
    resolve_watchdog,
)
from repro.vgpu.config import (  # noqa: F401 (re-export)
    ENGINE_DECODED,
    ENGINE_LEGACY,
    ENGINE_WARP,
)
from repro.vgpu.cost import CostModel
from repro.vgpu.errors import (
    BarrierDivergence,
    DivergenceError,
    SanitizerError,
    SimulationError,
    WatchdogExpired,
    assumption_error,
    attach_context,
    call_stack_overflow_error,
    division_by_zero_error,
    step_limit_error,
    trap_error,
    unreachable_error,
)
from repro.vgpu.execstate import (  # noqa: F401 (Frame/ThreadStatus re-exported)
    Frame,
    Scalar,
    ThreadContext,
    ThreadStatus,
    atomic_apply,
    math_intrinsic,
)
from repro.runtime.state import GV_OLD_TEAM_CONTEXT
from repro.trace.categories import OVERHEAD_CATEGORIES
from repro.trace.collector import active_or_none as _active_trace
from repro.vgpu.launchspec import LaunchResult, LaunchSpec
from repro.vgpu.profiler import KernelProfile, TeamStats
from repro.vgpu.resources import ResourceUsage, measure_resources

_RUNTIME_CATEGORY = OVERHEAD_CATEGORIES.get

_RUNNING = ThreadStatus.RUNNING
_AT_BARRIER = ThreadStatus.AT_BARRIER
_DONE = ThreadStatus.DONE

_I64 = IntType(64)

#: Below this lane occupancy of team 0 (see ``warp.lane_occupancy``) a
#: warp launch runs its other teams decoded.  One warp dispatch costs
#: 4-7 us of NumPy work against about 0.28 us per decoded op, and
#: minifmm's warp launches, at 7-8 of 32 lanes, took 1.8-2.1x as long
#: as decoded; every cell that beats decoded runs at 31-32 lanes.
_MIN_WARP_OCCUPANCY = 0.5


class CooperativeWatchdog:
    """Cooperative wall-clock abort shared by every team of a launch.

    Teams poll :meth:`expired` at phase boundaries, so both the serial
    reference path and ``sim_jobs=N`` honour the same deadline; the
    parallel driver additionally sets :attr:`event` from the waiting
    host thread so workers stop even when a single phase overruns the
    deadline check cadence.
    """

    __slots__ = ("seconds", "deadline", "event")

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.deadline = time.monotonic() + seconds
        self.event = threading.Event()

    def remaining(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def expired(self) -> bool:
        return self.event.is_set() or time.monotonic() >= self.deadline


class VirtualGPU:
    """Loads a module onto simulated hardware and launches kernels."""

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
        #: pre-tracing engine (guarded by the simperf overhead test).
        self._trace = trace if trace is not None else _active_trace()
        #: When True the simulator verifies assumptions and aligned-barrier
        #: alignment — the dynamic half of the paper's debug mode.
        self.debug_checks = debug_checks
        #: Execution engine: ``decoded`` (default), ``legacy`` or
        #: ``warp``; also selectable via ``REPRO_SIM_ENGINE``.
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
        shared memory of §III-D; ``spec.sim_jobs`` fans independent
        teams out to worker threads with profiles identical to a serial
        run; ``spec.watchdog_s`` bounds wall-clock simulation time with
        a cooperative abort at phase boundaries — honoured by both the
        serial and the parallel phase drivers — raising
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
            profile = self._execute_spec(spec)
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

    def _execute_spec(self, spec: LaunchSpec) -> KernelProfile:
        """Run one launch with the device-level engine/faults in effect."""
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

        if self.sanitize:
            self.memory.begin_launch()
        jobs = resolve_sim_jobs(spec.sim_jobs, num_teams)
        watchdog_s = resolve_watchdog(spec.watchdog_s)
        if spec.deadline_s is not None:
            # A direct run starts its budget now, so the deadline is a
            # whole-launch watchdog bound (the serve layer instead
            # clamps to the *remaining* budget before handing off).
            budget = max(spec.deadline_s, 1e-3)
            watchdog_s = budget if watchdog_s <= 0 else min(watchdog_s, budget)
        abort = CooperativeWatchdog(watchdog_s) if watchdog_s > 0 else None
        try:
            if jobs == 1:
                # Serial reference path: one reusable thread-context
                # workspace shared by all teams (allocation reuse).
                # The watchdog deadline applies here too — teams poll
                # it cooperatively at phase boundaries.
                workspace: List[ThreadContext] = []
                results = [
                    self._run_team(func, args, team_id, launch, workspace,
                                   abort)
                    for team_id in range(num_teams)
                ]
            else:
                results = self._run_teams_parallel(
                    func, args, num_teams, launch, jobs, abort,
                )
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
            # Events derive from merged per-team data, in team order —
            # serial and parallel simulation emit identical traces.
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

        Global and constant memory rewind to the image captured right
        after module load (so per-request ``alloc_array`` data and
        kernel-visible global mutations are discarded), shared/local
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

    def _run_teams_parallel(
        self,
        kernel: Function,
        args: Sequence[Scalar],
        num_teams: int,
        launch: LaunchConfig,
        jobs: int,
        abort: Optional[CooperativeWatchdog],
    ) -> List[Tuple[int, TeamStats]]:
        """Fan teams out to *jobs* workers, optionally under a watchdog.

        Results (and errors) are collected in team order, so the team
        whose error surfaces is the same one a serial run would have
        reported — launch failures stay deterministic under
        ``sim_jobs=N``.  A warp launch runs team 0 before the others:
        its lane occupancy picks their engine, as in a serial run.
        """
        head = ([self._run_team(kernel, args, 0, launch, None, abort)]
                if self.engine == ENGINE_WARP else [])
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(self._run_team, kernel, args, team_id, launch,
                            None, abort)
                for team_id in range(len(head), num_teams)
            ]
            if abort is not None:
                done, not_done = _wait_futures(futures, timeout=abort.remaining())
                if not_done:
                    abort.event.set()
                    _wait_futures(futures)  # workers stop at a phase boundary
                    raise WatchdogExpired(
                        f"watchdog ({abort.seconds:g}s) expired with "
                        f"{len(not_done)}/{num_teams} teams of "
                        f"@{kernel.name} still running"
                    )
            return head + [f.result() for f in futures]

    def _run_team(
        self,
        kernel: Function,
        args: Sequence[Scalar],
        team_id: int,
        launch: LaunchConfig,
        workspace: Optional[List[ThreadContext]] = None,
        abort: Optional[CooperativeWatchdog] = None,
    ) -> Tuple[int, TeamStats]:
        """Simulate one team; returns its elapsed time and counters."""
        stats = TeamStats()
        # (Re)initialize this team's shared segment image (in place; no
        # per-team bytes allocation).
        seg = self.memory.reset_shared_segment(team_id)
        if self._dynamic_shared_bytes:
            self._dynamic_shared_base[team_id] = seg.allocate(
                self._dynamic_shared_bytes)
        for addr, image in self._shared_inits:
            offset = addr & ((1 << 48) - 1)
            seg.write_bytes(offset, image)

        n = launch.threads_per_team
        if workspace is None:
            threads = [ThreadContext(team_id, t) for t in range(n)]
        else:
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
        decoded = engine == ENGINE_DECODED or fallback is not None
        for thread in threads:
            thread.stats = stats
            thread.faults = fstate
            if warp:
                continue  # frames live inside the warp executors
            if decoded:
                thread.frames.append(_decode.make_kernel_frame(self, kernel, args))
            else:
                frame = Frame(kernel, None)
                for formal, actual in zip(kernel.args, args):
                    frame.values[formal] = self._coerce(actual, formal.type)
                thread.frames.append(frame)
        if warp:
            from repro.vgpu import warp as _warp  # deferred: needs numpy

            warps = _warp.make_team_warps(self, kernel, args, threads, stats)

        # Barrier-granularity phase driver.  Threads leave `_run_thread`
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
                            if decoded:
                                _decode.run_thread(self, thread)
                            else:
                                self._run_thread(thread, launch, stats)
                still = [t for t in alive if t.status is not _DONE]
                if self.sanitize and still and len(still) < len(alive):
                    # Some threads exited the kernel while teammates wait at
                    # a barrier that can now never be satisfied: on hardware
                    # this is a hang; here it is a structured diagnostic.
                    waiting = sorted(t.thread_id for t in still)
                    exited = sorted(
                        t.thread_id for t in alive if t.status is _DONE)
                    raise BarrierDivergence(
                        f"barrier divergence in team {team_id}: threads "
                        f"{exited} finished the kernel while threads "
                        f"{waiting} wait at a barrier", team=team_id,
                    )
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
                        raise BarrierDivergence(
                            f"threads of team {team_id} reached different "
                            f"aligned barrier instructions", team=team_id,
                        )
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

    # ----------------------------------------------- legacy thread driver --

    def _run_thread(
        self, thread: ThreadContext, launch: LaunchConfig, stats: TeamStats
    ) -> None:
        """Run *thread* until it terminates or arrives at a barrier."""
        if self._trace is not None:
            return self._run_thread_traced(thread, launch, stats)
        max_steps = self.config.max_steps_per_thread
        try:
            while thread.status is _RUNNING:
                frame = thread.frame
                inst = frame.block.instructions[frame.index]
                # Check before the retire: the stopped thread reports
                # exactly max_steps retired instructions (engine-pinned
                # by tests/vgpu/test_step_limit.py).
                if thread.steps == max_steps:
                    raise step_limit_error(thread, max_steps, frame.function.name)
                thread.steps += 1
                self._execute(inst, thread, launch, stats)
        except (SimulationError, MemoryError_) as exc:
            frames = thread.frames
            raise attach_context(
                exc, thread, frames[-1].block.name if frames else None)

    def _run_thread_traced(
        self, thread: ThreadContext, launch: LaunchConfig, stats: TeamStats
    ) -> None:
        """Tracing variant of :meth:`_run_thread`: identical semantics
        and cycle charges, plus per-IR-function cycle attribution
        (each instruction's cycles go to the function executing it)."""
        max_steps = self.config.max_steps_per_thread
        fn_cycles = stats.function_cycles
        try:
            while thread.status is _RUNNING:
                frame = thread.frame
                inst = frame.block.instructions[frame.index]
                if thread.steps == max_steps:
                    raise step_limit_error(thread, max_steps, frame.function.name)
                thread.steps += 1
                before = thread.phase_cycles
                self._execute(inst, thread, launch, stats)
                fn_cycles[frame.function.name] += thread.phase_cycles - before
        except (SimulationError, MemoryError_) as exc:
            frames = thread.frames
            raise attach_context(
                exc, thread, frames[-1].block.name if frames else None)

    # -------------------------------------------------------------- evaluation --

    def _coerce(self, value: Scalar, ty: Type) -> Scalar:
        if isinstance(ty, IntType):
            return ty.wrap(int(value))
        if isinstance(ty, FloatType):
            return float(value)
        return int(value)

    def _eval(self, value: Value, frame: Frame) -> Scalar:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, (Instruction, Argument)):
            try:
                return frame.values[value]
            except KeyError:
                raise SimulationError(
                    f"use of undefined value {value.short()} in "
                    f"@{frame.function.name}"
                ) from None
        if isinstance(value, GlobalVariable):
            return self.global_addresses[value]
        if isinstance(value, Function):
            return self.function_addresses[value]
        if isinstance(value, UndefValue):
            return 0
        raise SimulationError(f"cannot evaluate {value!r}")  # pragma: no cover

    def _advance(self, thread: ThreadContext) -> None:
        thread.frame.index += 1

    def _branch_to(self, thread: ThreadContext, target: BasicBlock) -> None:
        frame = thread.frame
        pred = frame.block
        # Parallel-copy phi semantics: read all incomings before writing.
        phis = target.phis()
        if phis:
            staged = [(phi, self._eval(phi.incoming_value_for(pred), frame)) for phi in phis]
            for phi, val in staged:
                frame.values[phi] = val
        frame.pred_block = pred
        frame.block = target
        frame.index = target.first_non_phi_index()

    # --------------------------------------------------------------- execution --

    def _execute(
        self,
        inst: Instruction,
        thread: ThreadContext,
        launch: LaunchConfig,
        stats: TeamStats,
    ) -> None:
        frame = thread.frame
        stats.opcode_counts[inst.opcode] += 1

        if isinstance(inst, BinOp):
            lhs = self._eval(inst.lhs, frame)
            rhs = self._eval(inst.rhs, frame)
            frame.values[inst] = self._binop(inst, lhs, rhs, thread)
            thread.phase_cycles += self.cost.binop_cost(inst)
            if inst.opcode in ("fadd", "fsub", "fmul", "fdiv", "frem"):
                stats.flops += 1
            self._advance(thread)
            return

        if isinstance(inst, Load):
            ptr = int(self._eval(inst.pointer, frame))
            space = pointer_space(ptr)
            frame.values[inst] = self.memory.load(
                ptr, inst.type, thread.team_id, thread.thread_id
            )
            stats.loads_by_space[space] += 1
            thread.phase_cycles += self.cost.load_cost(space)
            self._advance(thread)
            return

        if isinstance(inst, Store):
            ptr = int(self._eval(inst.pointer, frame))
            value = self._eval(inst.value, frame)
            space = pointer_space(ptr)
            self.memory.store(
                ptr, value, inst.value.type, thread.team_id, thread.thread_id
            )
            stats.stores_by_space[space] += 1
            thread.phase_cycles += self.cost.store_cost(space)
            self._advance(thread)
            return

        if isinstance(inst, PtrAdd):
            base = int(self._eval(inst.pointer, frame))
            offset_ty = inst.offset.type
            assert isinstance(offset_ty, IntType)
            offset = offset_ty.to_signed(int(self._eval(inst.offset, frame)))
            frame.values[inst] = base + offset
            thread.phase_cycles += self.cost.config.int_op_cost
            self._advance(thread)
            return

        if isinstance(inst, ICmp):
            frame.values[inst] = self._icmp(inst, frame)
            thread.phase_cycles += self.cost.config.int_op_cost
            self._advance(thread)
            return

        if isinstance(inst, FCmp):
            frame.values[inst] = self._fcmp(inst, frame)
            thread.phase_cycles += self.cost.config.int_op_cost
            self._advance(thread)
            return

        if isinstance(inst, Select):
            cond = self._eval(inst.condition, frame)
            picked = inst.true_value if cond else inst.false_value
            frame.values[inst] = self._eval(picked, frame)
            thread.phase_cycles += self.cost.config.select_cost
            self._advance(thread)
            return

        if isinstance(inst, Cast):
            frame.values[inst] = self._cast(inst, frame)
            thread.phase_cycles += self.cost.config.cast_cost
            self._advance(thread)
            return

        if isinstance(inst, Alloca):
            seg = self.memory.local_segment(thread.team_id, thread.thread_id)
            size = DATA_LAYOUT.size_of(inst.allocated_type)
            align = DATA_LAYOUT.align_of(inst.allocated_type)
            frame.values[inst] = seg.allocate(size, align)
            thread.phase_cycles += self.cost.config.alloca_cost
            self._advance(thread)
            return

        if isinstance(inst, AtomicRMW):
            ptr = int(self._eval(inst.pointer, frame))
            operand = self._eval(inst.value, frame)
            ty = inst.value.type
            with DEVICE_LOCK:
                old = self.memory.load(ptr, ty, thread.team_id, thread.thread_id)
                new = atomic_apply(inst.operation, old, operand, ty)
                self.memory.store(ptr, new, ty, thread.team_id, thread.thread_id)
            frame.values[inst] = old
            thread.phase_cycles += self.cost.config.atomic_cost
            self._advance(thread)
            return

        if isinstance(inst, Br):
            thread.phase_cycles += self.cost.config.branch_cost
            self._branch_to(thread, inst.target)
            return

        if isinstance(inst, CondBr):
            cond = self._eval(inst.condition, frame)
            thread.phase_cycles += self.cost.config.branch_cost
            self._branch_to(thread, inst.true_target if cond else inst.false_target)
            return

        if isinstance(inst, Ret):
            rv = inst.return_value
            result = self._eval(rv, frame) if rv is not None else None
            thread.frames.pop()
            if not thread.frames:
                thread.status = _DONE
                thread.total_cycles += thread.phase_cycles
                return
            caller = thread.frame
            call_site = frame.call_site
            assert call_site is not None
            if result is not None:
                caller.values[call_site] = result
            caller.index += 1
            return

        if isinstance(inst, Unreachable):
            raise unreachable_error(frame.function.name, thread)

        if isinstance(inst, Call):
            self._execute_call(inst, thread, launch, stats)
            return

        if isinstance(inst, Phi):  # pragma: no cover - phis run at branch time
            raise SimulationError("phi reached by sequential execution")

        raise SimulationError(f"unhandled instruction {inst.opcode}")  # pragma: no cover

    # ------------------------------------------------------------------- calls --

    def _execute_call(
        self,
        inst: Call,
        thread: ThreadContext,
        launch: LaunchConfig,
        stats: TeamStats,
    ) -> None:
        frame = thread.frame
        callee = inst.callee
        if callee is None:
            address = int(self._eval(inst.callee_operand, frame))
            callee = self._functions_by_address.get(address)
            if callee is None:
                raise SimulationError(
                    f"indirect call to unmapped address {address:#x} in "
                    f"@{frame.function.name}"
                )

        info = intrinsic_info(callee.name)
        if info is not None:
            self._execute_intrinsic(inst, callee.name, info, thread, launch, stats)
            return

        if callee.is_declaration:
            raise SimulationError(f"call to undefined function @{callee.name}")

        category = _RUNTIME_CATEGORY(callee.name)
        if category is not None:
            stats.runtime_calls[category] += 1
            if thread.faults is not None:
                thread.faults.on_runtime_call(self, thread, frame, callee.name)

        thread.phase_cycles += self.cost.config.call_cost
        new_frame = Frame(callee, inst)
        if len(inst.args) != len(callee.args):
            raise SimulationError(
                f"call to @{callee.name}: {len(inst.args)} args for "
                f"{len(callee.args)} params"
            )
        for formal, actual in zip(callee.args, inst.args):
            new_frame.values[formal] = self._coerce(self._eval(actual, frame), formal.type)
        thread.frames.append(new_frame)
        if len(thread.frames) > 512:
            raise call_stack_overflow_error(callee.name, thread)

    def _execute_intrinsic(
        self,
        inst: Call,
        name: str,
        info,
        thread: ThreadContext,
        launch: LaunchConfig,
        stats: TeamStats,
    ) -> None:
        frame = thread.frame
        argv = [self._eval(a, frame) for a in inst.args]
        thread.phase_cycles += info.cost

        if info.is_barrier:
            if thread.faults is not None and thread.faults.skip_barrier(self, thread):
                # Injected divergence: fall through the barrier and keep
                # running while the rest of the team waits.
                self._advance(thread)
                return
            thread.status = _AT_BARRIER
            thread.barrier_call = inst
            self._advance(thread)
            return

        result: Optional[Scalar] = None
        if name == "gpu.thread_id":
            result = thread.thread_id
        elif name == "gpu.block_id":
            result = thread.team_id
        elif name == "gpu.block_dim":
            result = launch.threads_per_team
        elif name == "gpu.grid_dim":
            result = launch.num_teams
        elif name == "gpu.warp_size":
            result = self.config.warp_size
        elif name == "gpu.lane_id":
            result = thread.thread_id % self.config.warp_size
        elif name == "gpu.dynamic_shared":
            base = self._dynamic_shared_base.get(thread.team_id)
            if base is None:
                raise SimulationError(
                    "gpu.dynamic_shared used but the launch reserved no "
                    "dynamic shared memory"
                )
            result = base
        elif name == "llvm.assume":
            if self.debug_checks and not argv[0]:
                raise assumption_error(frame.function.name, thread)
        elif name == "llvm.expect":
            result = argv[0]
        elif name == "llvm.trap":
            msg = stats.output[-1] if stats.output else "llvm.trap"
            raise trap_error(frame.function.name, thread, msg)
        elif name == "rt.print_i64":
            stats.output.append(str(_I64.to_signed(int(argv[0]))))
        elif name == "rt.print_f64":
            stats.output.append(repr(float(argv[0])))
        elif name == "rt.print_str":
            addr = int(argv[0])
            stats.output.append(self._string_table.get(addr, f"<str {addr:#x}>"))
        elif name == "malloc":
            if thread.faults is not None:
                thread.faults.on_device_malloc(self, thread, frame.function.name)
            stats.device_mallocs += 1
            result = self.memory.malloc(int(argv[0]))
        elif name == "free":
            stats.device_frees += 1
            self.memory.free(int(argv[0]))
        elif name == "llvm.memset":
            self.memory.memset(
                int(argv[0]), int(argv[1]), int(argv[2]), thread.team_id, thread.thread_id
            )
            thread.phase_cycles += int(argv[2]) // 8
        elif name == "llvm.memcpy":
            self.memory.memcpy(
                int(argv[0]), int(argv[1]), int(argv[2]), thread.team_id, thread.thread_id
            )
            thread.phase_cycles += int(argv[2]) // 4
        else:
            result = math_intrinsic(name, argv)
            if result is not None:
                stats.flops += 1

        if result is not None:
            frame.values[inst] = self._coerce(result, inst.type)
        self._advance(thread)

    # ----------------------------------------------------------------- scalar ops --

    def _binop(self, inst: BinOp, lhs: Scalar, rhs: Scalar, thread: ThreadContext) -> Scalar:
        op = inst.opcode
        ty = inst.type
        if isinstance(ty, FloatType):
            a, b = float(lhs), float(rhs)
            if op == "fadd":
                return a + b
            if op == "fsub":
                return a - b
            if op == "fmul":
                return a * b
            if op == "fdiv":
                if b == 0.0:
                    return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
                return a / b
            if op == "frem":
                import math

                return math.fmod(a, b) if b != 0.0 else float("nan")
        if isinstance(ty, IntType) or isinstance(ty, PointerType):
            ity = ty if isinstance(ty, IntType) else _I64
            a, b = int(lhs), int(rhs)
            sa, sb = ity.to_signed(a), ity.to_signed(b)
            if op == "add":
                return ity.wrap(a + b)
            if op == "sub":
                return ity.wrap(a - b)
            if op == "mul":
                return ity.wrap(a * b)
            if op == "and":
                return a & b
            if op == "or":
                return a | b
            if op == "xor":
                return a ^ b
            if op == "shl":
                return ity.wrap(a << (b % ity.bits))
            if op == "lshr":
                return a >> (b % ity.bits)
            if op == "ashr":
                return ity.wrap(sa >> (b % ity.bits))
            if op in ("sdiv", "srem"):
                if sb == 0:
                    raise division_by_zero_error()
                q = int(sa / sb)
                return ity.wrap(q if op == "sdiv" else sa - q * sb)
            if op in ("udiv", "urem"):
                if b == 0:
                    raise division_by_zero_error()
                return a // b if op == "udiv" else a % b
        raise SimulationError(f"unhandled binop {op} on {ty}")  # pragma: no cover

    def _icmp(self, inst: ICmp, frame: Frame) -> int:
        lhs = int(self._eval(inst.lhs, frame))
        rhs = int(self._eval(inst.rhs, frame))
        ty = inst.lhs.type
        if isinstance(ty, IntType):
            sa, sb = ty.to_signed(lhs), ty.to_signed(rhs)
        else:
            sa, sb = lhs, rhs
        pred = inst.predicate
        result = {
            "eq": lhs == rhs, "ne": lhs != rhs,
            "ult": lhs < rhs, "ule": lhs <= rhs,
            "ugt": lhs > rhs, "uge": lhs >= rhs,
            "slt": sa < sb, "sle": sa <= sb,
            "sgt": sa > sb, "sge": sa >= sb,
        }[pred]
        return 1 if result else 0

    def _fcmp(self, inst: FCmp, frame: Frame) -> int:
        import math

        a = float(self._eval(inst.operands[0], frame))
        b = float(self._eval(inst.operands[1], frame))
        if math.isnan(a) or math.isnan(b):
            return 0
        pred = inst.predicate
        result = {
            "oeq": a == b, "one": a != b,
            "olt": a < b, "ole": a <= b,
            "ogt": a > b, "oge": a >= b,
        }[pred]
        return 1 if result else 0

    def _cast(self, inst: Cast, frame: Frame) -> Scalar:
        src = self._eval(inst.source, frame)
        op = inst.opcode
        src_ty = inst.source.type
        dst_ty = inst.type
        if op == "zext":
            return int(src)
        if op == "sext":
            assert isinstance(src_ty, IntType) and isinstance(dst_ty, IntType)
            return dst_ty.wrap(src_ty.to_signed(int(src)))
        if op == "trunc":
            assert isinstance(dst_ty, IntType)
            return dst_ty.wrap(int(src))
        if op == "sitofp":
            assert isinstance(src_ty, IntType)
            return float(src_ty.to_signed(int(src)))
        if op == "uitofp":
            return float(int(src))
        if op == "fptosi":
            assert isinstance(dst_ty, IntType)
            return dst_ty.wrap(int(float(src)))
        if op in ("fpext", "fptrunc"):
            return float(src)
        if op in ("ptrtoint", "inttoptr", "bitcast"):
            return src
        raise SimulationError(f"unhandled cast {op}")  # pragma: no cover
