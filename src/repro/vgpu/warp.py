"""Warp-vectorized execution engine (engine v3).

The decoded engine (PR 2) removed per-instruction *discovery* cost but
still pays one Python dispatch per thread per micro-op.  This engine
executes each micro-op across **all active lanes of a warp at once** as
one NumPy vector operation, so the Python dispatch cost is paid once
per warp instead of once per thread — the lane-batched emulation
approach of "A Symbolic Emulator for Shuffle Synthesis on the NVIDIA
PTX Code" applied to this simulator's micro-op IR.

Execution model
---------------

* A :class:`WarpExec` owns up to ``warp_size`` threads of one team.
  Frame slots hold either a Python scalar (*uniform* — every lane has
  the value) or an ``(n_lanes,)`` ndarray (*varying*).  Integers and
  pointers are ``uint64`` (two's-complement wraparound matches the
  legacy ``ty.wrap`` discipline), floats are ``float64``.
* Control flow is an **active-lane-mask machine**: each *execution
  group* keeps a stack of records; the top record carries the current
  pc, the reconvergence pc (the branch's immediate post-dominator,
  computed by :func:`repro.vgpu.decode.compute_warp_flow`) and an
  integer bitmask of active lanes.  A uniform branch is a plain jump
  (the whole-warp fast path); a divergent branch replaces the top
  record with *continuation*, *false-side* and *true-side* records —
  divergence is mask bookkeeping, not per-thread control flow.
* Short diamond/triangle regions are *if-converted*: both arms run
  back-to-back under their predicate masks with no stack traffic
  (gated by ``REPRO_WARP_IF_CONVERT``, on by default).
* Barriers park the active lanes.  If other lanes of the group are
  still runnable, the parked lanes' record chain is split into a new
  (suspended) group; frames and register files stay shared — the lane
  masks are disjoint, so this is pure bookkeeping.

Bit-parity with the scalar engines
----------------------------------

Profiles are bit-identical to the legacy/decoded engines for race-free
programs: every counter charges ``n_active`` where the scalar engines
charge 1 per thread, per-lane step/cycle counts accumulate in arrays
flushed at every mask change, and printed output is buffered per lane
and flushed in lane order at each phase end (matching the scalar
engines' thread-order phase execution).  Teams with an armed fault
plan and sanitize mode fall back to the decoded scalar engine (see
``interpreter._run_team``), so fault firing and sanitizer diagnostics
are identical by construction.  Old-runtime modules take the same
fallback: the old runtime's shared-memory stack bumps one team-wide
top with a plain load/add/store, which is benign when each thread runs
alone between barriers but makes lockstep lanes alias the same
allocation — it is inherently not SIMT-executable, so the warp engine
never runs it.  Known, documented divergences are confined to
undefined behaviour (e.g. integer results of out-of-range ``fptosi``)
and to which thread a *divergent* crash is attributed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from repro import envconfig
from repro.ir.intrinsics import intrinsic_info
from repro.memory.addrspace import OFFSET_MASK
from repro.memory.memmodel import DEVICE_LOCK, MemoryError_
from repro.ir.types import FloatType, IntType, I64
from repro.trace.categories import OVERHEAD_CATEGORIES
from repro.vgpu import decode as _dec
from repro.vgpu.decode import _SPACE_BY_TAG, _I64_TO_SIGNED, bind_function, compute_warp_flow
from repro.vgpu.errors import (
    OUTPUT_TAIL_LINES,
    DeviceErrorContext,
    EngineUnsupported,
    SimulationError,
    assumption_error,
    call_stack_overflow_error,
    division_by_zero_error,
    step_limit_error,
    trap_error,
    undefined_value_error,
    unreachable_error,
)
from repro.vgpu.execstate import (
    MATH_BINARY,
    MATH_UNARY,
    ThreadStatus,
    atomic_apply,
    math_intrinsic,
)

_RUNNING = ThreadStatus.RUNNING
_AT_BARRIER = ThreadStatus.AT_BARRIER
_DONE = ThreadStatus.DONE

_U64 = np.uint64
_I64 = np.int64
_F64 = np.float64
_M64 = (1 << 64) - 1
ndarray = np.ndarray

_EXEC, _CALL = 0, 1


def _signed(v, bits):
    """Signed (int64) view of a wrapped uint64 vector at width *bits*."""
    s = v.view(_I64) if v.dtype == _U64 else v.astype(_I64)
    if bits == 64:
        return s
    return s - ((s >> (bits - 1) & 1) << bits)


def _wrap_i64(s, bits):
    """Wrap an int64 vector back to the uint64 register representation."""
    if bits == 64:
        return s.view(_U64)
    return (s & ((1 << bits) - 1)).astype(_U64)


def _uu(v):
    """Operand as a uint64 array or uint64 scalar (broadcasts)."""
    return v if type(v) is ndarray else _U64(v & _M64)


def _ff(v):
    """Operand as a float64 array or Python float (broadcasts weakly)."""
    return v if type(v) is ndarray else float(v)


class _WFrame:
    """One activation record, shared by every lane that entered it."""

    __slots__ = ("wf", "vops", "regs", "ret_dest", "caller", "n_full", "name")

    def __init__(self, wf, regs, ret_dest, caller, n_full):
        self.wf = wf
        self.vops = wf.vops
        self.regs = regs
        self.ret_dest = ret_dest
        self.caller = caller
        #: Lane count that owns this frame: a register write whose
        #: active count equals this needs no mask merge.
        self.n_full = n_full
        self.name = wf.name


class _Rec:
    """One record of a group's divergence/call stack."""

    __slots__ = ("kind", "pc", "rpc", "mask", "frame")

    def __init__(self, kind, pc, rpc, mask, frame):
        self.kind = kind
        self.pc = pc
        self.rpc = rpc
        self.mask = mask
        self.frame = frame


class _Group:
    """An independently schedulable record chain (lanes never re-merge
    across groups — splitting is a performance event, not semantic)."""

    __slots__ = ("stack", "depth")

    def __init__(self, stack, depth):
        self.stack = stack
        self.depth = depth


class WarpExec:
    """Vector executor for one warp of one team."""

    def __init__(self, vm, wf, args, threads, stats):
        n = len(threads)
        self.vm = vm
        self.lanes = threads
        self.n = n
        self.team_id = threads[0].team_id
        self.stats = stats
        self.counts = stats.opcode_counts
        self.max_steps = vm.config.max_steps_per_thread
        self.all_bits = (1 << n) - 1
        self.steps_arr = np.zeros(n, _I64)
        self.cyc = np.zeros(n, _I64)
        self.out: List[list] = [[] for _ in range(n)]
        self.tid_arr = np.array([t.thread_id for t in threads], _U64)
        self.lane_arr = self.tid_arr % _U64(vm.config.warp_size)
        self._marrs: Dict[int, np.ndarray] = {}
        self._idxs: Dict[int, np.ndarray] = {}
        self._views: Dict[tuple, np.ndarray] = {}
        self.fn_cycles = stats.function_cycles if vm._trace is not None else None
        self.pending_steps = 0
        self.pending_cycles = 0
        self.steps_base = 0
        self.error_lane: Optional[int] = None
        self.done_bits = 0
        self._phase_committed = False
        self.shared_seg = None
        # Execution mirror of the currently loaded record.
        self.group = None
        self.stack = None
        self.rec = None
        self.frame = None
        self.vops = None
        self.regs = None
        self.pc = -1
        self.rpc = None
        self.mask = 0
        self.n_active = 0
        self.full = True
        # Kernel frame: launch arguments are uniform scalars.
        regs = wf.init_regs.copy()
        for slot, co, actual in zip(wf.arg_slots, wf.arg_coerce, args):
            regs[slot] = co(actual)
        frame = _WFrame(wf, regs, -1, None, n)
        self.groups = [_Group(
            [_Rec(_CALL, 0, None, self.all_bits, frame),
             _Rec(_EXEC, wf.entry_pc, None, self.all_bits, frame)],
            depth=1,
        )]

    # -- lane-mask machinery ------------------------------------------------

    def _marr(self, bits):
        m = self._marrs.get(bits)
        if m is None:
            raw = bits.to_bytes((self.n + 7) // 8, "little")
            m = np.unpackbits(
                np.frombuffer(raw, np.uint8), bitorder="little"
            )[: self.n].astype(bool)
            if len(self._marrs) > 4096:
                self._marrs.clear()
                self._idxs.clear()
            self._marrs[bits] = m
        return m

    def _active_idx(self, bits):
        ix = self._idxs.get(bits)
        if ix is None:
            ix = np.flatnonzero(self._marr(bits))
            self._idxs[bits] = ix
        return ix

    @staticmethod
    def _iter_bits(bits):
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits &= bits - 1

    def _lowest_lane(self):
        ln = self.error_lane
        if ln is None:
            m = self.mask or self.all_bits
            ln = (m & -m).bit_length() - 1
        return ln

    def _set_mask(self, bits):
        self.mask = bits
        na = bits.bit_count()
        self.n_active = na
        self.full = na == self.frame.n_full
        # Conservative epoch bound: the whole-warp max may overshoot
        # for the active subset, which only makes ``_step_limit`` fire
        # early — it then recomputes the exact per-lane bound.
        self.steps_base = int(self.steps_arr.max())

    def _flush(self):
        ps, pcy = self.pending_steps, self.pending_cycles
        if not ps and not pcy:
            return
        if self.mask == self.all_bits:
            if ps:
                self.steps_arr += ps
            if pcy:
                self.cyc += pcy
        else:
            m = self._marr(self.mask)
            if ps:
                self.steps_arr[m] += ps
            if pcy:
                self.cyc[m] += pcy
        if self.fn_cycles is not None and pcy:
            self.fn_cycles[self.frame.name] += pcy * self.n_active
        self.steps_base += ps
        self.pending_steps = 0
        self.pending_cycles = 0

    def _step_limit(self):
        """Triggered by the conservative epoch bound; exact per lane."""
        self._flush()
        sa = self.steps_arr
        ms = self.max_steps
        act = self._active_idx(self.mask)
        over = act[sa[act] >= ms]
        if over.size:
            lane = int(over[0])
            self.error_lane = lane
            raise step_limit_error(self.lanes[lane], ms, self.frame.name)
        self.steps_base = int(sa[act].max())

    # -- register writes ----------------------------------------------------

    def _demote(self, cur, dtype):
        """Full-width array for a slot about to take a masked write.

        ``None`` (an SSA slot no lane has defined yet — the normal case
        for a divergent side's or if-converted arm's own defs) demotes
        to zeros: the inactive lanes' entries are placeholders no
        well-defined program ever reads.  A *fully* undefined slot that
        is read stays ``None`` and surfaces as the same
        undefined-value error as the scalar engines."""
        if type(cur) is ndarray:
            return cur if cur.dtype == dtype else cur.astype(dtype)
        if cur is None:
            return np.zeros(self.n, dtype)
        if dtype == _F64:
            return np.full(self.n, float(cur), _F64)
        return np.full(self.n, int(cur) & _M64, _U64)

    def _wr(self, slot, value):
        """Write a full-width vector under the current mask."""
        if self.full:
            self.regs[slot] = value
            return
        m = self._marr(self.mask)
        base = self._demote(self.regs[slot], value.dtype)
        base[m] = value[m]
        self.regs[slot] = base

    def _wr_compact(self, slot, values):
        """Write values gathered for the active lanes only (in order).

        Register arrays are always full warp width; a compact result is
        scattered back to the active lane positions (``full`` only
        means there is no previous value worth merging)."""
        if self.mask == self.all_bits:
            self.regs[slot] = values
            return
        if self.full:
            base = np.zeros(self.n, values.dtype)
        else:
            base = self._demote(self.regs[slot], values.dtype)
        base[self._active_idx(self.mask)] = values
        self.regs[slot] = base

    def _wr_u(self, slot, value):
        """Write a uniform scalar under the current mask."""
        if self.full:
            self.regs[slot] = value
            return
        m = self._marr(self.mask)
        dtype = _F64 if isinstance(value, float) else _U64
        base = self._demote(self.regs[slot], dtype)
        base[m] = value if dtype == _F64 else int(value) & _M64
        self.regs[slot] = base

    def _wr_any(self, slot, value):
        if type(value) is ndarray:
            self._wr(slot, value)
        else:
            self._wr_u(slot, value)

    def _wr_into(self, frame, slot, value, bits):
        """Masked write into another frame (return-value plumbing)."""
        if bits.bit_count() == frame.n_full:
            frame.regs[slot] = value
            return
        m = self._marr(bits)
        if type(value) is ndarray:
            base = self._demote_frame(frame, slot, value.dtype)
            base[m] = value[m]
        else:
            dtype = _F64 if isinstance(value, float) else _U64
            base = self._demote_frame(frame, slot, dtype)
            base[m] = value if dtype == _F64 else int(value) & _M64
        frame.regs[slot] = base

    def _demote_frame(self, frame, slot, dtype):
        cur = frame.regs[slot]
        if type(cur) is ndarray:
            return cur if cur.dtype == dtype else cur.astype(dtype)
        if cur is None:
            return np.zeros(self.n, dtype)
        if dtype == _F64:
            return np.full(self.n, float(cur), _F64)
        return np.full(self.n, int(cur) & _M64, _U64)

    def _bits(self, barr):
        """Bool vector -> lane bitmask (little-endian lane order)."""
        return int.from_bytes(
            np.packbits(barr, bitorder="little").tobytes(), "little"
        )

    def _moves(self, moves):
        """Phi parallel-copy under the current mask (reads staged)."""
        regs = self.regs
        staged = [regs[s] for _, s in moves]
        for (dst, _), v in zip(moves, staged):
            self._wr_any(dst, v)

    # -- record chain -------------------------------------------------------

    def _load_rec(self, rec):
        f = rec.frame
        self.rec = rec
        self.frame = f
        self.vops = f.vops
        self.regs = f.regs
        self.pc = rec.pc
        self.rpc = rec.rpc
        self._set_mask(rec.mask)
        if self.fn_cycles is not None:
            self.fn_cycles[f.name] += 0

    def _pop_until_runnable(self):
        stack = self.stack
        group = self.group
        while stack:
            top = stack[-1]
            if top.kind == _CALL:
                stack.pop()
                group.depth -= 1
                continue
            if not top.mask or top.pc == top.rpc:
                # Zero-mask records are exhausted; a record arriving at
                # its own reconvergence pc merges into the continuation
                # record below it (which contains its lanes).
                stack.pop()
                continue
            self._load_rec(top)
            return True
        self.pc = -1
        return False

    def _reconverge(self):
        self._flush()
        self.stack.pop()
        self._pop_until_runnable()

    def _segment(self, tag):
        vm = self.vm
        if tag == 1 or tag == 0:
            return vm.memory.global_seg
        if tag == 3:
            s = self.shared_seg
            if s is None:
                s = self.shared_seg = vm.memory.shared_segment(self.team_id)
            return s
        if tag == 4:
            return vm.memory.constant_seg
        return None

    def _view(self, seg, dtype, shift):
        key = (id(seg), dtype)
        v = self._views.get(key)
        if v is None:
            # Segments are fixed-size buffers (never resized), so a
            # cached view stays valid for the segment's lifetime.
            v = np.frombuffer(seg.data, dtype, count=len(seg.data) >> shift)
            self._views[key] = v
        return v

    def _local_seg(self, lane):
        t = self.lanes[lane]
        seg = t.local_seg
        if seg is None:
            seg = t.local_seg = self.vm.memory.local_segment(
                t.team_id, t.thread_id
            )
        return seg

    def _block_name(self):
        f = self.frame
        if f is None:
            return None
        pcs, names = f.wf.code.block_starts
        if not pcs:
            return None
        i = bisect_right(pcs, self.pc) - 1
        return names[i] if i >= 0 else None

    # -- group scheduling ---------------------------------------------------

    def _run_group(self, g):
        self.group = g
        self.stack = g.stack
        if not self._pop_until_runnable():
            return
        vm = self.vm
        while self.pc >= 0:
            op = self.vops[self.pc]
            if self.steps_base + self.pending_steps >= self.max_steps:
                self._step_limit()
            self.counts[op[1]] += self.n_active
            self.pending_steps += 1
            op[0](vm, self, op)

    def run_phase(self):
        """Run every group until all lanes are parked or done; commit
        per-lane counters and buffered output into the ThreadContexts
        (mirrors one pass of the scalar engines' phase loop)."""
        self._phase_committed = False
        self.error_lane = None
        self.done_bits = 0
        try:
            with np.errstate(all="ignore"):
                for g in list(self.groups):
                    self._run_group(g)
                    if not g.stack:
                        self.groups.remove(g)
        except TypeError as exc:
            self._commit_phase()
            err = undefined_value_error(
                self.frame.name if self.frame else "<unknown>", str(exc)
            )
            raise self._attach(err) from exc
        except (SimulationError, MemoryError_) as exc:
            self._commit_phase()
            raise self._attach(exc)
        finally:
            self._commit_phase()

    def _attach(self, exc):
        """Attach a :class:`DeviceErrorContext` equivalent to the one
        the scalar engines build from ``thread.frames`` — here the call
        stack is reconstructed from the faulting ``_WFrame`` chain and
        the fault is attributed to the lowest faulting lane (``errors.
        attach_context`` cannot be used directly: warp threads keep no
        per-thread frame list)."""
        if getattr(exc, "context", None) is not None:
            return exc
        lane = self._lowest_lane()
        t = self.lanes[lane]
        names = []
        f = self.frame
        while f is not None:
            names.append(f.name)
            f = f.caller
        names.reverse()
        output = self.stats.output
        exc.context = DeviceErrorContext(
            team=t.team_id,
            thread=t.thread_id,
            function=names[-1] if names else None,
            block=self._block_name(),
            call_stack=tuple(names),
            steps=t.steps,
            output_tail=tuple(output[-OUTPUT_TAIL_LINES:]) if output else (),
        )
        return exc

    def _commit_phase(self):
        if self._phase_committed:
            return
        self._phase_committed = True
        if self.pending_steps or self.pending_cycles:
            self._flush()
        cyc = self.cyc
        steps = self.steps_arr
        out = self.stats.output
        for i, t in enumerate(self.lanes):
            c = int(cyc[i])
            if c:
                t.phase_cycles += c
            t.steps = int(steps[i])
            buf = self.out[i]
            if buf:
                out.extend(buf)
                buf.clear()
        cyc[:] = 0
        for i in self._iter_bits(self.done_bits):
            t = self.lanes[i]
            t.total_cycles += t.phase_cycles

    # -- divergence / call / barrier events ---------------------------------

    def _split(self, op, t_bits):
        """Divergent condbr: replace the top record with continuation,
        false-side and true-side records; both sides' phi moves apply
        now, masked (their targets are block-entry phis on disjoint
        paths, so neither side can observe the other's moves)."""
        self._flush()
        f_bits = self.mask & ~t_bits
        frame = self.frame
        stack = self.stack
        cur = self.rec
        t_mv, f_mv = op[5], op[7]
        if t_mv or f_mv:
            regs = self.regs
            t_staged = [regs[s] for _, s in t_mv]
            f_staged = [regs[s] for _, s in f_mv]
            tm = self._marr(t_bits)
            fm = self._marr(f_bits)
            for (dst, _), v in zip(t_mv, t_staged):
                self._wr_masked(dst, v, tm)
            for (dst, _), v in zip(f_mv, f_staged):
                self._wr_masked(dst, v, fm)
        R = op[9]
        if R is None:
            # The sides only rejoin at function exit; they inherit the
            # enclosing reconvergence point.
            f_rec = _Rec(_EXEC, op[6], self.rpc, f_bits, frame)
            stack.insert(len(stack) - 1, f_rec)
            cur.pc = op[4]
            cur.mask = t_bits
        else:
            cont = _Rec(_EXEC, R, self.rpc, self.mask, frame)
            f_rec = _Rec(_EXEC, op[6], R, f_bits, frame)
            cur.pc = op[4]
            cur.rpc = R
            cur.mask = t_bits
            stack[-1:] = [cont, f_rec, cur]
        if cur.pc == cur.rpc:
            stack.pop()
            self._pop_until_runnable()
        else:
            self._load_rec(cur)

    def _wr_masked(self, slot, v, marr):
        if type(v) is ndarray:
            base = self._demote(self.regs[slot], v.dtype)
            base[marr] = v[marr]
        else:
            dtype = _F64 if isinstance(v, float) else _U64
            base = self._demote(self.regs[slot], dtype)
            base[marr] = v if dtype == _F64 else int(v) & _M64
        self.regs[slot] = base

    def _push(self, next_pc, dest, callee, arg_slots, cost):
        self.pending_cycles += cost
        self._flush()
        wf = bind_warp(self.vm, callee)
        regs = wf.init_regs.copy()
        cur_regs = self.regs
        for slot, co, a in zip(wf.arg_slots, wf.arg_vcoerce, arg_slots):
            regs[slot] = co(cur_regs[a])
        frame = _WFrame(wf, regs, dest, self.frame, self.n_active)
        cur = self.rec
        cur.pc = next_pc  # the caller continuation record
        call_rec = _Rec(_CALL, 0, None, self.mask, frame)
        entry = _Rec(_EXEC, wf.entry_pc, None, self.mask, frame)
        self.stack.append(call_rec)
        self.stack.append(entry)
        self.group.depth += 1
        self._load_rec(entry)
        if self.group.depth > 512:
            self.error_lane = self._lowest_lane()
            raise call_stack_overflow_error(
                wf.name, self.lanes[self.error_lane]
            )

    def _park(self, resume_pc):
        """Park the active lanes at a barrier (statuses already set)."""
        cur = self.rec
        cur.pc = resume_pc
        pm = self.mask
        stack = self.stack
        if all(r.kind == _CALL or (r.mask & ~pm) == 0 for r in stack):
            # Whole group parked: suspend in place, stack intact.
            self.pc = -1
            return
        ns = []
        depth = 0
        for r in stack:
            if r.kind == _CALL:
                if r.mask & pm:
                    ns.append(_Rec(_CALL, 0, None, r.mask & pm, r.frame))
                    depth += 1
            elif r.mask & pm:
                ns.append(_Rec(_EXEC, r.pc, r.rpc, r.mask & pm, r.frame))
            r.mask &= ~pm
        self.groups.append(_Group(ns, depth))
        self._pop_until_runnable()


# ===================================================================
# Vector micro-op handlers
#
# Signature ``h(vm, w, op) -> None``: handlers read operands from
# ``w.regs``, write results through the masked-write helpers, advance
# ``w.pc`` and add their cycle cost to ``w.pending_cycles``.  Every
# handler keeps a pure-Python *uniform* path (both operands scalar)
# that mirrors the decoded handler expression exactly, and a vector
# path whose results are bit-identical on the active lanes.
# ===================================================================


def _w_add(vm, w, op):
    # (h, op, next, d, a, b, wrap_ty, vmask, c)
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        r = _uu(a) + _uu(b)
        if op[7] is not None:
            r = r & op[7]
        w._wr(op[3], r)
    else:
        w._wr_u(op[3], op[6].wrap(a + b))
    w.pc = op[2]
    w.pending_cycles += op[8]


def _w_sub(vm, w, op):
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        r = _uu(a) - _uu(b)
        if op[7] is not None:
            r = r & op[7]
        w._wr(op[3], r)
    else:
        w._wr_u(op[3], op[6].wrap(a - b))
    w.pc = op[2]
    w.pending_cycles += op[8]


def _w_mul(vm, w, op):
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        r = _uu(a) * _uu(b)
        if op[7] is not None:
            r = r & op[7]
        w._wr(op[3], r)
    else:
        w._wr_u(op[3], op[6].wrap(a * b))
    w.pc = op[2]
    w.pending_cycles += op[8]


def _w_and(vm, w, op):
    # (h, op, next, d, a, b, c)
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        w._wr(op[3], _uu(a) & _uu(b))
    else:
        w._wr_u(op[3], a & b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_or(vm, w, op):
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        w._wr(op[3], _uu(a) | _uu(b))
    else:
        w._wr_u(op[3], a | b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_xor(vm, w, op):
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        w._wr(op[3], _uu(a) ^ _uu(b))
    else:
        w._wr_u(op[3], a ^ b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_shl(vm, w, op):
    # (h, op, next, d, a, b, bits, wrap_ty, vmask, c)
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    bits = op[6]
    if type(a) is ndarray or type(b) is ndarray:
        sh = _uu(b) % _U64(bits)
        r = _uu(a) << sh
        if op[8] is not None:
            r = r & op[8]
        w._wr(op[3], r)
    else:
        w._wr_u(op[3], op[7].wrap(a << (b % bits)))
    w.pc = op[2]
    w.pending_cycles += op[9]


def _w_lshr(vm, w, op):
    # (h, op, next, d, a, b, bits, c)
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    bits = op[6]
    if type(a) is ndarray or type(b) is ndarray:
        w._wr(op[3], _uu(a) >> (_uu(b) % _U64(bits)))
    else:
        w._wr_u(op[3], a >> (b % bits))
    w.pc = op[2]
    w.pending_cycles += op[7]


def _w_ashr(vm, w, op):
    # (h, op, next, d, a, b, bits, signed_ty, wrap_ty, c)
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    bits = op[6]
    if type(a) is ndarray or type(b) is ndarray:
        av = _uu(a) + np.zeros(w.n, _U64) if type(a) is not ndarray else a
        sh = (_uu(b) % _U64(bits)).astype(_I64) if type(b) is ndarray \
            else _I64(b % bits)
        r = _signed(av, bits) >> sh
        w._wr(op[3], _wrap_i64(r, bits))
    else:
        w._wr_u(op[3], op[8].wrap(op[7].to_signed(a) >> (b % bits)))
    w.pc = op[2]
    w.pending_cycles += op[9]


def _div_zero_check(w, b):
    """Raise exactly like the scalar engines when an *active* lane
    divides by zero (the error is pinned to the lowest such lane)."""
    zero = b == 0
    if zero.any():
        zbits = w._bits(zero) & w.mask
        if zbits:
            w.error_lane = (zbits & -zbits).bit_length() - 1
            raise division_by_zero_error()


def _w_sdiv(vm, w, op):
    # (h, op, next, d, a, b, bits, signed_ty, wrap_ty, c)
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        bits = op[6]
        av = a if type(a) is ndarray else np.full(w.n, a & _M64, _U64)
        bv = b if type(b) is ndarray else np.full(w.n, b & _M64, _U64)
        sa, sb = _signed(av, bits), _signed(bv, bits)
        _div_zero_check(w, sb)
        # int(sa / sb): the scalar engines truncate the *float*
        # quotient, so the vector path does exactly the same.
        q = np.trunc(sa.astype(_F64) / sb.astype(_F64)).astype(_I64)
        w._wr(op[3], _wrap_i64(q, bits))
    else:
        s = op[7].to_signed
        sa, sb = s(a), s(b)
        if sb == 0:
            raise division_by_zero_error()
        w._wr_u(op[3], op[8].wrap(int(sa / sb)))
    w.pc = op[2]
    w.pending_cycles += op[9]


def _w_srem(vm, w, op):
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        bits = op[6]
        av = a if type(a) is ndarray else np.full(w.n, a & _M64, _U64)
        bv = b if type(b) is ndarray else np.full(w.n, b & _M64, _U64)
        sa, sb = _signed(av, bits), _signed(bv, bits)
        _div_zero_check(w, sb)
        q = np.trunc(sa.astype(_F64) / sb.astype(_F64)).astype(_I64)
        w._wr(op[3], _wrap_i64(sa - q * sb, bits))
    else:
        s = op[7].to_signed
        sa, sb = s(a), s(b)
        if sb == 0:
            raise division_by_zero_error()
        w._wr_u(op[3], op[8].wrap(sa - int(sa / sb) * sb))
    w.pc = op[2]
    w.pending_cycles += op[9]


def _w_udiv(vm, w, op):
    # (h, op, next, d, a, b, c)
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        av = a if type(a) is ndarray else np.full(w.n, a & _M64, _U64)
        bv = b if type(b) is ndarray else np.full(w.n, b & _M64, _U64)
        _div_zero_check(w, bv)
        safe = np.where(bv == 0, _U64(1), bv)
        w._wr(op[3], av // safe)
    else:
        if b == 0:
            raise division_by_zero_error()
        w._wr_u(op[3], a // b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_urem(vm, w, op):
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        av = a if type(a) is ndarray else np.full(w.n, a & _M64, _U64)
        bv = b if type(b) is ndarray else np.full(w.n, b & _M64, _U64)
        _div_zero_check(w, bv)
        safe = np.where(bv == 0, _U64(1), bv)
        w._wr(op[3], av % safe)
    else:
        if b == 0:
            raise division_by_zero_error()
        w._wr_u(op[3], a % b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_fadd(vm, w, op):
    # (h, op, next, d, a, b, c)
    w.stats.flops += w.n_active
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        w._wr(op[3], _ff(a) + _ff(b))
    else:
        w._wr_u(op[3], a + b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_fsub(vm, w, op):
    w.stats.flops += w.n_active
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        w._wr(op[3], _ff(a) - _ff(b))
    else:
        w._wr_u(op[3], a - b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_fmul(vm, w, op):
    w.stats.flops += w.n_active
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        w._wr(op[3], _ff(a) * _ff(b))
    else:
        w._wr_u(op[3], a * b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_fdiv(vm, w, op):
    w.stats.flops += w.n_active
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        av = _ff(a) + np.zeros(w.n, _F64) if type(a) is not ndarray else a
        bv = _ff(b) + np.zeros(w.n, _F64) if type(b) is not ndarray else b
        r = av / bv
        zero = bv == 0.0
        if zero.any():
            # Legacy semantics: b == 0 yields inf by the *sign of a*
            # (so 1.0 / -0.0 is +inf, unlike IEEE), nan when a is 0/nan.
            fix = np.where(
                av > 0, np.inf, np.where(av < 0, -np.inf, np.nan)
            )
            r = np.where(zero, fix, r)
        w._wr(op[3], r)
    else:
        if b == 0.0:
            w._wr_u(
                op[3],
                float("inf") if a > 0 else float("-inf") if a < 0
                else float("nan"),
            )
        else:
            w._wr_u(op[3], a / b)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_frem(vm, w, op):
    import math

    w.stats.flops += w.n_active
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        # np.fmod matches math.fmod, including nan for b == 0.
        w._wr(op[3], np.fmod(_ff(a), _ff(b)))
    else:
        w._wr_u(op[3], math.fmod(a, b) if b != 0.0 else float("nan"))
    w.pc = op[2]
    w.pending_cycles += op[6]


# -- comparisons --


def _cmp_common(vm, w, op, vecop, pyop):
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        w._wr(op[3], vecop(a, b).astype(_U64))
    else:
        w._wr_u(op[3], 1 if pyop(a, b) else 0)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_icmp_eq(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _uu(a) == _uu(b), lambda a, b: a == b)


def _w_icmp_ne(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _uu(a) != _uu(b), lambda a, b: a != b)


def _w_icmp_lt(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _uu(a) < _uu(b), lambda a, b: a < b)


def _w_icmp_le(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _uu(a) <= _uu(b), lambda a, b: a <= b)


def _w_icmp_gt(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _uu(a) > _uu(b), lambda a, b: a > b)


def _w_icmp_ge(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _uu(a) >= _uu(b), lambda a, b: a >= b)


def _signed_operand(w, v, bits):
    if type(v) is ndarray:
        return _signed(v, bits)
    return _I64(v if v < (1 << (bits - 1)) else v - (1 << bits))


def _w_icmp_signed(vm, w, op):
    # (h, "icmp", next, d, a, b, bits, signed_ty, pred, c)
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        bits = op[6]
        sa = _signed_operand(w, a, bits)
        sb = _signed_operand(w, b, bits)
        pred = op[8]
        if pred == "slt":
            r = sa < sb
        elif pred == "sle":
            r = sa <= sb
        elif pred == "sgt":
            r = sa > sb
        else:
            r = sa >= sb
        w._wr(op[3], r.astype(_U64))
    else:
        s = op[7].to_signed
        sa, sb = s(a), s(b)
        pred = op[8]
        if pred == "slt":
            ok = sa < sb
        elif pred == "sle":
            ok = sa <= sb
        elif pred == "sgt":
            ok = sa > sb
        else:
            ok = sa >= sb
        w._wr_u(op[3], 1 if ok else 0)
    w.pc = op[2]
    w.pending_cycles += op[9]


def _w_fcmp_oeq(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _ff(a) == _ff(b), lambda a, b: a == b)


def _w_fcmp_one(vm, w, op):
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    if type(a) is ndarray or type(b) is ndarray:
        av, bv = _ff(a), _ff(b)
        r = (av == av) & (bv == bv) & (av != bv)
        w._wr(op[3], r.astype(_U64))
    else:
        w._wr_u(op[3], 1 if (a == a and b == b and a != b) else 0)
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_fcmp_olt(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _ff(a) < _ff(b), lambda a, b: a < b)


def _w_fcmp_ole(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _ff(a) <= _ff(b), lambda a, b: a <= b)


def _w_fcmp_ogt(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _ff(a) > _ff(b), lambda a, b: a > b)


def _w_fcmp_oge(vm, w, op):
    _cmp_common(vm, w, op, lambda a, b: _ff(a) >= _ff(b), lambda a, b: a >= b)


# -- select / ptradd / casts --


def _w_select(vm, w, op):
    # (h, "select", next, d, cond, t, f, is_float, c)
    regs = w.regs
    c, t, f = regs[op[4]], regs[op[5]], regs[op[6]]
    if type(c) is ndarray:
        want = _F64 if op[7] else _U64
        tv = t if type(t) is ndarray else (float(t) if op[7] else int(t) & _M64)
        fv = f if type(f) is ndarray else (float(f) if op[7] else int(f) & _M64)
        r = np.where(c != 0, tv, fv)
        if r.dtype != want:
            r = r.astype(want)
        w._wr(op[3], r)
    else:
        w._wr_any(op[3], t if c else f)
    w.pc = op[2]
    w.pending_cycles += op[8]


def _w_ptradd(vm, w, op):
    # (h, "ptradd", next, d, p, o, off_bits, signed_ty, c)
    regs = w.regs
    p, o = regs[op[4]], regs[op[5]]
    pv, ov = type(p) is ndarray, type(o) is ndarray
    if pv or ov:
        bits = op[6]
        if ov:
            off = _signed(o, bits).view(_U64)
        else:
            off = _U64(op[7].to_signed(o) & _M64)
        w._wr(op[3], _uu(p) + off)
    else:
        w._wr_u(op[3], p + op[7].to_signed(o))
    w.pc = op[2]
    w.pending_cycles += op[8]


def _w_zext(vm, w, op):
    # (h, op, next, d, s, c): stored values are already wrapped unsigned
    v = w.regs[op[4]]
    if type(v) is ndarray:
        w._wr(op[3], v)
    else:
        w._wr_u(op[3], int(v))
    w.pc = op[2]
    w.pending_cycles += op[5]


def _w_copy(vm, w, op):
    # ptrtoint/inttoptr/bitcast/fpext/fptrunc: (h, op, next, d, s, c)
    v = w.regs[op[4]]
    w._wr_any(op[3], v)
    w.pc = op[2]
    w.pending_cycles += op[5]


def _w_tofloat(vm, w, op):
    # fpext/fptrunc: scalar path applies float() like the decoded engine
    v = w.regs[op[4]]
    if type(v) is ndarray:
        w._wr(op[3], v if v.dtype == _F64 else v.astype(_F64))
    else:
        w._wr_u(op[3], float(v))
    w.pc = op[2]
    w.pending_cycles += op[5]


def _w_sext(vm, w, op):
    # (h, op, next, d, s, src_bits, signed_ty, wrap_ty, vmask, c)
    v = w.regs[op[4]]
    if type(v) is ndarray:
        r = _signed(v, op[5]).view(_U64)
        if op[8] is not None:
            r = r & op[8]
        w._wr(op[3], r)
    else:
        w._wr_u(op[3], op[7].wrap(op[6].to_signed(int(v))))
    w.pc = op[2]
    w.pending_cycles += op[9]


def _w_trunc(vm, w, op):
    # (h, op, next, d, s, wrap_ty, vmask, c)
    v = w.regs[op[4]]
    if type(v) is ndarray:
        r = v & op[6] if op[6] is not None else v
        w._wr(op[3], r)
    else:
        w._wr_u(op[3], op[5].wrap(int(v)))
    w.pc = op[2]
    w.pending_cycles += op[7]


def _w_sitofp(vm, w, op):
    # (h, op, next, d, s, src_bits, signed_ty, c)
    v = w.regs[op[4]]
    if type(v) is ndarray:
        w._wr(op[3], _signed(v, op[5]).astype(_F64))
    else:
        w._wr_u(op[3], float(op[6].to_signed(int(v))))
    w.pc = op[2]
    w.pending_cycles += op[7]


def _w_uitofp(vm, w, op):
    # (h, op, next, d, s, c)
    v = w.regs[op[4]]
    if type(v) is ndarray:
        w._wr(op[3], v.astype(_F64))
    else:
        w._wr_u(op[3], float(int(v)))
    w.pc = op[2]
    w.pending_cycles += op[5]


def _w_fptosi(vm, w, op):
    # (h, op, next, d, s, wrap_ty, vmask, c)
    v = w.regs[op[4]]
    if type(v) is ndarray:
        r = np.trunc(v).astype(_I64).view(_U64)
        if op[6] is not None:
            r = r & op[6]
        w._wr(op[3], r)
    else:
        w._wr_u(op[3], op[5].wrap(int(float(v))))
    w.pc = op[2]
    w.pending_cycles += op[7]


# -- alloca --


def _w_alloca(vm, w, op):
    # (h, "alloca", next, d, size, align, c)
    size, align = op[4], op[5]
    first = None
    uniform = True
    vals = []
    for ln in w._iter_bits(w.mask):
        ptr = w._local_seg(ln).allocate(size, align)
        vals.append(ptr)
        if first is None:
            first = ptr
        elif ptr != first:
            uniform = False
    if uniform:
        w._wr_u(op[3], first)
    else:
        w._wr_compact(op[3], np.array(vals, _U64))
    w.pc = op[2]
    w.pending_cycles += op[6]


# -- memory --
#
# load: (h, "load", next, d, p, size, ty, costs, dtype, shift, unpack)
# store: (h, "store", next, p, v, size, ty, costs, dtype, shift, kind,
#         extra) with kind 0=int, 1=float, 2=pointer; extra is the
#         IntType to wrap to (int) or Struct.pack_into (float).
#
# Vector accesses gather/scatter on a cached ndarray view of the
# segment's fixed-size buffer.  Partial masks always compress to
# the active lanes first: inactive lanes hold garbage pointers that
# must never be dereferenced or bounds-checked.


def _load_cost(vm, w, costs, tag, n):
    c = costs[tag]
    if c is None:  # space missing from the cost table: legacy KeyError
        c = vm.cost.load_cost(_SPACE_BY_TAG[tag])
    return c


def _w_load(vm, w, op):
    regs = w.regs
    p = regs[op[4]]
    if type(p) is not ndarray:
        tag = p >> 48
        if tag == 5:
            # LOCAL pointers are thread-relative even when uniform.
            _load_lanes(vm, w, op, p)
            return
        size = op[5]
        off = p & OFFSET_MASK
        seg = w._segment(tag)
        if seg is None or off == 0 or off + size > len(seg.data):
            lane = w._lowest_lane()
            t = w.lanes[lane]
            w.error_lane = lane
            value = vm.memory.load(p, op[6], t.team_id, t.thread_id)
            w.error_lane = None
        elif op[10] is not None:
            value = op[10](seg.data, off)[0]
        else:
            value = int.from_bytes(seg.data[off : off + size], "little")
        w.stats.loads_by_space[_SPACE_BY_TAG[tag]] += w.n_active
        w._wr_u(op[3], value)
        w.pc = op[2]
        w.pending_cycles += _load_cost(vm, w, op[7], tag, w.n_active)
        return
    pa = p if w.mask == w.all_bits else p[w._marr(w.mask)]
    # The tag is the most-significant pointer field, so lanes share one
    # address space iff the min and max pointer do — and with one tag,
    # the min/max offsets bound every lane's offset (null and
    # out-of-bounds checks collapse to two scalar comparisons).
    pmin = int(pa.min())
    pmax = int(pa.max())
    t0 = pmin >> 48
    if t0 == 5 or t0 != pmax >> 48:
        _load_lanes(vm, w, op, p)
        return
    size = op[5]
    seg = w._segment(t0)
    if (
        seg is None
        or pmin & OFFSET_MASK == 0
        or (pmax & OFFSET_MASK) + size > len(seg.data)
    ):
        _load_lanes(vm, w, op, p)
        return
    offs = pa & _U64(OFFSET_MASK)
    if op[8] is None or (size > 1 and bool((offs & _U64(size - 1)).any())):
        vals = _gather_bytes(w, seg, offs, op)
    else:
        # Advanced indexing already yields a fresh array; only a dtype
        # widening still needs an explicit conversion.
        view = w._view(seg, op[8], op[9])
        vals = view[offs >> _U64(op[9])]
        if op[10] is None:
            if vals.dtype != _U64:
                vals = vals.astype(_U64)
        else:
            if vals.dtype != _F64:
                vals = vals.astype(_F64)
    w.stats.loads_by_space[_SPACE_BY_TAG[t0]] += w.n_active
    w._wr_compact(op[3], vals)
    w.pc = op[2]
    w.pending_cycles += _load_cost(vm, w, op[7], t0, w.n_active)


def _gather_bytes(w, seg, offs, op):
    """Misaligned gather: per-lane byte reads (no error cases here —
    bounds were already checked)."""
    size = op[5]
    data = seg.data
    if op[10] is not None:
        unpack = op[10]
        return np.array(
            [unpack(data, int(o))[0] for o in offs], _F64
        )
    return np.array(
        [int.from_bytes(data[int(o) : int(o) + size], "little") for o in offs],
        _U64,
    )


def _load_lanes(vm, w, op, p):
    """Per-lane load slow path: mixed/local spaces and every error
    case route through ``MemorySystem.load`` in lane order, exactly
    like the scalar engines."""
    w._flush()
    size, ty, costs = op[5], op[6], op[7]
    unpack = op[10]
    uniform_ptr = type(p) is not ndarray
    vals = []
    by_space = w.stats.loads_by_space
    cyc = w.cyc
    fn_cycles = w.fn_cycles
    fname = w.frame.name
    is_float = unpack is not None
    for ln in w._iter_bits(w.mask):
        t = w.lanes[ln]
        ptr = p if uniform_ptr else int(p[ln])
        tag = ptr >> 48
        off = ptr & OFFSET_MASK
        seg = _dec._segment(vm, t, tag)
        w.error_lane = ln
        if seg is None or off == 0 or off + size > len(seg.data):
            value = vm.memory.load(ptr, ty, t.team_id, t.thread_id)
        elif is_float:
            value = unpack(seg.data, off)[0]
        else:
            value = int.from_bytes(seg.data[off : off + size], "little")
        by_space[_SPACE_BY_TAG[tag]] += 1
        c = costs[tag]
        if c is None:
            c = vm.cost.load_cost(_SPACE_BY_TAG[tag])
        cyc[ln] += c
        if fn_cycles is not None:
            fn_cycles[fname] += c
        vals.append(value)
    w.error_lane = None
    w._wr_compact(
        op[3], np.array(vals, _F64 if is_float else _U64)
    )
    w.pc = op[2]


def _store_cost(vm, w, costs, tag):
    c = costs[tag]
    if c is None:
        c = vm.cost.store_cost(_SPACE_BY_TAG[tag])
    return c


def _store_scalar_bytes(op, value):
    """Python-path byte image of a scalar store value."""
    kind = op[10]
    size = op[5]
    if kind == 1:
        import struct

        buf = bytearray(size)
        op[11](buf, 0, float(value))
        return bytes(buf)
    if kind == 0:
        return op[11].wrap(int(value)).to_bytes(size, "little")
    return int(value).to_bytes(size, "little")


def _w_store(vm, w, op):
    regs = w.regs
    p = regs[op[3]]
    v = regs[op[4]]
    if type(p) is not ndarray:
        tag = p >> 48
        if tag == 5:
            _store_lanes(vm, w, op, p, v)
            return
        # Uniform pointer: one access; a varying value stores the last
        # active lane's element (lane order is thread order).
        if type(v) is ndarray:
            last = w.mask.bit_length() - 1
            sv = float(v[last]) if op[10] == 1 else int(v[last])
        else:
            sv = v
        size = op[5]
        off = p & OFFSET_MASK
        seg = w._segment(tag)
        if seg is None or off == 0 or off + size > len(seg.data):
            lane = w._lowest_lane()
            t = w.lanes[lane]
            w.error_lane = lane
            vm.memory.store(p, sv, op[6], t.team_id, t.thread_id)
            w.error_lane = None
        else:
            seg.data[off : off + size] = _store_scalar_bytes(op, sv)
        w.stats.stores_by_space[_SPACE_BY_TAG[tag]] += w.n_active
        w.pc = op[2]
        w.pending_cycles += _store_cost(vm, w, op[7], tag)
        return
    pa = p if w.mask == w.all_bits else p[w._marr(w.mask)]
    # Same min/max collapse of the tag/null/bounds checks as _w_load.
    pmin = int(pa.min())
    pmax = int(pa.max())
    t0 = pmin >> 48
    if t0 == 5 or t0 != pmax >> 48:
        _store_lanes(vm, w, op, p, v)
        return
    size = op[5]
    seg = w._segment(t0)
    if (
        seg is None
        or pmin & OFFSET_MASK == 0
        or (pmax & OFFSET_MASK) + size > len(seg.data)
    ):
        _store_lanes(vm, w, op, p, v)
        return
    offs = pa & _U64(OFFSET_MASK)
    kind = op[10]
    if type(v) is ndarray:
        va = v if w.mask == w.all_bits else v[w._marr(w.mask)]
    elif kind == 1:
        va = np.full(len(pa), float(v), _F64)
    else:
        va = np.full(len(pa), int(v) & _M64, _U64)
    if op[8] is None or (size > 1 and bool((offs & _U64(size - 1)).any())):
        _scatter_bytes(w, seg, offs, va, op)
    else:
        view = w._view(seg, op[8], op[9])
        view[offs >> _U64(op[9])] = va
    w.stats.stores_by_space[_SPACE_BY_TAG[t0]] += w.n_active
    w.pc = op[2]
    w.pending_cycles += _store_cost(vm, w, op[7], t0)


def _scatter_bytes(w, seg, offs, va, op):
    size = op[5]
    data = seg.data
    if op[10] == 1:
        pack = op[11]
        for o, x in zip(offs, va):
            pack(data, int(o), float(x))
    else:
        for o, x in zip(offs, va):
            data[int(o) : int(o) + size] = (int(x) & _M64).to_bytes(
                8, "little"
            )[:size]


def _store_lanes(vm, w, op, p, v):
    """Per-lane store slow path (mixed/local spaces, error cases)."""
    w._flush()
    size, ty, costs = op[5], op[6], op[7]
    uniform_ptr = type(p) is not ndarray
    uniform_val = type(v) is not ndarray
    by_space = w.stats.stores_by_space
    cyc = w.cyc
    fn_cycles = w.fn_cycles
    fname = w.frame.name
    kind = op[10]
    for ln in w._iter_bits(w.mask):
        t = w.lanes[ln]
        ptr = p if uniform_ptr else int(p[ln])
        if uniform_val:
            sv = v
        else:
            sv = float(v[ln]) if kind == 1 else int(v[ln])
        tag = ptr >> 48
        off = ptr & OFFSET_MASK
        seg = _dec._segment(vm, t, tag)
        w.error_lane = ln
        if seg is None or off == 0 or off + size > len(seg.data):
            vm.memory.store(ptr, sv, ty, t.team_id, t.thread_id)
        else:
            seg.data[off : off + size] = _store_scalar_bytes(op, sv)
        by_space[_SPACE_BY_TAG[tag]] += 1
        c = costs[tag]
        if c is None:
            c = vm.cost.store_cost(_SPACE_BY_TAG[tag])
        cyc[ln] += c
        if fn_cycles is not None:
            fn_cycles[fname] += c
    w.error_lane = None
    w.pc = op[2]


def _w_atomicrmw(vm, w, op):
    # (h, "atomicrmw", next, d, ptr, val, opstr, ty, c)
    regs = w.regs
    p = regs[op[4]]
    v = regs[op[5]]
    ty = op[7]
    is_float = isinstance(ty, FloatType)
    uniform_ptr = type(p) is not ndarray
    uniform_val = type(v) is not ndarray
    memory = vm.memory
    vals = []
    with DEVICE_LOCK:
        for ln in w._iter_bits(w.mask):
            t = w.lanes[ln]
            ptr = int(p) if uniform_ptr else int(p[ln])
            if uniform_val:
                av = v
            else:
                av = float(v[ln]) if is_float else int(v[ln])
            w.error_lane = ln
            old = memory.load(ptr, ty, t.team_id, t.thread_id)
            memory.store(
                ptr, atomic_apply(op[6], old, av, ty), ty,
                t.team_id, t.thread_id,
            )
            vals.append(old)
    w.error_lane = None
    w._wr_compact(op[3], np.array(vals, _F64 if is_float else _U64))
    w.pc = op[2]
    w.pending_cycles += op[8]


# -- branches --


def _w_jump(vm, w, op):
    # (h, "br", target, c)
    w.pending_cycles += op[3]
    t = op[2]
    if t == w.rpc:
        w._reconverge()
    else:
        w.pc = t


def _w_br1(vm, w, op):
    # (h, "br", target, dest, src, c)
    w.pending_cycles += op[5]
    w._wr_any(op[3], w.regs[op[4]])
    t = op[2]
    if t == w.rpc:
        w._reconverge()
    else:
        w.pc = t


def _w_brn(vm, w, op):
    # (h, "br", target, moves, c)
    w.pending_cycles += op[4]
    w._moves(op[3])
    t = op[2]
    if t == w.rpc:
        w._reconverge()
    else:
        w.pc = t


def _w_condbr(vm, w, op):
    # (h, "condbr", 0, cond, t_pc, t_mv, f_pc, f_mv, c, rpc, diamond)
    w.pending_cycles += op[8]
    c = w.regs[op[3]]
    if type(c) is ndarray:
        bits = w._bits(c != 0) & w.mask
        if bits == w.mask:
            pc, mv = op[4], op[5]
        elif bits == 0:
            pc, mv = op[6], op[7]
        elif op[10] is not None:
            _ifconv(vm, w, op, bits)
            return
        else:
            w._split(op, bits)
            return
    elif c:
        pc, mv = op[4], op[5]
    else:
        pc, mv = op[6], op[7]
    if mv:
        w._moves(mv)
    if pc == w.rpc:
        w._reconverge()
    else:
        w.pc = pc


def _ifconv(vm, w, op, t_bits):
    """Execute an if-converted diamond: both arms run back-to-back
    under their predicate masks — no divergence-stack traffic.  All
    accounting (steps, cycles, opcode counts, memory counters) charges
    exactly the lanes that would have executed each arm."""
    w._flush()
    f_bits = w.mask & ~t_bits
    saved = w.mask
    d = op[10]  # (t_start, t_n, t_term_mv, t_cost, f_start, f_n, f_term_mv, f_cost, join)
    join = d[8]
    vops = w.vops
    maxs = w.max_steps
    counts = w.counts
    for bits, entry_mv, start, nops, term_mv, term_cost in (
        (t_bits, op[5], d[0], d[1], d[2], d[3]),
        (f_bits, op[7], d[4], d[5], d[6], d[7]),
    ):
        w._set_mask(bits)
        if entry_mv:
            w._moves(entry_mv)
        pc = start
        end = start + nops
        while pc < end:
            sop = vops[pc]
            if w.steps_base + w.pending_steps >= maxs:
                w._step_limit()
            counts[sop[1]] += w.n_active
            w.pending_steps += 1
            sop[0](vm, w, sop)
            pc += 1
        if start != join:
            # The arm's terminating br: counted and charged for the
            # arm's lanes; its phi moves feed the join block.
            if w.steps_base + w.pending_steps >= maxs:
                w._step_limit()
            counts["br"] += w.n_active
            w.pending_steps += 1
            w.pending_cycles += term_cost
            if term_mv:
                w._moves(term_mv)
        w._flush()
    w._set_mask(saved)
    if join == w.rpc:
        w._reconverge()
    else:
        w.pc = join


# -- ret / unreachable / calls --


def _w_ret(vm, w, op):
    # (h, "ret", 0, value_slot_or_-1)
    w._flush()
    stack = w.stack
    cur_mask = w.mask
    stack.pop()
    i = len(stack) - 1
    while stack[i].kind != _CALL:
        stack[i].mask &= ~cur_mask
        i -= 1
    frame = w.frame
    caller = frame.caller
    if caller is None:
        # Kernel frame: these lanes are done.
        lanes = w.lanes
        for ln in w._iter_bits(cur_mask):
            lanes[ln].status = _DONE
        w.done_bits |= cur_mask
        for r in stack[: i + 1]:
            r.mask &= ~cur_mask
    else:
        v = op[3]
        if v >= 0:
            w._wr_into(caller, frame.ret_dest, frame.regs[v], cur_mask)
    w._pop_until_runnable()


def _w_unreachable(vm, w, op):
    lane = w._lowest_lane()
    w.error_lane = lane
    raise unreachable_error(w.frame.name, w.lanes[lane])


def _w_call(vm, w, op):
    # (h, "call", next, d, callee, arg_slots, c)
    w._push(op[2], op[3], op[4], op[5], op[6])


def _w_call_rt(vm, w, op):
    # (h, "call", next, d, callee, arg_slots, c, category)
    w.stats.runtime_calls[op[7]] += w.n_active
    w._push(op[2], op[3], op[4], op[5], op[6])


def _w_badcall(vm, w, op):
    raise SimulationError(f"call to undefined function @{op[3]}")


def _w_raise(vm, w, op):
    raise SimulationError(op[3])


def _w_icall(vm, w, op):
    # (h, "call", next, d, callee_slot, arg_slots, inst, coerce)
    regs = w.regs
    av = regs[op[4]]
    if type(av) is ndarray:
        pa = av if w.mask == w.all_bits else av[w._marr(w.mask)]
        if not bool((pa == pa[0]).all()):
            raise EngineUnsupported(
                "warp engine: divergent indirect call targets are not "
                "supported (use the decoded or legacy engine)"
            )
        address = int(pa[0])
    else:
        address = int(av)
    callee = vm._functions_by_address.get(address)
    if callee is None:
        raise SimulationError(
            f"indirect call to unmapped address {address:#x} in "
            f"@{w.frame.name}"
        )
    info = intrinsic_info(callee.name)
    if info is not None:
        _intrin_body(
            vm, w, callee.name, info, op[5], op[7], op[6], op[3], op[2]
        )
        return
    if callee.is_declaration:
        raise SimulationError(f"call to undefined function @{callee.name}")
    if len(op[5]) != len(callee.args):
        raise SimulationError(
            f"call to @{callee.name}: {len(op[5])} args for "
            f"{len(callee.args)} params"
        )
    category = OVERHEAD_CATEGORIES.get(callee.name)
    if category is not None:
        w.stats.runtime_calls[category] += w.n_active
    w._push(op[2], op[3], callee, op[5], vm.cost.config.call_cost)


# -- intrinsics --


def _w_barrier(vm, w, op):
    # (h, "call", next, inst, c); fault plans never reach the warp
    # engine (armed teams fall back to the decoded engine), so there is
    # no skip_barrier hook here.
    w.pending_cycles += op[4]
    w._flush()
    inst = op[3]
    lanes = w.lanes
    for ln in w._iter_bits(w.mask):
        t = lanes[ln]
        t.status = _AT_BARRIER
        t.barrier_call = inst
    w._park(op[2])


def _w_thread_id(vm, w, op):
    # (h, "call", next, d, c)
    w._wr(op[3], w.tid_arr)
    w.pc = op[2]
    w.pending_cycles += op[4]


def _w_block_id(vm, w, op):
    w._wr_u(op[3], w.team_id)
    w.pc = op[2]
    w.pending_cycles += op[4]


def _w_block_dim(vm, w, op):
    w._wr_u(op[3], vm._launch.threads_per_team)
    w.pc = op[2]
    w.pending_cycles += op[4]


def _w_grid_dim(vm, w, op):
    w._wr_u(op[3], vm._launch.num_teams)
    w.pc = op[2]
    w.pending_cycles += op[4]


def _w_const_result(vm, w, op):
    # (h, "call", next, d, value, c)
    w._wr_u(op[3], op[4])
    w.pc = op[2]
    w.pending_cycles += op[5]


def _w_lane_id(vm, w, op):
    # (h, "call", next, d, warp_size, c)
    w._wr(op[3], w.lane_arr)
    w.pc = op[2]
    w.pending_cycles += op[5]


def _w_assume(vm, w, op):
    # (h, "call", next, arg_slot, c)
    if vm.debug_checks:
        v = w.regs[op[3]]
        if type(v) is ndarray:
            bad = w._bits(v == 0) & w.mask
            if bad:
                lane = (bad & -bad).bit_length() - 1
                w.error_lane = lane
                raise assumption_error(w.frame.name, w.lanes[lane])
        elif not v:
            lane = w._lowest_lane()
            w.error_lane = lane
            raise assumption_error(w.frame.name, w.lanes[lane])
    w.pc = op[2]
    w.pending_cycles += op[4]


def _w_expect(vm, w, op):
    # (h, "call", next, d, arg, coerce, c)
    v = w.regs[op[4]]
    if type(v) is ndarray:
        w._wr(op[3], v)
    else:
        w._wr_u(op[3], op[5](v))
    w.pc = op[2]
    w.pending_cycles += op[6]


def _w_math1(vm, w, op):
    # (h, "call", next, d, a, fn, coerce, c)
    w.stats.flops += w.n_active
    v = w.regs[op[4]]
    fn, co = op[5], op[6]
    if type(v) is ndarray:
        ix = w._active_idx(w.mask)
        va = v[ix]
        vals = np.fromiter(
            (co(fn(float(x))) for x in va), _F64, count=len(va)
        )
        w._wr_compact(op[3], vals)
    else:
        w._wr_u(op[3], co(fn(float(v))))
    w.pc = op[2]
    w.pending_cycles += op[7]


def _w_math2(vm, w, op):
    # (h, "call", next, d, a, b, fn, coerce, c)
    w.stats.flops += w.n_active
    regs = w.regs
    a, b = regs[op[4]], regs[op[5]]
    fn, co = op[6], op[7]
    if type(a) is ndarray or type(b) is ndarray:
        ix = w._active_idx(w.mask)
        aa = a[ix] if type(a) is ndarray else [float(a)] * len(ix)
        bb = b[ix] if type(b) is ndarray else [float(b)] * len(ix)
        vals = np.fromiter(
            (co(fn(float(x), float(y))) for x, y in zip(aa, bb)),
            _F64, count=len(ix),
        )
        w._wr_compact(op[3], vals)
    else:
        w._wr_u(op[3], co(fn(float(a), float(b))))
    w.pc = op[2]
    w.pending_cycles += op[8]


def _w_intrin(vm, w, op):
    # generic: (h, "call", next, d, name, info, arg_slots, coerce, inst)
    _intrin_body(vm, w, op[4], op[5], op[6], op[7], op[8], op[3], op[2])


def _intrin_body(vm, w, name, info, arg_slots, coerce, inst, dest, next_pc):
    """Per-lane generic intrinsic loop mirroring the scalar engines'
    ``_run_intrinsic`` ladder (rare ops — clarity over speed)."""
    if info.is_barrier:
        w.pending_cycles += info.cost
        w._flush()
        lanes = w.lanes
        for ln in w._iter_bits(w.mask):
            t = lanes[ln]
            t.status = _AT_BARRIER
            t.barrier_call = inst
        w._park(next_pc)
        return
    regs = w.regs
    args = [regs[a] for a in arg_slots]
    stats = w.stats
    extra_cycles = False
    results = []
    uniform = True
    for ln in w._iter_bits(w.mask):
        t = w.lanes[ln]
        argv = [
            (a[ln] if type(a) is ndarray else a) for a in args
        ]
        w.error_lane = ln
        result = None
        cycles = info.cost
        if name == "gpu.thread_id":
            result = t.thread_id
        elif name == "gpu.block_id":
            result = t.team_id
        elif name == "gpu.block_dim":
            result = vm._launch.threads_per_team
        elif name == "gpu.grid_dim":
            result = vm._launch.num_teams
        elif name == "gpu.warp_size":
            result = vm.config.warp_size
        elif name == "gpu.lane_id":
            result = t.thread_id % vm.config.warp_size
        elif name == "gpu.dynamic_shared":
            base = vm._dynamic_shared_base.get(t.team_id)
            if base is None:
                raise SimulationError(
                    "gpu.dynamic_shared used but the launch reserved no "
                    "dynamic shared memory"
                )
            result = base
        elif name == "llvm.assume":
            if vm.debug_checks and not argv[0]:
                raise assumption_error(w.frame.name, t)
        elif name == "llvm.expect":
            result = argv[0]
        elif name == "llvm.trap":
            buf = w.out[ln]
            if buf:
                msg = buf[-1]
            elif stats.output:
                msg = stats.output[-1]
            else:
                msg = "llvm.trap"
            raise trap_error(w.frame.name, t, msg)
        elif name == "rt.print_i64":
            w.out[ln].append(str(_I64_TO_SIGNED(int(argv[0]))))
        elif name == "rt.print_f64":
            w.out[ln].append(repr(float(argv[0])))
        elif name == "rt.print_str":
            addr = int(argv[0])
            w.out[ln].append(vm._string_table.get(addr, f"<str {addr:#x}>"))
        elif name == "malloc":
            stats.device_mallocs += 1
            result = vm.memory.malloc(int(argv[0]))
        elif name == "free":
            stats.device_frees += 1
            vm.memory.free(int(argv[0]))
        elif name == "llvm.memset":
            vm.memory.memset(
                int(argv[0]), int(argv[1]), int(argv[2]),
                t.team_id, t.thread_id,
            )
            cycles += int(argv[2]) // 8
        elif name == "llvm.memcpy":
            vm.memory.memcpy(
                int(argv[0]), int(argv[1]), int(argv[2]),
                t.team_id, t.thread_id,
            )
            cycles += int(argv[2]) // 4
        else:
            result = math_intrinsic(name, argv)
            stats.flops += 1
        if cycles != info.cost:
            extra_cycles = True
        results.append((ln, result, cycles))
        if results and result != results[0][1]:
            uniform = False
    w.error_lane = None
    if extra_cycles:
        w._flush()
        for ln, _, cycles in results:
            w.cyc[ln] += cycles
            if w.fn_cycles is not None:
                w.fn_cycles[w.frame.name] += cycles
    else:
        w.pending_cycles += info.cost
    if results and results[0][1] is not None:
        if uniform:
            w._wr_u(dest, coerce(results[0][1]))
        else:
            vals = [coerce(r) for _, r, _ in results]
            dtype = _F64 if isinstance(vals[0], float) else _U64
            w._wr_compact(dest, np.array(vals, dtype))
    w.pc = next_pc


# ===================================================================
# Vectorizer
#
# Translation runs over the *decoded* op stream: each decoded op is
# rewritten to its warp twin, keyed by the decoded handler's identity
# (the one decode-time dispatch decision the scalar engine already
# made), reusing the decoded slot numbers and pre-resolved costs and
# only adding the type facts (bit widths, ndarray dtypes) the vector
# paths need from the parallel ``code.insts`` instruction list.
# ===================================================================


class WarpFunction:
    """Vectorized twin of a :class:`~repro.vgpu.decode.BoundFunction`."""

    __slots__ = (
        "code", "vops", "entry_pc", "init_regs", "arg_slots",
        "arg_coerce", "arg_vcoerce", "name", "function",
    )

    def __init__(self, code, vops, init_regs):
        self.code = code
        self.vops = vops
        self.entry_pc = code.entry_pc
        self.init_regs = init_regs
        self.arg_slots = code.arg_slots
        self.arg_coerce = code.arg_coerce
        self.arg_vcoerce = tuple(
            _make_vcoerce(a.type) for a in code.function.args
        )
        self.name = code.function.name
        self.function = code.function


def _make_vcoerce(ty):
    """Vector-aware argument coercion for calls (scalar falls back to
    the exact ``make_coerce`` semantics)."""
    if isinstance(ty, IntType):
        wrap = ty.wrap
        vmask = None if ty.bits == 64 else _U64((1 << ty.bits) - 1)

        def co_int(v):
            if type(v) is ndarray:
                if v.dtype == _F64:
                    v = np.trunc(v).astype(_I64).view(_U64)
                elif v.dtype != _U64:
                    v = v.astype(_U64)
                return v & vmask if vmask is not None else v
            return wrap(int(v))

        return co_int
    if isinstance(ty, FloatType):

        def co_float(v):
            if type(v) is ndarray:
                return v if v.dtype == _F64 else v.astype(_F64)
            return float(v)

        return co_float

    def co_raw(v):
        return v if type(v) is ndarray else int(v)

    return co_raw


def _dst_vmask(bits):
    return None if bits == 64 else _U64((1 << bits) - 1)


def _ity(ty):
    return ty if isinstance(ty, IntType) else I64


#: size -> (ndarray dtype, index shift) for vector gather/scatter.
_INT_DTYPES = {1: (np.uint8, 0), 2: (np.uint16, 1),
               4: (np.uint32, 2), 8: (_U64, 3)}
_FLT_DTYPES = {4: (np.float32, 2), 8: (_F64, 3)}

#: Decoded ops whose tuple layout already carries everything the warp
#: handler needs: translate by swapping the handler slot only.
_SWAP = {}


def _init_swap():
    d = _dec
    for dec_h, w_h in (
        (d._h_and, _w_and), (d._h_or, _w_or), (d._h_xor, _w_xor),
        (d._h_lshr, _w_lshr), (d._h_ashr, _w_ashr),
        (d._h_udiv, _w_udiv), (d._h_urem, _w_urem),
        (d._h_fadd, _w_fadd), (d._h_fsub, _w_fsub),
        (d._h_fmul, _w_fmul), (d._h_fdiv, _w_fdiv), (d._h_frem, _w_frem),
        (d._h_icmp_eq, _w_icmp_eq), (d._h_icmp_ne, _w_icmp_ne),
        (d._h_icmp_lt, _w_icmp_lt), (d._h_icmp_le, _w_icmp_le),
        (d._h_icmp_gt, _w_icmp_gt), (d._h_icmp_ge, _w_icmp_ge),
        (d._h_fcmp_oeq, _w_fcmp_oeq), (d._h_fcmp_one, _w_fcmp_one),
        (d._h_fcmp_olt, _w_fcmp_olt), (d._h_fcmp_ole, _w_fcmp_ole),
        (d._h_fcmp_ogt, _w_fcmp_ogt), (d._h_fcmp_oge, _w_fcmp_oge),
        (d._h_zext, _w_zext), (d._h_copy, _w_copy),
        (d._h_tofloat, _w_tofloat), (d._h_uitofp, _w_uitofp),
        (d._h_alloca, _w_alloca), (d._h_atomicrmw, _w_atomicrmw),
        (d._h_jump, _w_jump), (d._h_br1, _w_br1), (d._h_brn, _w_brn),
        (d._h_ret, _w_ret), (d._h_unreachable, _w_unreachable),
        (d._h_call, _w_call), (d._h_call_rt, _w_call_rt),
        (d._h_badcall, _w_badcall), (d._h_raise, _w_raise),
        (d._h_icall, _w_icall), (d._h_barrier, _w_barrier),
        (d._h_thread_id, _w_thread_id), (d._h_block_id, _w_block_id),
        (d._h_block_dim, _w_block_dim), (d._h_grid_dim, _w_grid_dim),
        (d._h_const_result, _w_const_result), (d._h_lane_id, _w_lane_id),
        (d._h_assume, _w_assume), (d._h_expect, _w_expect),
        (d._h_math1, _w_math1), (d._h_math2, _w_math2),
        (d._h_intrin, _w_intrin),
    ):
        _SWAP[dec_h] = w_h


_init_swap()

_WRAPPED_BINOPS = {}  # add/sub/mul: append a vector wrap mask


def _init_tables():
    d = _dec
    _WRAPPED_BINOPS[d._h_add] = _w_add
    _WRAPPED_BINOPS[d._h_sub] = _w_sub
    _WRAPPED_BINOPS[d._h_mul] = _w_mul


_init_tables()

_SIGNED_PRED_OF = {}


def _init_signed_preds():
    d = _dec
    _SIGNED_PRED_OF[d._h_icmp_slt] = "slt"
    _SIGNED_PRED_OF[d._h_icmp_sle] = "sle"
    _SIGNED_PRED_OF[d._h_icmp_sgt] = "sgt"
    _SIGNED_PRED_OF[d._h_icmp_sge] = "sge"


_init_signed_preds()


def _arm_desc(ops, start, n_ops, join):
    """(start, n_ops, terminator phi moves, terminator cost) of one
    if-converted arm; a triangle's arm-less side has no terminator."""
    if start == join:
        return (start, 0, (), 0)
    term = ops[start + n_ops]
    h = term[0]
    if h is _dec._h_jump:
        return (start, n_ops, (), term[3])
    if h is _dec._h_br1:
        return (start, n_ops, ((term[3], term[4]),), term[5])
    return (start, n_ops, term[3], term[4])


def vectorize_function(bound, flow):
    """Translate *bound* (a decoded+bound function) into its warp twin
    using *flow*'s reconvergence/if-conversion analysis."""
    code = bound.code
    ops = code.ops
    insts = code.insts
    d = _dec
    vops = []
    for pc, dop in enumerate(ops):
        h = dop[0]
        w_h = _SWAP.get(h)
        if w_h is not None:
            vops.append((w_h,) + dop[1:])
            continue
        w_h = _WRAPPED_BINOPS.get(h)
        if w_h is not None:
            # (h, op, next, d, a, b, wrap_ty, c) ->
            # (h, op, next, d, a, b, wrap_ty, vmask, c)
            bits = _ity(insts[pc].type).bits
            vops.append((
                w_h, dop[1], dop[2], dop[3], dop[4], dop[5],
                dop[6], _dst_vmask(bits), dop[7],
            ))
            continue
        if h is d._h_shl:
            # (..., bits, wrap_ty, c) -> (..., bits, wrap_ty, vmask, c)
            vops.append((
                _w_shl, dop[1], dop[2], dop[3], dop[4], dop[5],
                dop[6], dop[7], _dst_vmask(dop[6]), dop[8],
            ))
        elif h is d._h_sdiv or h is d._h_srem:
            # (..., signed_ty, wrap_ty, c) -> (..., bits, signed_ty, wrap_ty, c)
            bits = _ity(insts[pc].type).bits
            vops.append((
                _w_sdiv if h is d._h_sdiv else _w_srem,
                dop[1], dop[2], dop[3], dop[4], dop[5],
                bits, dop[6], dop[7], dop[8],
            ))
        elif h in _SIGNED_PRED_OF:
            # (..., signed_ty, c) -> (..., bits, signed_ty, pred, c)
            bits = insts[pc].lhs.type.bits
            vops.append((
                _w_icmp_signed, dop[1], dop[2], dop[3], dop[4], dop[5],
                bits, dop[6], _SIGNED_PRED_OF[h], dop[7],
            ))
        elif h is d._h_select:
            # (..., cond, t, f, c) -> (..., cond, t, f, is_float, c)
            vops.append((
                _w_select, dop[1], dop[2], dop[3], dop[4], dop[5],
                dop[6], isinstance(insts[pc].type, FloatType), dop[7],
            ))
        elif h is d._h_sext:
            # (..., s, signed_ty, wrap_ty, c) ->
            # (..., s, src_bits, signed_ty, wrap_ty, vmask, c)
            inst = insts[pc]
            vops.append((
                _w_sext, dop[1], dop[2], dop[3], dop[4],
                inst.source.type.bits, dop[5], dop[6],
                _dst_vmask(inst.type.bits), dop[7],
            ))
        elif h is d._h_trunc:
            # (..., s, wrap_ty, c) -> (..., s, wrap_ty, vmask, c)
            vops.append((
                _w_trunc, dop[1], dop[2], dop[3], dop[4],
                dop[5], _dst_vmask(insts[pc].type.bits), dop[6],
            ))
        elif h is d._h_sitofp:
            # (..., s, signed_ty, c) -> (..., s, src_bits, signed_ty, c)
            vops.append((
                _w_sitofp, dop[1], dop[2], dop[3], dop[4],
                insts[pc].source.type.bits, dop[5], dop[6],
            ))
        elif h is d._h_fptosi:
            # (..., s, wrap_ty, c) -> (..., s, wrap_ty, vmask, c)
            vops.append((
                _w_fptosi, dop[1], dop[2], dop[3], dop[4],
                dop[5], _dst_vmask(insts[pc].type.bits), dop[6],
            ))
        elif h is d._h_ptradd:
            # (..., p, o, signed_ty, c) -> (..., p, o, off_bits, signed_ty, c)
            vops.append((
                _w_ptradd, dop[1], dop[2], dop[3], dop[4], dop[5],
                insts[pc].offset.type.bits, dop[6], dop[7],
            ))
        elif h is d._h_load_int or h is d._h_load_f:
            # (..., d, p, size, ty, costs[, unpack]) ->
            # (..., d, p, size, ty, costs, dtype, shift, unpack)
            size = dop[5]
            if h is d._h_load_f:
                dtype, shift = _FLT_DTYPES.get(size, (None, 0))
                unpack = dop[8]
            else:
                dtype, shift = _INT_DTYPES.get(size, (None, 0))
                unpack = None
            vops.append((
                _w_load, dop[1], dop[2], dop[3], dop[4], size,
                dop[6], dop[7], dtype, shift, unpack,
            ))
        elif h is d._h_store_int or h is d._h_store_f or h is d._h_store_ptr:
            # (..., p, v, size, ty, costs[, extra]) ->
            # (..., p, v, size, ty, costs, dtype, shift, kind, extra)
            size = dop[5]
            if h is d._h_store_f:
                dtype, shift = _FLT_DTYPES.get(size, (None, 0))
                kind, extra = 1, dop[8]
            elif h is d._h_store_int:
                dtype, shift = _INT_DTYPES.get(size, (None, 0))
                kind, extra = 0, dop[8]
            else:
                dtype, shift = _INT_DTYPES.get(size, (None, 0))
                kind, extra = 2, None
            vops.append((
                _w_store, dop[1], dop[2], dop[3], dop[4], size,
                dop[6], dop[7], dtype, shift, kind, extra,
            ))
        elif h is d._h_condbr:
            # (..., cond, t_pc, t_mv, f_pc, f_mv, c) -> + (rpc, diamond)
            dia = flow.diamonds.get(pc)
            if dia is not None:
                t_start, t_n, f_start, f_n, join = dia
                dia = (_arm_desc(ops, t_start, t_n, join)
                       + _arm_desc(ops, f_start, f_n, join)
                       + (join,))
            vops.append((
                _w_condbr, dop[1], dop[2], dop[3], dop[4], dop[5],
                dop[6], dop[7], dop[8], flow.rpc.get(pc), dia,
            ))
        else:
            raise EngineUnsupported(
                f"warp engine cannot vectorize opcode {dop[1]!r} in "
                f"@{code.function.name}"
            )
    return WarpFunction(code, vops, bound.init_regs)


def _binding_fingerprint(vm):
    """Everything device-specific the bound micro-ops embed: the
    addresses assigned to globals and functions.  Two devices with the
    same fingerprint decode+bind any function of the module to
    byte-identical programs, so they may share its vectorization."""
    return (
        tuple(sorted(
            (gv.name, addr) for gv, addr in vm.global_addresses.items()
        )),
        tuple(sorted(
            (f.name, addr) for f, addr in vm.function_addresses.items()
        )),
    )


def bind_warp(vm, func) -> WarpFunction:
    """Vectorize *func* for *vm*; cached per device like the decoded
    engine's ``vm._bound_cache`` (and layered on top of it), with a
    second-level cache on the module keyed by the device's binding
    fingerprint — a fresh ``VirtualGPU`` over an already-vectorized
    module (the benchmarking / re-launch shape) skips the whole
    reconvergence analysis and translation."""
    cache = getattr(vm, "_warp_cache", None)
    if cache is None:
        cache = vm._warp_cache = {}
    wf = cache.get(func)
    if wf is not None:
        return wf
    if_convert = getattr(vm, "warp_if_convert", None)
    if if_convert is None:
        if_convert = envconfig.warp_if_convert()
    mcache = vm.module.__dict__.setdefault("_warp_vector_cache", {})
    mkey = (id(func), bool(if_convert), _binding_fingerprint(vm))
    wf = mcache.get(mkey)
    if wf is None:
        bound = bind_function(vm, func)
        flow = compute_warp_flow(bound.code, if_convert=if_convert)
        wf = vectorize_function(bound, flow)
        mcache[mkey] = wf
    cache[func] = wf
    return wf


def make_team_warps(vm, kernel, args, threads, stats) -> List[WarpExec]:
    """Partition one team's threads into warps and build their vector
    executors (launch arguments are uniform scalars)."""
    wf = bind_warp(vm, kernel)
    ws = vm.config.warp_size
    return [
        WarpExec(vm, wf, args, threads[i : i + ws], stats)
        for i in range(0, len(threads), ws)
    ]
