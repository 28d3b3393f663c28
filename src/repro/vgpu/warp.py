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
  scalar ``ty.wrap`` discipline), floats are ``float64``.
* Control flow is an **active-lane-mask machine**: each *execution
  group* keeps a stack of records; the top record carries the current
  pc, the reconvergence pc (the branch's immediate post-dominator,
  computed by :func:`repro.vgpu.decode.compute_warp_flow`) and an
  integer bitmask of active lanes.  A uniform branch is a plain jump
  (the whole-warp fast path); a divergent branch replaces the top
  record with *continuation*, *false-side* and *true-side* records —
  divergence is mask bookkeeping, not per-thread control flow.
* Short diamond/triangle regions are *if-converted*: both arms run
  back-to-back under their predicate masks with no stack traffic.
* Barriers park the active lanes.  If other lanes of the group are
  still runnable, the parked lanes' record chain is split into a new
  (suspended) group; frames and register files stay shared — the lane
  masks are disjoint, so this is pure bookkeeping.

One opcode table
----------------

The simple ops (arithmetic, compares, select, ptradd, casts and the
pure intrinsics) are defined once, as rows of
:data:`repro.vgpu.decode._TEMPLATES`, for both fast engines.  Each
``_w_<name>`` handler here is generated from its row and reads the
decoded op tuple unchanged: with every register operand uniform it runs
the row's scalar template (the decoded engine's own code), else the
row's NumPy vector template.  Where NumPy would round or fail unlike
Python (``int(x / y)`` above 2**53, ``fptosi`` outside int64, ``frem``
of an infinity, the math intrinsics), the vector template runs the
scalar template lane by lane, so every lane has the decoded engine's
semantics.  Intrinsics come from the decoded engine's name-keyed
table too: a pure one is a row like any simple op, and a generic row
(prints, traps, malloc, memset, ...) is the scalar function
:func:`_w_intrin` calls once per active lane, in lane order; indirect
calls of an intrinsic run the op a direct call decodes to.  Loads,
stores, atomics, control flow, barriers and ``llvm.assume``/
``llvm.expect`` keep hand-written handlers.

Bit-parity with the decoded engine
----------------------------------

Profiles are bit-identical to the decoded engine for race-free
programs: every counter charges ``n_active`` where the decoded engine
charges 1 per thread, per-lane step/cycle counts accumulate in arrays
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
never runs it.  The one known, documented divergence is the context
of a *divergent* crash:

* which fault it reports: the decoded engine runs each thread to its
  first fault in thread order, while the warp engine stops at the
  first op where any active lane faults and pins it to the lowest such
  lane.  Only the crash context differs, unless two threads would
  fault in different ways;
* the line ``llvm.trap`` reports: the trapping lane's last print, else
  that of the highest lower lane with buffered output, else the team's
  (see :class:`_LaneOut`).  A lower lane of the same warp that prints
  only *after* the trap point has not printed yet in lockstep, while
  the decoded engine ran that thread to its end before the trapping
  one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from repro.ir.intrinsics import intrinsic_info
from repro.memory.addrspace import OFFSET_MASK
from repro.memory.memmodel import MemoryError_
from repro.ir.types import FloatType, IntType
from repro.trace.categories import OVERHEAD_CATEGORIES
from repro.vgpu import decode as _dec
from repro.vgpu.decode import _SPACE_BY_TAG, bind_function, compute_warp_flow
# Names the table's scalar templates read, for the generated handlers.
from repro.vgpu.decode import _INF, _NAN, _NINF, _fmod  # noqa: F401
from repro.vgpu.errors import (
    OUTPUT_TAIL_LINES,
    DeviceErrorContext,
    EngineUnsupported,
    SimulationError,
    assumption_error,
    call_stack_overflow_error,
    division_by_zero_error,
    step_limit_error,
    undefined_value_error,
    unreachable_error,
)
from repro.vgpu.execstate import ThreadStatus, atomic_apply

_RUNNING = ThreadStatus.RUNNING
_AT_BARRIER = ThreadStatus.AT_BARRIER
_DONE = ThreadStatus.DONE

_U64 = np.uint64
_I64 = np.int64
_F64 = np.float64
_M64 = (1 << 64) - 1
ndarray = np.ndarray

_EXEC, _CALL = 0, 1


def _uu(v):
    """Operand as a uint64 array or uint64 scalar (broadcasts)."""
    return v if type(v) is ndarray else _U64(v & _M64)


def _ff(v):
    """Operand as a float64 array or Python float (broadcasts weakly)."""
    return v if type(v) is ndarray else float(v)


def _vv(v):
    """Operand as lanes of its own kind: ints as uint64, floats as float64."""
    return v if type(v) is ndarray or type(v) is float else _U64(v & _M64)


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
        #: Ops dispatched, whatever the mask (counted in ``_flush``);
        #: ``steps_arr.sum()`` is the lane-ops they retired.
        self.dispatches = 0
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
        self.dispatches += ps
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
        """A new full-width array of *cur* for a slot about to take a
        masked write.  It is never *cur* itself: one array may sit in
        several slots (copies and phi moves pass their source through),
        so a masked write must not modify it in place.

        ``None`` (an SSA slot no lane has defined yet — the normal case
        for a divergent side's or if-converted arm's own defs) demotes
        to zeros: the inactive lanes' entries are placeholders no
        well-defined program ever reads.  A *fully* undefined slot that
        is read stays ``None`` and surfaces as the same
        undefined-value error as the decoded engine."""
        if type(cur) is ndarray:
            return cur.astype(dtype)
        if cur is None:
            return np.zeros(self.n, dtype)
        if dtype == _F64:
            return np.full(self.n, float(cur), _F64)
        return np.full(self.n, int(cur) & _M64, _U64)

    def _merge(self, regs, slot, value, m):
        """Write *value* (lanes or a uniform scalar) into the lanes of
        bool mask *m* of ``regs[slot]``."""
        if type(value) is ndarray:
            base = self._demote(regs[slot], value.dtype)
            np.copyto(base, value, where=m)
        elif isinstance(value, float):
            base = self._demote(regs[slot], _F64)
            base[m] = value
        else:
            base = self._demote(regs[slot], _U64)
            base[m] = int(value) & _M64
        regs[slot] = base

    def _wr(self, slot, value):
        """Write full-width lanes or a uniform scalar under the current
        mask."""
        if self.full:
            self.regs[slot] = value
        else:
            self._merge(self.regs, slot, value, self._marr(self.mask))

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

    def _wr_into(self, frame, slot, value, bits):
        """Masked write into another frame (return-value plumbing)."""
        if bits.bit_count() == frame.n_full:
            frame.regs[slot] = value
        else:
            self._merge(frame.regs, slot, value, self._marr(bits))

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
            self._wr(dst, v)

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
            # Valid for this executor's life (one team of one launch):
            # no segment's mapping changes mid-launch, but a warm reset
            # moves it onto a fresh one, so views are never kept longer.
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
        (mirrors one pass of the decoded engine's phase loop)."""
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
        the decoded engine build from ``thread.frames`` — here the call
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
                self._merge(regs, dst, v, tm)
            for (dst, _), v in zip(f_mv, f_staged):
                self._merge(regs, dst, v, fm)
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
# ``w.pc`` and add their cycle cost to ``w.pending_cycles``.  The simple
# ops' handlers are generated from their rows of ``decode._TEMPLATES``
# (see :func:`_warp_source`); the rest are written by hand below.
# ===================================================================


def _sext(v, S):
    """uint64 lanes of *v* sign-extended from the IntType *S* to 64
    bits: the vector form of ``decode._sx`` (``i1`` has no sign bit)."""
    u = _uu(v)
    return u if S.bits == 64 else ((u + S.half) & S.mask) - S.half


def _sv(v, S):
    """int64 lanes of *v* read as signed under *S*."""
    return _sext(v, S).view(_I64)


def _wrap(v, T):
    """uint64 lanes *v* wrapped to the IntType *T*."""
    return v if T.bits == 64 else v & T.mask


def _div0(w, y):
    """Divisor lanes *y*, with inactive lanes' zeros made 1.  An active
    zero raises like the decoded engine, pinned to the lowest such lane."""
    zero = y == 0
    if not np.count_nonzero(zero):
        return y
    bits = (w._bits(zero) if type(zero) is ndarray else w.all_bits) & w.mask
    if bits:
        w.error_lane = (bits & -bits).bit_length() - 1
        raise division_by_zero_error()
    return np.where(zero, 1, y)


def _quot(x, y):
    """``int(x / y)`` on int64 lanes, or None when a lane reaches 2**53,
    where float64 division may round unlike Python's exact int / int."""
    xf, yf = x.astype(_F64), y.astype(_F64)
    if max(np.abs(xf).max(), np.abs(yf).max()) >= 2.0 ** 53:
        return None
    return np.trunc(xf / yf).astype(_I64)


def _each(w, op, fn, *vals):
    """Full-width lanes of a row's per-lane loop *fn* (its scalar
    template run lane by lane over the active lanes, in lane order);
    inactive lanes are 0."""
    ix = w._active_idx(w.mask)
    res = fn(w, op, ix.tolist(), *[
        v[ix].tolist() if type(v) is ndarray else [v] * len(ix) for v in vals
    ])
    w.error_lane = None
    dtype = _F64 if type(res[0]) is float else _U64
    if len(res) == w.n:
        return np.array(res, dtype)
    out = np.zeros(w.n, dtype)
    out[ix] = res
    return out


def _warp_source(name, spec):
    """Source of ``_w_<name>``: the uniform path runs the row's scalar
    template, the varying path its vector template; operand fetch, the
    masked write, pc advance, cycle cost and flop count are shared.
    Rows whose vector template uses ``{each}`` also get ``_l_<name>``,
    the scalar template in a loop over the active lanes."""
    fields = spec.fields
    regs = [f for f in fields if f.islower() and f != "d"]
    at = range(len(fields) + 3)
    reg = lambda i, _: fields[i - 3]
    const = lambda i, _: _dec._Src(f"op[{i}]")
    scalar = spec.render(at, reg, const).splitlines()
    lines = []
    if "{each}" in spec.vector:
        cols = ", ".join("_" + f for f in regs)
        lines += [f"def _l_{name}(w, op, lanes, {cols}):", "    res = []",
                  f"    for ln, {', '.join(regs)} in zip(lanes, {cols}):",
                  "        w.error_lane = ln"]
        lines += ["        " + s for s in scalar]
        lines += ["        res.append(d)", "    return res", ""]
    each = f"_each(w, op, _l_{name}, {', '.join(regs)})"
    vector = spec.render(at, reg, const, spec.vector, each=each).splitlines()
    lines.append(f"def _w_{name}(vm, w, op):")
    if regs:
        lines.append("    r = w.regs")
        lines += [f"    {f} = r[op[{fields.index(f) + 3}]]" for f in regs]
        lines.append(f"    if {' or '.join(f'type({f}) is ndarray' for f in regs)}:")
        lines += ["        " + s for s in vector] + ["    else:"]
        lines += ["        " + s for s in scalar]
    else:  # no operands: the vector template is every lane's value
        lines += ["    " + s for s in vector]
    lines += ["    w._wr(op[3], d)", "    w.pc = op[2]",
              f"    w.pending_cycles += op[{spec.cost}]"]
    if spec.flop:  # only once the op succeeds, like the decoded engine
        lines.append("    w.stats.flops += w.n_active")
    return "\n".join(lines)


#: Table row name -> its spec, for every row with a vector template
#: (all but the loads and stores).
_VECTOR_ROWS = {n: spec for n, spec in _dec._SPECS.items() if spec.vector is not None}
exec(
    compile(
        "\n\n".join(_warp_source(n, spec) for n, spec in _VECTOR_ROWS.items()),
        "<repro.vgpu.warp generated handlers>",
        "exec",
    ),
    globals(),
)


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
        w._wr(op[3], first)
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
    if c is None:  # space missing from the cost table: cost model KeyError
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
        w._wr(op[3], value)
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
    like the decoded engine."""
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
    w._wr(op[3], w.regs[op[4]])
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
                "supported (use the decoded engine)"
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
        # the op a direct call of the intrinsic decodes to
        iop = _dec.intrinsic_op(callee.name, info, op[3], op[5], op[7],
                                op[6], op[2], vm.config.warp_size)
        _SWAP[iop[0]](vm, w, iop)
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
    w._wr(op[3], v if type(v) is ndarray else op[5](v))
    w.pc = op[2]
    w.pending_cycles += op[6]


class _LaneOut:
    """One lane's output as a generic intrinsic row sees it: prints
    append to the lane's buffer, and the last line (what ``llvm.trap``
    reports) is the lane's own, else that of the highest lower lane with
    buffered output, else the team's — the order in which the scalar
    engines, running threads one after another, would have printed."""

    __slots__ = ("bufs", "ln", "team")

    def __init__(self, w, ln):
        self.bufs, self.ln, self.team = w.out, ln, w.stats.output

    def append(self, line):
        self.bufs[self.ln].append(line)

    def _last(self):
        for buf in reversed(self.bufs[: self.ln + 1]):
            if buf:
                return buf
        return self.team

    def __bool__(self):
        return bool(self._last())

    def __getitem__(self, i):
        return self._last()[i]


def _w_intrin(vm, w, op):
    # generic row: (h, "call", next, d, row, arg_slots, coerce, cost),
    # called once per active lane in lane order
    row, cost = op[4], op[7]
    args = [w.regs[a] for a in op[5]]
    name = w.frame.name
    results = []
    for ln in w._iter_bits(w.mask):
        w.error_lane = ln
        argv = [a[ln] if type(a) is ndarray else a for a in args]
        results.append((ln,) + row(vm, w.lanes[ln], name, _LaneOut(w, ln), argv))
    w.error_lane = None
    if any(extra for _, _, extra in results):
        w._flush()
        for ln, _, extra in results:
            w.cyc[ln] += cost + extra
            if w.fn_cycles is not None:
                w.fn_cycles[name] += cost + extra
    else:
        w.pending_cycles += cost
    first = results[0][1]
    if first is not None:
        coerce = op[6]
        if all(r == first for _, r, _ in results):
            w._wr(op[3], coerce(first))
        else:
            vals = [coerce(r) for _, r, _ in results]
            dtype = _F64 if isinstance(vals[0], float) else _U64
            w._wr_compact(op[3], np.array(vals, dtype))
    w.pc = op[2]


# ===================================================================
# Vectorizer
#
# Translation runs over the *decoded* op stream: each decoded op is
# mapped to its warp twin, keyed by the decoded handler's identity (the
# one decode-time dispatch decision the scalar engine already made).
# Most ops keep their tuple unchanged; loads and stores gain their
# gather/scatter dtypes and condbrs their reconvergence point and
# if-conversion arms.
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
        mask = ty.mask
        vmask = None if ty.bits == 64 else _U64(mask)

        def co_int(v):
            if type(v) is ndarray:
                if v.dtype == _F64:
                    v = np.trunc(v).astype(_I64).view(_U64)
                elif v.dtype != _U64:
                    v = v.astype(_U64)
                return v & vmask if vmask is not None else v
            return int(v) & mask

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


#: size -> (ndarray dtype, index shift) for vector gather/scatter.
_INT_DTYPES = {1: (np.uint8, 0), 2: (np.uint16, 1),
               4: (np.uint32, 2), 8: (_U64, 3)}
_FLT_DTYPES = {4: (np.float32, 2), 8: (_F64, 3)}

#: Decoded handler -> warp handler for ops whose tuple layout already
#: carries everything the warp handler needs: every generated simple op
#: and the hand-written non-simple ones.
_SWAP = {
    getattr(_dec, f"_h_{n}"): globals()[f"_w_{n}"] for n in _VECTOR_ROWS
}
_SWAP.update({
    _dec._h_alloca: _w_alloca, _dec._h_atomicrmw: _w_atomicrmw,
    _dec._h_jump: _w_jump, _dec._h_br1: _w_br1, _dec._h_brn: _w_brn,
    _dec._h_ret: _w_ret, _dec._h_unreachable: _w_unreachable,
    _dec._h_call: _w_call, _dec._h_call_rt: _w_call_rt,
    _dec._h_badcall: _w_badcall, _dec._h_raise: _w_raise,
    _dec._h_icall: _w_icall, _dec._h_barrier: _w_barrier,
    _dec._h_assume: _w_assume, _dec._h_expect: _w_expect,
    _dec._h_intrin: _w_intrin,
})


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
    d = _dec
    vops = []
    for pc, dop in enumerate(ops):
        h = dop[0]
        w_h = _SWAP.get(h)
        if w_h is not None:
            vops.append((w_h,) + dop[1:])
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


def bind_warp(vm, func) -> WarpFunction:
    """Vectorize *func* for *vm*; cached per device in ``vm._warp_cache``
    (layered on the decoded engine's ``vm._bound_cache``), never on the
    module: passes mutate functions in place, so a vectorization keyed
    on the function could outlive the IR it came from."""
    wf = vm._warp_cache.get(func)
    if wf is None:
        bound = bind_function(vm, func)
        flow = compute_warp_flow(
            bound.code, if_convert=getattr(vm, "warp_if_convert", True))
        wf = vm._warp_cache[func] = vectorize_function(bound, flow)
    return wf


def lane_occupancy(warps) -> float:
    """Lane-ops retired per lane dispatched over one team's *warps*:
    1.0 when every op ran on every lane of its warp."""
    slots = sum(w.dispatches * w.n for w in warps)
    if not slots:
        return 1.0
    return sum(int(w.steps_arr.sum()) for w in warps) / slots


def make_team_warps(vm, kernel, args, threads, stats) -> List[WarpExec]:
    """Partition one team's threads into warps and build their vector
    executors (launch arguments are uniform scalars)."""
    wf = bind_warp(vm, kernel)
    ws = vm.config.warp_size
    return [
        WarpExec(vm, wf, args, threads[i : i + ws], stats)
        for i in range(0, len(threads), ws)
    ]
