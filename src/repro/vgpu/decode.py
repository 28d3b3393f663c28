"""Pre-decoded execution engine.

Walking the IR on every execution would re-discover everything about
an instruction each time: an ``isinstance`` ladder to pick the
semantics, operand lookup through a per-frame dict keyed by
:class:`Value`, and the cycle cost recomputed from the cost model.  This
module does all of that once, in a ``decode(Function) ->
DecodedFunction`` pass:

* Basic blocks are flattened into one array of micro-ops per function;
  branch targets become absolute indices into that array.
* Every operand is resolved to an integer *slot* in a flat register
  file.  Constants, globals, undefs and function addresses are
  pre-filled into an ``init_regs`` template, so frame creation is a
  single ``list.copy()``.
* The handler for each op is bound at decode time through the opcode
  dispatch table (:data:`_EMITTERS` plus the per-kind handler
  functions below) and stored at ``op[0]`` — execution is one
  indirect call per instruction, no type tests.
* Static cycle costs (``CostModel.static_execute_cost``) are folded
  into the op tuples.  Only loads, stores and calls keep a runtime
  cost component.
* Phi nodes never execute: each CFG edge carries a pre-computed
  parallel-copy move list applied by the branch handlers.
* Basic blocks are *fused* on a function's first decoded execution:
  a block's simple ops (arithmetic, compares, select, ptradd, casts,
  loads, stores, pure intrinsics) and its branch become one generated
  function that executes them inline, with slots, masks, costs and
  branch targets as literals, and retires them in bulk (see "Fused
  runs" below).  Fused code is specialised to those literals: loads
  and stores find their segment with one lookup in the thread's
  segment table, and a sign extension from a literal width skips its
  arithmetic for the common non-negative value.  A single-entry cycle
  of such blocks is one generated ``while`` loop with its registers in
  locals (a *loop run*).  Each simple opcode is defined once, as a row of
  :data:`_TEMPLATES` shared by both engines: its scalar template
  yields the fused code and the per-op handler here, and the warp
  engine generates its handler from the same row (the scalar template
  for uniform operands, the row's NumPy vector template for varying
  ones).
* Every intrinsic is an entry of one name-keyed table,
  :data:`_INTRINSICS`, which both engines share for direct and
  indirect calls: a pure intrinsic is a :data:`_TEMPLATES` row,
  barriers/assume/expect have their own handlers, and every other
  intrinsic is a scalar *generic row* the warp engine calls once per
  active lane (see "Intrinsics" below).

Decoding is split in two stages.  The *static* stage
(:func:`decode_function`, with the fused op list :func:`_fuse` adds to
it) depends only on the function, the cost-model signature, the warp
size (which folds into ``gpu.warp_size``/``gpu.lane_id``) and the
sanitize mode.  On a frozen module (the compile cache shares one per
fingerprint) it is made once per such key and kept on the module
(:meth:`~repro.ir.module.Module.memo`), so every device of the module
reuses it.  A mutable module may be edited in place by passes, so each
device decodes its IR as it stands at first launch — the same moment
at which the device materialized the module's globals.  The *bind*
stage resolves global/function addresses for one device and is always
cached per :class:`VirtualGPU` (``vm._bound_cache``).  The bound code
of fused runs is shared process-wide, keyed by the run's own ops, so a
device that decodes a run some device already bound reuses that run
function.

Fused and per-op execution are bit-identical: a fused run charges the
same cycles and counts into the same :class:`TeamStats` fields as its
ops run one by one through their ``_h_*`` handlers.  A device with
``VirtualGPU._per_op`` set runs only those handlers (see
:func:`_frame_ops`); that per-op path is the reference the
differential tests pin the fused path and the warp engine to.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.memory.addrspace import OFFSET_MASK, AddressSpace
from repro.memory.layout import DATA_LAYOUT
from repro.memory.memmodel import MemoryError_, pack_f32_into, scalar_size
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
    Load,
    Phi,
    PtrAdd,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.intrinsics import MATH_BINARY, MATH_UNARY, intrinsic_info
from repro.trace.categories import OVERHEAD_CATEGORIES
from repro.ir.module import Function
from repro.ir.types import FloatType, IntType, I64
from repro.ir.values import Constant, GlobalVariable, UndefValue
from repro.vgpu.cost import CostModel
from repro.vgpu.errors import (
    SimulationError,
    assumption_error,
    attach_context,
    call_stack_overflow_error,
    division_by_zero_error,
    step_limit_error,
    trap_error,
    undefined_value_error,
    unreachable_error,
)
from repro.vgpu.execstate import (
    ThreadContext,
    ThreadStatus,
    atomic_apply,
    make_coerce,
)

_RUNNING = ThreadStatus.RUNNING
_AT_BARRIER = ThreadStatus.AT_BARRIER
_DONE = ThreadStatus.DONE

#: Address-space object per pointer tag, indexed by ``ptr >> 48``.
#: ``None`` marks the unused tag 2 so bad pointers fall into the slow
#: path, which raises the memory system's own error.
_SPACE_BY_TAG: Tuple[Optional[AddressSpace], ...] = (
    AddressSpace.GENERIC,
    AddressSpace.GLOBAL,
    None,
    AddressSpace.SHARED,
    AddressSpace.CONSTANT,
    AddressSpace.LOCAL,
)

_I64_TO_SIGNED = I64.to_signed


# ===================================================================
# Decoded program representation
# ===================================================================


class DecodedFunction:
    """Static (device-independent) decode result for one function."""

    __slots__ = (
        "function",
        "ops",
        "entry_pc",
        "num_slots",
        "arg_slots",
        "arg_coerce",
        "static_init",
        "global_fixups",
        "func_fixups",
        "block_starts",
        "fused",
    )

    def __init__(self, function: Function) -> None:
        self.function = function
        self.ops: List[tuple] = []
        self.entry_pc = 0
        self.num_slots = 0
        self.arg_slots: Tuple[int, ...] = ()
        self.arg_coerce: Tuple[Callable, ...] = ()
        #: Parallel ``(pcs, names)`` tuples mapping an op pc back to the
        #: basic block it was decoded from (crash-context recovery).
        self.block_starts: Tuple[Tuple[int, ...], Tuple[str, ...]] = ((), ())
        #: ``(slot, value)`` pairs for constants/undefs.
        self.static_init: List[Tuple[int, object]] = []
        #: ``(slot, GlobalVariable)`` resolved at bind time.
        self.global_fixups: List[Tuple[int, GlobalVariable]] = []
        #: ``(slot, Function)`` resolved at bind time.
        self.func_fixups: List[Tuple[int, Function]] = []
        #: ``ops`` with fused-run entries, built by :func:`_fuse` on
        #: first decoded execution (None until then).
        self.fused: Optional[List[tuple]] = None


class BoundFunction:
    """A :class:`DecodedFunction` bound to one device's address map."""

    __slots__ = ("code", "init_regs")

    def __init__(self, code: DecodedFunction, init_regs: List) -> None:
        self.code = code
        self.init_regs = init_regs


class DecodedFrame:
    """One activation record of the decoded engine."""

    __slots__ = ("ops", "regs", "pc", "ret_dest", "function")

    def __init__(
        self, ops: List[tuple], regs: List, pc: int, ret_dest: int, function: Function
    ) -> None:
        self.ops = ops
        self.regs = regs
        self.pc = pc
        self.ret_dest = ret_dest
        self.function = function


# ===================================================================
# Micro-op handlers
#
# Every handler has the signature ``handler(vm, thread, frame, op) ->
# cycles`` and is stored at ``op[0]``; ``op[1]`` is the opcode string
# the run loop counts, ``op[2]`` is the next pc (or branch target).
# The remaining layout is documented per handler.
# ===================================================================


def _block_name(vm, frame) -> Optional[str]:
    """Name of the basic block containing *frame*'s current pc.

    The decoded engine flattens blocks away; this reverses the mapping
    via the per-function ``block_starts`` table (every block emits at
    least its terminator, so start pcs are strictly increasing)."""
    bound = vm._bound_cache.get(frame.function)
    if bound is None:
        return None
    pcs, names = bound.code.block_starts
    if not pcs:
        return None
    i = bisect_right(pcs, frame.pc) - 1
    return names[i] if i >= 0 else None


def _segment(vm, thread, tag):
    """The segment pointer tag *tag* names for *thread*, entered in the
    thread's segment table (``thread.segs``) on first use; None for a
    tag that names no segment routes to the slow path, which raises the
    memory system's own error.  The only resolver: the load and store
    templates look the table up inline and call this on a miss."""
    seg = thread.segs.get(tag)
    if seg is not None:
        return seg
    if tag == 1 or tag == 0:
        seg = vm.memory.global_seg
    elif tag == 3:
        seg = vm.memory.shared_segment(thread.team_id)
    elif tag == 5:
        seg = thread.local_seg
        if seg is None:
            seg = thread.local_seg = vm.memory.local_segment(
                thread.team_id, thread.thread_id
            )
    elif tag == 4:
        seg = vm.memory.constant_seg
    else:
        return None
    thread.segs[tag] = seg
    return seg


# ===================================================================
# Simple micro-ops: one table row per opcode
#
# The straight-line opcodes (integer and float arithmetic, compares,
# select, ptradd, casts, loads, stores and the pure intrinsics) are
# defined exactly once, as a row of :data:`_TEMPLATES`, for both
# engines.  A row's *scalar* template is Python source instantiated
# twice here:
#
# * as the per-op handler ``_h_<name>(vm, thread, frame, op)``, whose
#   placeholders read the op tuple (``{a}`` -> ``r[op[4]]``,
#   ``{T.mask}`` -> ``op[6].mask``).  These keep the op-tuple layouts
#   below;
# * inline in a *fused run* (:func:`_fuse`), with register slots,
#   widths, masks, sign constants and cost tables folded into the
#   source as literals (``{a}`` -> ``r[12]``, ``{T.mask}`` ->
#   ``4294967295``).
#
# The warp engine (:mod:`repro.vgpu.warp`) generates its handler
# ``_w_<name>`` from the same row and reads the same op tuples: when
# every register operand is uniform it runs the scalar template, else
# the row's *vector* template.  Vector templates are NumPy source kept
# as strings (this module never imports NumPy).  Their register
# placeholders are lanes: an ndarray, or a uniform scalar that
# broadcasts.  They may use ``np``, the warp executor ``w``, ``vm``,
# the warp helpers ``_uu``/``_ff``/``_vv`` (lanes as uint64 / float64 /
# their own kind), ``_sext``/``_sv`` (uint64 / int64 lanes sign-extended
# from ``S``: the vector ``_sx``), ``_wrap`` (uint64 lanes wrapped to
# ``T``), ``_div0`` and ``_quot``, and ``{each}``: the scalar template
# run lane by lane, the exact fallback where NumPy would round or fail
# unlike Python.  Memory rows have no vector template: the warp engine
# gathers and scatters by hand.
#
# Op fields after ``(h, opcode, next)`` are named by the spec string.
# Lower-case names are register slots.  ``C`` is the static cycle cost,
# ``T``/``S`` the IntType to wrap to / to read as signed (``.mask``,
# ``.half``), ``W`` a bit width (or the warp size), ``N`` an access
# size, ``TY`` the accessed IR type, ``K`` the per-tag cost tuple, ``X``
# a struct pack/unpack, ``V`` a folded intrinsic result, ``F`` a math
# function and ``P`` its result coercion.  Memory templates have no
# ``C``: they leave their cost in ``k``.  Scalar templates may read
# ``vm``, ``thread``, the registers ``r``, the stats ``st`` and the
# thread's segment table ``segs``, and use the temporaries x, y, tag,
# off, seg, k and sv; vector templates x, y, z.
# ===================================================================


def _sx(v: str) -> str:
    """Template text reading *v* as signed under field ``S``: the
    format spec of ``{S:...}`` is *v*.  Per-op handlers and warp render
    the branch-free form of :meth:`IntType.to_signed` (:class:`_Src`);
    fused code, where the width is a literal, renders a range test that
    skips the arithmetic for the common non-negative value
    (:class:`_Lit`)."""
    return f"{{S:{v}}}"


def _mem(access: str, fast: str, fallback: str) -> str:
    """Template for a load/store: fast path on the segment the thread's
    segment table holds for the pointer's tag (:func:`_segment` fills
    it on a miss); null, unmapped and out-of-bounds pointers take the
    memory system's slow path, so errors are the memory system's own;
    a tag that names no segment never reaches the per-tag count (the
    slow path raises first, and a negative tag must not index).  A cost of None
    (space missing from the cost table) or 0 defers to the cost model,
    which raises its KeyError or returns the same 0."""
    return (
        "x = {p}\n"
        "tag = x >> 48\n"
        f"off = x & {OFFSET_MASK}\n"
        "seg = segs.get(tag) or _segment(vm, thread, tag)\n"
        "if seg is None or off == 0 or off + {N} > len(seg.data):\n"
        f"    {fallback}\n"
        "else:\n"
        f"    {fast}\n"
        f"st.{access}_tags[tag] += 1\n"
        f"k = {{K}}[tag] or vm.cost.{access}_cost(_SPACE_BY_TAG[tag])"
    )


def _vbool(test: str) -> str:
    """Vector template storing the bool lanes *test* as 0/1."""
    return f"{{d}} = ({test}).astype(_U64)"


_LOAD_SLOW = "{d} = vm.memory.load(x, {TY}, thread.team_id, thread.thread_id)"
_STORE_SLOW = "vm.memory.store(x, {v}, {TY}, thread.team_id, thread.thread_id)"
_DIV = "if y == 0:\n    raise division_by_zero_error()\n"
_SDIV = "x = _sv({a}, {S})\ny = _div0(w, _sv({b}, {S}))\nz = _quot(x, y)\n"
_CMP_U = "_uu({a}) %s _uu({b})"
_CMP_S = "_sv({a}, {S}) %s _sv({b}, {S})"
_CMP_F = "_ff({a}) %s _ff({b})"

#: name -> (op fields, counts a flop, scalar template, vector template
#: or None for memory rows); the handlers are ``_h_<name>`` and
#: ``warp._w_<name>``.
_TEMPLATES: Dict[str, Tuple[str, bool, str, Optional[str]]] = {
    "add": ("d a b T C", False, "{d} = ({a} + {b}) & {T.mask}",
            "{d} = _wrap(_uu({a}) + _uu({b}), {T})"),
    "sub": ("d a b T C", False, "{d} = ({a} - {b}) & {T.mask}",
            "{d} = _wrap(_uu({a}) - _uu({b}), {T})"),
    "mul": ("d a b T C", False, "{d} = ({a} * {b}) & {T.mask}",
            "{d} = _wrap(_uu({a}) * _uu({b}), {T})"),
    "and": ("d a b C", False, "{d} = {a} & {b}", "{d} = _uu({a}) & _uu({b})"),
    "or": ("d a b C", False, "{d} = {a} | {b}", "{d} = _uu({a}) | _uu({b})"),
    "xor": ("d a b C", False, "{d} = {a} ^ {b}", "{d} = _uu({a}) ^ _uu({b})"),
    "shl": ("d a b W T C", False, "{d} = ({a} << ({b} % {W})) & {T.mask}",
            "{d} = _wrap(_uu({a}) << (_uu({b}) % {W}), {T})"),
    "lshr": ("d a b W C", False, "{d} = {a} >> ({b} % {W})",
             "{d} = _uu({a}) >> (_uu({b}) % {W})"),
    "ashr": ("d a b W S T C", False,
             "{d} = (" + _sx("{a}") + " >> ({b} % {W})) & {T.mask}",
             "{d} = _wrap((_sv({a}, {S}) >> (_uu({b}) % {W}).astype(_I64))"
             ".view(_U64), {T})"),
    # float64 division rounds like Python's exact int / int only below
    # 2**53 (_quot returns None above it)
    "sdiv": ("d a b S T C", False,
             f"x = {_sx('{a}')}\ny = {_sx('{b}')}\n{_DIV}"
             "{d} = int(x / y) & {T.mask}",
             _SDIV + "{d} = {each} if z is None else _wrap(z.view(_U64), {T})"),
    "srem": ("d a b S T C", False,
             f"x = {_sx('{a}')}\ny = {_sx('{b}')}\n{_DIV}"
             "{d} = (x - int(x / y) * y) & {T.mask}",
             _SDIV + "{d} = {each} if z is None else _wrap((x - z * y).view(_U64), {T})"),
    "udiv": ("d a b C", False, "y = {b}\n" + _DIV + "{d} = {a} // y",
             "{d} = _uu({a}) // _div0(w, _uu({b}))"),
    "urem": ("d a b C", False, "y = {b}\n" + _DIV + "{d} = {a} % y",
             "{d} = _uu({a}) % _div0(w, _uu({b}))"),
    "fadd": ("d a b C", True, "{d} = {a} + {b}", "{d} = _ff({a}) + _ff({b})"),
    "fsub": ("d a b C", True, "{d} = {a} - {b}", "{d} = _ff({a}) - _ff({b})"),
    "fmul": ("d a b C", True, "{d} = {a} * {b}", "{d} = _ff({a}) * _ff({b})"),
    "fdiv": ("d a b C", True,
             "x = {a}\ny = {b}\n"
             "if y == 0.0:\n    {d} = _INF if x > 0 else _NINF if x < 0 else _NAN\n"
             "else:\n    {d} = x / y",
             "x = _ff({a})\ny = _ff({b})\n{d} = x / y\n"
             "if np.count_nonzero(y == 0.0):\n"
             "    {d} = np.where(y == 0.0, np.where(x > 0, _INF, np.where("
             "x < 0, _NINF, _NAN)), {d})"),
    # math.fmod raises on an infinite x; np.fmod does not
    "frem": ("d a b C", True,
             "x = {a}\ny = {b}\n{d} = _fmod(x, y) if y != 0.0 else _NAN",
             "x = _ff({a})\ny = _ff({b})\n{d} = {each} if np.count_nonzero(np.isinf(x)) "
             "else np.where(y == 0.0, _NAN, np.fmod(x, y))"),
    # icmp: unsigned predicates, and signed ones on pointer operands
    # (to_signed applies to IntType operands only)
    "icmp_eq": ("d a b C", False, "{d} = 1 if {a} == {b} else 0", _vbool(_CMP_U % "==")),
    "icmp_ne": ("d a b C", False, "{d} = 1 if {a} != {b} else 0", _vbool(_CMP_U % "!=")),
    "icmp_lt": ("d a b C", False, "{d} = 1 if {a} < {b} else 0", _vbool(_CMP_U % "<")),
    "icmp_le": ("d a b C", False, "{d} = 1 if {a} <= {b} else 0", _vbool(_CMP_U % "<=")),
    "icmp_gt": ("d a b C", False, "{d} = 1 if {a} > {b} else 0", _vbool(_CMP_U % ">")),
    "icmp_ge": ("d a b C", False, "{d} = 1 if {a} >= {b} else 0", _vbool(_CMP_U % ">=")),
    "icmp_slt": ("d a b S C", False,
                 f"{{d}} = 1 if {_sx('{a}')} < {_sx('{b}')} else 0", _vbool(_CMP_S % "<")),
    "icmp_sle": ("d a b S C", False,
                 f"{{d}} = 1 if {_sx('{a}')} <= {_sx('{b}')} else 0", _vbool(_CMP_S % "<=")),
    "icmp_sgt": ("d a b S C", False,
                 f"{{d}} = 1 if {_sx('{a}')} > {_sx('{b}')} else 0", _vbool(_CMP_S % ">")),
    "icmp_sge": ("d a b S C", False,
                 f"{{d}} = 1 if {_sx('{a}')} >= {_sx('{b}')} else 0", _vbool(_CMP_S % ">=")),
    # fcmp: ordered comparisons are naturally false on NaN, except
    # "one", which gets a guard
    "fcmp_oeq": ("d a b C", False, "{d} = 1 if {a} == {b} else 0", _vbool(_CMP_F % "==")),
    "fcmp_one": ("d a b C", False,
                 "x = {a}\ny = {b}\n{d} = 1 if (x == x and y == y and x != y) else 0",
                 "x = _ff({a})\ny = _ff({b})\n" + _vbool("(x == x) & (y == y) & (x != y)")),
    "fcmp_olt": ("d a b C", False, "{d} = 1 if {a} < {b} else 0", _vbool(_CMP_F % "<")),
    "fcmp_ole": ("d a b C", False, "{d} = 1 if {a} <= {b} else 0", _vbool(_CMP_F % "<=")),
    "fcmp_ogt": ("d a b C", False, "{d} = 1 if {a} > {b} else 0", _vbool(_CMP_F % ">")),
    "fcmp_oge": ("d a b C", False, "{d} = 1 if {a} >= {b} else 0", _vbool(_CMP_F % ">=")),
    "select": ("d q t f C", False, "{d} = {t} if {q} else {f}",
               "{d} = np.where({q}, _vv({t}), _vv({f}))"),
    "ptradd": ("d p s S C", False, "{d} = {p} + " + _sx("{s}"),
               "{d} = _uu({p}) + _sext({s}, {S})"),
    # casts; copy serves ptrtoint/inttoptr/bitcast, tofloat fpext/fptrunc
    "zext": ("d s C", False, "{d} = int({s})", "{d} = {s}"),
    "copy": ("d s C", False, "{d} = {s}", "{d} = {s}"),
    "sext": ("d s S T C", False, "{d} = " + _sx("int({s})") + " & {T.mask}",
             "{d} = _wrap(_sext({s}, {S}), {T})"),
    "trunc": ("d s T C", False, "{d} = int({s}) & {T.mask}", "{d} = _wrap({s}, {T})"),
    "sitofp": ("d s S C", False, "{d} = float(" + _sx("int({s})") + ")",
               "{d} = _sv({s}, {S}).astype(_F64)"),
    "uitofp": ("d s C", False, "{d} = float(int({s}))", "{d} = {s}.astype(_F64)"),
    # int64 holds a truncated float only below 2**63 (a NaN max fails
    # the test and int() raises, like the decoded engine)
    "fptosi": ("d s T C", False, "{d} = int(float({s})) & {T.mask}",
               "{d} = _wrap(np.trunc({s}).astype(_I64).view(_U64), {T}) "
               "if np.abs({s}).max() < 2.0 ** 63 else {each}"),
    "tofloat": ("d s C", False, "{d} = float({s})", "{d} = {s}.astype(_F64, copy=False)"),
    # loads of ints/pointers and floats
    "load_int": ("d p N TY K", False, _mem(
        "load", "{d} = int.from_bytes(seg.data[off : off + {N}], 'little')",
        _LOAD_SLOW), None),
    "load_f": ("d p N TY K X", False, _mem(
        "load", "{d} = {X}(seg.data, off)[0]", _LOAD_SLOW), None),
    # stores of ints, pointers and floats
    "store_int": ("p v N TY K T", False, _mem(
        "store",
        "seg.data[off : off + {N}] = (int({v}) & {T.mask}).to_bytes({N}, 'little')",
        _STORE_SLOW), None),
    "store_ptr": ("p v N TY K", False, _mem(
        "store", "seg.data[off : off + {N}] = int({v}).to_bytes({N}, 'little')",
        _STORE_SLOW), None),
    "store_f": ("p v N TY K X", False, _mem(
        "store", "{X}(seg.data, off, float({v}))", _STORE_SLOW), None),
    # pure intrinsics (opcode "call"); const_result is gpu.warp_size.
    # Without register operands, the vector template is every lane's value.
    "thread_id": ("d C", False, "{d} = thread.thread_id", "{d} = w.tid_arr"),
    "block_id": ("d C", False, "{d} = thread.team_id", "{d} = w.team_id"),
    "block_dim": ("d C", False, "{d} = vm._launch.threads_per_team",
                  "{d} = vm._launch.threads_per_team"),
    "grid_dim": ("d C", False, "{d} = vm._launch.num_teams", "{d} = vm._launch.num_teams"),
    "const_result": ("d V C", False, "{d} = {V}", "{d} = {V}"),
    "lane_id": ("d W C", False, "{d} = thread.thread_id % {W}", "{d} = w.lane_arr"),
    "math1": ("d a F P C", True, "{d} = {P}({F}(float({a})))", "{d} = {each}"),
    "math2": ("d a b F P C", True, "{d} = {P}({F}(float({a}), float({b})))",
              "{d} = {each}"),
}

_INF, _NINF, _NAN = float("inf"), float("-inf"), float("nan")
_fmod = math.fmod


class _Spec:
    """How to instantiate one template for a given op tuple."""

    __slots__ = ("fields", "flop", "template", "vector", "cost")

    def __init__(self, fields: str, flop: bool, template: str,
                 vector: Optional[str]) -> None:
        self.fields = tuple(fields.split())
        self.flop = flop
        self.template = template
        self.vector = vector
        #: op index of the static cost ``C``; None for memory ops.
        self.cost = 3 + self.fields.index("C") if "C" in self.fields else None

    def render(self, op, reg: Callable, const: Callable,
               template: Optional[str] = None, **extra: str) -> str:
        """*template* (default: the scalar one) for *op*: field ``i``
        renders as ``reg(i, op[i])`` for registers and
        ``const(i, op[i])`` for everything else; *extra* fills any
        other placeholder."""
        return (template or self.template).format(**{
            f: (reg if f.islower() else const)(i, op[i])
            for i, f in enumerate(self.fields, 3)
        }, **extra)


class _Src:
    """Format proxy rendering as source text; attributes extend it
    (``{T.mask}`` on ``_Src('op[6]')`` renders ``op[6].mask``), and a
    format spec *v* (``{S:v}``, see :func:`_sx`) renders *v* read as
    signed under this IntType, branch-free."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __format__(self, spec: str) -> str:
        if spec:
            t = self.text
            return f"((({spec} + {t}.half) & {t}.mask) - {t}.half)"
        return self.text

    def __getattr__(self, name: str) -> "_Src":
        return _Src(f"{self.text}.{name}")


def _per_op_source(name: str, spec: _Spec) -> str:
    body = spec.render(
        range(len(spec.fields) + 3),
        lambda i, _: f"r[op[{i}]]",
        lambda i, _: _Src(f"op[{i}]"),
    )
    lines = [f"def _h_{name}(vm, thread, frame, op):", "    r = frame.regs"]
    if spec.cost is None:  # loads and stores
        lines += ["    st = thread.stats", "    segs = thread.segs"]
    lines += ["    " + line for line in body.splitlines()]
    if spec.flop:  # only once the op succeeds, like a fused run
        lines.append("    thread.stats.flops += 1")
    lines.append("    frame.pc = op[2]")
    lines.append(f"    return {'k' if spec.cost is None else f'op[{spec.cost}]'}")
    return "\n".join(lines)


_SPECS = {name: _Spec(*t) for name, t in _TEMPLATES.items()}
exec(
    compile(
        "\n\n".join(_per_op_source(n, spec) for n, spec in _SPECS.items()),
        "<repro.vgpu.decode per-op handlers>",
        "exec",
    ),
    globals(),
)

#: Per-op handler -> its template spec: the ops a fused run executes
#: inline before its terminator (see :func:`_fuse`).
_SIMPLE: Dict[Callable, _Spec] = {
    globals()[f"_h_{n}"]: spec for n, spec in _SPECS.items()
}


# ===================================================================
# Fused runs
#
# A fused run covers one basic block: a maximal sequence of simple ops
# plus the block's ``br``/``condbr`` terminator.  It stops short of any
# call, alloca, atomic, ``ret``/``unreachable`` or — in sanitize mode,
# whose loads/stores decode to the ``_slow`` handlers — memory access,
# and the op after such an op starts the next run.  Each run becomes one
# generated function ``run(vm, thread, frame) -> cycles`` that executes
# its ops inline, applies the taken edge's phi moves as one tuple
# parallel copy (``r[4], r[5] = r[5], r[4]``) and sets ``frame.pc`` to
# the branch target (or to the op after the run).  A block without
# calls is thus one dispatch.  Entry is only ever at the run's first
# op: branch targets are block starts and calls return to the op after
# the call, where the next run starts.  Fused code is specialised to
# the literals it is rendered with: a load or store finds its segment
# with one lookup in the thread's segment table, and a sign extension
# from a literal width tests the value's range before doing any
# arithmetic (see :func:`_sx`).
#
# Loop runs go one level up.  Each strongly connected set of
# *whole-block* runs (runs that include their terminator) with a single
# entry block, of at most ``_MAX_LOOP_BLOCKS`` blocks and
# ``_MAX_LOOP_OPS`` ops, becomes one generated function
# ``loop(vm, thread, frame, budget) -> (steps, cycles)``: a ``while``
# over its blocks in which every register slot the loop touches is a
# local (``r12``), loaded on entry, with the written ones stored back
# on every exit, and phi moves are local tuple assignments.  Each block
# first checks the step budget and leaves before a block that would
# cross it, so the run loop executes that block per op.  Hit counters
# per block are locals, folded into ``TeamStats.run_hits`` on exit
# under each block's own :class:`_RunCounts`.  A set that fails the
# tests is searched again without its entry blocks, for inner loops.
# The loop entry replaces the header block's run entry and reads like
# it (its count, stop pc and first op are the header block's), so the
# run loop's budget test and per-op fallback need nothing new.
#
# A run counts nothing per op.  Its opcode histogram and flop count are
# static (a :class:`_RunCounts`, the entry's last field); the run loop
# retires the run's steps at once and bumps one hit per executed run in
# ``TeamStats.run_hits``, and ``TeamStats.settle`` folds hits x counts
# into ``opcode_counts`` and ``flops`` when the team ends, by an
# exception too.  Loads and stores still count their pointer's tag
# inline, into ``TeamStats.load_tags``/``store_tags``, which ``settle``
# folds into the counts by address space.
#
# Code is generated lazily, on a function's first decoded execution
# (never for warp launches), and bound once per process: the cache is
# keyed by the run's own content — its ops and where its simple ops
# stop — never by the Function (passes mutate IR in place).  A run's
# ops hold only slot numbers, widths, branch targets, costs, phi moves,
# IR types and module-level callables (struct pack/unpack, math
# functions), all compared by value, so two devices that decode equal
# runs — a second cache-hit copy of a module, say — share one bound
# run function.  That is safe because a run function closes over op
# constants only, never over a device, and IR constants live in
# registers, not in the code.  Only the first device to meet a run
# renders its source (literals inline, every other constant a closure
# argument of the factory) and compiles it.  A loop is keyed and
# shared the same way, by its block starts and its blocks' ops.
# ===================================================================


#: Longer runs are split: each run compiles on its own, and the
#: parser's transient memory grows with the source.
_MAX_RUN = 64

#: The most blocks and ops one loop run covers, for the same reason.
_MAX_LOOP_BLOCKS = 16
_MAX_LOOP_OPS = 512

#: Content key -> bound code of a run (:func:`_compile_run`) or a loop
#: (:func:`_compile_loop`).  Bounded, oldest entry first out: a
#: long-lived service sees ever new programs, while all 24 app x build
#: cells together need 681 runs and 27 loops.
_FUSED_MAKERS: Dict[tuple, tuple] = {}
_FUSED_CACHE_SIZE = 4096

_LITERALS = (int, type(None))


class _RunCounts:
    """Static counts of a fused run: ``opcodes`` (``((opcode, n), ...)``)
    and ``flops``.  Hashed by identity, it keys ``TeamStats.run_hits``."""

    __slots__ = ("opcodes", "flops")

    def __init__(self, opcodes: Tuple[Tuple[str, int], ...], flops: int) -> None:
        self.opcodes = opcodes
        self.flops = flops


class _Lit:
    """Format proxy for fused runs: ints, None and tuples of them render
    as literals; anything else as a closure name from *names*.  A format
    spec *v* on an IntType (``{S:v}``, see :func:`_sx`) renders *v* read
    as signed, exact for every value: ``v`` itself when ``0 <= v <
    half`` (never for i1, whose half is 0), else the branch-free
    arithmetic."""

    __slots__ = ("value", "names")

    def __init__(self, value, names: Dict) -> None:
        self.value = value
        self.names = names

    def __format__(self, spec: str) -> str:
        v = self.value
        if spec:
            h, m = v.half, v.mask
            # an operand that is a call (``int(r[3])``) is evaluated once
            x, bind = ("sv", f"(sv := {spec})") if "(" in spec else (spec, spec)
            return f"({x} if 0 <= {bind} < {h} else ((({x} + {h}) & {m}) - {h}))"
        if type(v) in _LITERALS or (
            type(v) is tuple and all(type(e) in _LITERALS for e in v)
        ):
            return repr(v)
        return self.names.setdefault(v, f"_k{len(self.names)}")

    def __getattr__(self, name: str) -> "_Lit":
        return _Lit(getattr(self.value, name), self.names)


def _fuse(code: DecodedFunction) -> List[tuple]:
    """Build (once per decoded function) the op list decoded frames run:
    ``code.ops`` with each run's first op replaced by the run entry
    ``(None, n, run_fn, stop_pc, first_op, op_first_lines, counts)``, where
    *stop_pc* is the pc at which the run's simple ops end (its
    terminator, or the op after the run), and each loop's header by the
    loop entry ``(None, n, loop_fn, stop_pc, first_op, blocks, None)``:
    n, *stop_pc* and *first_op* of the header block's run, and *blocks*
    what :func:`_unwind_run` needs of each block, in the order of the
    loop's hit counters ``h0, h1, ...``: ``(start pc, the line on which
    each simple op's code starts, its _RunCounts)``."""
    ops = code.ops
    fused = list(ops)
    starts = set(code.block_starts[0])
    runs = []
    blocks: Dict[int, int] = {}  # whole-block runs: start pc -> end pc
    start = 0
    for pc, op in enumerate(ops):  # every block ends in a terminator
        if op[0] in _SIMPLE:
            continue
        end = pc + 1 if op[0] in _TERMINATORS else pc
        if end > pc and start in starts and end - start <= _MAX_RUN:
            blocks[start] = end
        runs += [(a, min(end, a + _MAX_RUN), pc) for a in range(start, end, _MAX_RUN)]
        start = pc + 1
    for header, others in _loops(code, blocks):
        loop_starts = (header, *others)
        fused[header] = _compile_loop(
            loop_starts, tuple(tuple(ops[s:blocks[s]]) for s in loop_starts))
    for a, b, pc in runs:
        if fused[a] is ops[a]:  # not a loop header
            fused[a] = _compile_run(tuple(ops[a:b]), min(b, pc))
    code.fused = fused
    return fused


def _loops(code: DecodedFunction, blocks: Dict[int, int]) -> List[Tuple[int, List[int]]]:
    """``(header, other block starts)`` of each loop run of *code*: a
    strongly connected set of the whole-block runs *blocks* (start pc
    -> end pc) with a single entry block, within the caps.  A set that
    fails is searched again without its entry blocks."""
    ops = code.ops
    pcs = code.block_starts[0]
    preds: Dict[int, List[int]] = {code.entry_pc: [-1]}  # -1: the caller
    succ: Dict[int, List[int]] = {}
    for start, end in zip(pcs, pcs[1:] + (len(ops),)):
        term = ops[end - 1]
        if term[0] in _TERMINATORS:
            targets = [t for t, _ in _TERMINATORS[term[0]][0](term)]
            for t in targets:
                preds.setdefault(t, []).append(start)
            if start in blocks:
                succ[start] = targets
    found = []
    todo = [set(blocks)]
    while todo:
        for scc in _sccs(todo.pop(), succ):
            if len(scc) == 1 and scc[0] not in succ[scc[0]]:
                continue  # no cycle
            members = set(scc)
            entries = {b for b in scc if any(p not in members for p in preds[b])}
            if (len(entries) == 1 and len(scc) <= _MAX_LOOP_BLOCKS
                    and sum(blocks[b] - b for b in scc) <= _MAX_LOOP_OPS):
                found.append((min(entries), sorted(members - entries)))
            elif entries:
                todo.append(members - entries)
    return found


def _sccs(nodes: set, succ: Dict[int, List[int]]) -> List[List[int]]:
    """Strongly connected components of the graph *succ* restricted to
    *nodes* (Tarjan's algorithm, iterative)."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack = set()
    out = []
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in nodes:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    i = stack.index(v)
                    out.append(stack[i:])
                    on_stack.difference_update(stack[i:])
                    del stack[i:]
    return out


def _cached(key: tuple, make: Callable[[], tuple]) -> tuple:
    """The bound code cached under the content *key*, made by *make* on
    a miss: then the oldest entry goes if the cache is full."""
    cached = _FUSED_MAKERS.get(key)
    if cached is None:
        cached = make()
        if len(_FUSED_MAKERS) >= _FUSED_CACHE_SIZE:
            del _FUSED_MAKERS[next(iter(_FUSED_MAKERS))]
        _FUSED_MAKERS[key] = cached
    return cached


def _compile_run(run_ops: Tuple[tuple, ...], stop: int) -> tuple:
    """Generate, compile and bind one fused run, once per process per
    content: its ``_fuse`` entry.

    The cache key is ``(stop, run_ops)`` itself; on a hit nothing is
    rendered or compiled.  Runs compile one by one: compiling a whole
    function's runs as one source costs tens of MB of transient parser
    memory on the larger apps."""
    run, first, run_counts = _cached((stop, run_ops), lambda: _bind_run(run_ops))
    return (None, len(run_ops), run, stop, run_ops[0], first, run_counts)


def _compile_loop(starts: Tuple[int, ...], blocks: Tuple[Tuple[tuple, ...], ...]) -> tuple:
    """Generate, compile and bind one loop run — the blocks starting at
    *starts*, header first, with their ops *blocks* — once per process
    per content (the key ``(starts, blocks)``): its ``_fuse`` entry."""
    loop, info = _cached((starts, blocks), lambda: _bind_loop(starts, blocks))
    head = blocks[0]
    return (None, len(head), loop, starts[0] + len(head) - 1, head[0], info, None)


def _touches_memory(ops: Tuple[tuple, ...]) -> bool:
    """Whether *ops* hold a load or store (templates without a cost)."""
    return any(op[0] in _SIMPLE and _SIMPLE[op[0]].cost is None for op in ops)


def _render_block(ops: Tuple[tuple, ...], reg: Callable, names: Dict, indent: str,
                  lines: List[str]) -> tuple:
    """Append to *lines* the inline code of the simple ops of the run
    *ops*, registers rendered by *reg*: ``(the line on which each simple
    op's code starts, the static cycles of *ops*, their _RunCounts, the
    terminator or None)``."""
    first = []
    static = flops = 0
    counts: Dict[str, int] = {}
    const = lambda i, value: _Lit(value, names)
    term = None
    for op in ops:
        counts[op[1]] = counts.get(op[1], 0) + 1
        spec = _SIMPLE.get(op[0])
        if spec is None:  # the block's terminator, always last
            term = op
            static += op[_TERMINATORS[op[0]][1]]
            break
        first.append(len(lines) + 1)
        lines += [indent + s for s in spec.render(op, reg, const).splitlines()]
        if spec.cost is None:
            lines.append(indent + "c += k")
        else:
            static += op[spec.cost]
        flops += spec.flop
    return tuple(first), static, _RunCounts(tuple(counts.items()), flops), term


def _branch(term: tuple, reg: Callable, indent: str, jump: Callable) -> List[str]:
    """Source lines of the terminator *term*: the taken edge's phi moves
    as one parallel copy, then the lines ``jump(target)``."""
    edges = _TERMINATORS[term[0]][0](term)
    if len(edges) == 1:
        return _edge(*edges[0], reg, indent, jump)
    (t, t_moves), (f, f_moves) = edges
    inner = indent + "    "
    return ([f"{indent}if {reg(3, term[3])}:"] + _edge(t, t_moves, reg, inner, jump)
            + [f"{indent}else:"] + _edge(f, f_moves, reg, inner, jump))


def _edge(target: int, moves, reg: Callable, indent: str, jump: Callable) -> List[str]:
    """Source lines taking one CFG edge: its phi moves as one parallel
    copy, then the jump."""
    lines = []
    if moves:
        dests = ", ".join(reg(0, d) for d, _ in moves)
        srcs = ", ".join(reg(0, s) for _, s in moves)
        lines.append(f"{indent}{dests} = {srcs}")
    return lines + [indent + s for s in jump(target)]


def _define(lines: List[str], names: Dict):
    """Compile the factory whose body is *lines* (``lines[0]`` is left
    for its def line) and call it on the closure constants *names*."""
    lines[0] = f"def _make({', '.join(names.values())}):"
    ns: Dict = {}
    exec(compile("\n".join(lines), "<repro.vgpu.decode fused run>", "exec"),
         globals(), ns)
    return ns["_make"](*names)


def _bind_run(run_ops: Tuple[tuple, ...]) -> tuple:
    """Render and compile *run_ops*: ``(run function, first lines,
    counts)``."""
    names: Dict = {}
    lines = [None, "    def run(vm, thread, frame):", "        r = frame.regs"]
    if _touches_memory(run_ops):
        lines += ["        st = thread.stats", "        segs = thread.segs"]
    lines.append("        c = 0")
    reg = lambda i, slot: f"r[{slot}]"
    first, static, counts, term = _render_block(run_ops, reg, names, "        ", lines)
    if term is None:
        lines.append(f"        frame.pc = {run_ops[-1][2]}")
    else:
        lines += _branch(term, reg, "        ", lambda t: [f"frame.pc = {t}"])
    lines += [f"        return c + {static}", "    return run"]
    return _define(lines, names), first, counts


def _bind_loop(starts: Tuple[int, ...], blocks: Tuple[Tuple[tuple, ...], ...]) -> tuple:
    """Render and compile the loop run over *blocks* (see "Loop runs"
    above): ``(loop function, (start, first lines, counts) per
    block)``."""
    read, written = set(), set()
    for ops in blocks:
        *simple, term = ops
        for op in simple:
            for i, f in enumerate(_SIMPLE[op[0]].fields, 3):
                if f.islower():
                    (written if f == "d" else read).add(op[i])
        edges = _TERMINATORS[term[0]][0](term)
        if len(edges) == 2:
            read.add(term[3])
        for _, moves in edges:
            written.update(d for d, _ in moves)
            read.update(s for _, s in moves)
    names: Dict = {}
    reg = lambda i, slot: f"r{slot}"
    lines = [None, "    def loop(vm, thread, frame, budget):", "        r = frame.regs",
             "        st = thread.stats"]
    if any(_touches_memory(ops) for ops in blocks):
        lines.append("        segs = thread.segs")
    lines += [f"        r{s} = r[{s}]" for s in sorted(read | written)]
    hits = [f"h{i}" for i in range(len(blocks))]
    lines += [f"        s = c = {' = '.join(hits)} = 0", f"        pc = {starts[0]}",
              "        while True:"]
    inside = set(starts)
    single = len(blocks) == 1

    def jump(target):
        if target not in inside:
            return [f"pc = {target}", "break"]
        return ["continue"] if single else [f"pc = {target}"]

    info = []
    for i, (start, ops) in enumerate(zip(starts, blocks)):
        indent = "            "
        if not single:
            test = "else" if i == len(blocks) - 1 else f"{'el' if i else ''}if pc == {start}"
            lines.append(f"{indent}{test}:")
            indent += "    "
        lines += [f"{indent}if s + {len(ops)} > budget:", f"{indent}    break"]
        first, static, counts, term = _render_block(ops, reg, names, indent, lines)
        lines += [f"{indent}c += {static}", f"{indent}s += {len(ops)}",
                  f"{indent}h{i} += 1"]
        lines += _branch(term, reg, indent, jump)
        info.append((start, first, counts))
    lines += [f"        r[{s}] = r{s}" for s in sorted(written)]
    lines += ["        frame.pc = pc", "        hits = st.run_hits"]
    for i, (_, _, counts) in enumerate(info):
        k = format(_Lit(counts, names))
        lines += [f"        if h{i}:", f"            hits[{k}] = hits.get({k}, 0) + h{i}"]
    lines += ["        return s, c", "    return loop"]
    return _define(lines, names), tuple(info)


def _unwind_run(vm, thread, frame, exc: BaseException) -> Tuple[int, int]:
    """``(steps, cycles)`` a fault inside a fused run or loop leaves
    behind.

    Per-op execution would have retired and counted every op up to and
    including the faulting one, counted the flops and charged the
    cycles of the ops before it and left ``frame.pc`` on it.  Only
    simple ops fault (a run's terminator cannot), and the faulting op is
    recovered from the line number of the run's frame in the traceback,
    so the hot path pays nothing for this.  A loop's frame also gives
    the block it was in (``pc``), the steps and cycles of the blocks it
    completed (``s``, ``c``) and their hits, folded in here.  Returns
    ``(0, 0)`` when *exc* did not come from fused code."""
    entry = frame.ops[frame.pc]
    if entry[0] is not None:
        return 0, 0
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code is not entry[2].__code__:
        tb = tb.tb_next
    if tb is None:  # raised by the per-op fallback through this run
        return 0, 0
    local = tb.tb_frame.f_locals
    cycles = local["c"]
    stats = thread.stats
    retired, first = 0, entry[5]
    if entry[6] is None:  # a loop run
        retired = local["s"]
        hits = stats.run_hits
        for i, (_, _, counts) in enumerate(entry[5]):
            n = local[f"h{i}"]
            if n:
                hits[counts] = hits.get(counts, 0) + n
        frame.pc = local["pc"]
        first = next(f for start, f, _ in entry[5] if start == frame.pc)
    k = bisect_right(first, tb.tb_lineno) - 1
    ops = vm._bound_cache[frame.function].code.ops
    for op in ops[frame.pc : frame.pc + k]:
        spec = _SIMPLE[op[0]]
        stats.opcode_counts[op[1]] += 1
        stats.flops += spec.flop
        if spec.cost is not None:
            cycles += op[spec.cost]
    stats.opcode_counts[ops[frame.pc + k][1]] += 1
    frame.pc += k
    return retired + k + 1, cycles


# -- alloca: (h, "alloca", next, dest, size, align, cost) --


def _h_alloca(vm, thread, frame, op):
    seg = thread.local_seg
    if seg is None:
        seg = thread.local_seg = vm.memory.local_segment(
            thread.team_id, thread.thread_id
        )
    frame.regs[op[3]] = seg.allocate(op[4], op[5])
    frame.pc = op[2]
    return op[6]


# -- sanitize-mode memory access, same op layouts as the load/store
#    templates: load (h, "load", next, dest, ptr, size, ty, costs[, unpack]);
#    store (h, "store", next, ptr, val, size, ty, costs[, extra]) --


def _h_load_slow(vm, thread, frame, op):
    """Sanitize-mode load (same op layout as the fast handlers): every
    access routes through ``MemorySystem.load`` so the shadow-memory
    checks see it; stats and cycle accounting are bit-identical."""
    regs = frame.regs
    ptr = regs[op[4]]
    tag = ptr >> 48
    regs[op[3]] = vm.memory.load(ptr, op[6], thread.team_id, thread.thread_id)
    thread.stats.load_tags[tag] += 1
    frame.pc = op[2]
    c = op[7][tag]
    if c is None:
        c = vm.cost.load_cost(_SPACE_BY_TAG[tag])
    return c


def _h_store_slow(vm, thread, frame, op):
    """Sanitize-mode store twin of :func:`_h_load_slow`."""
    regs = frame.regs
    ptr = regs[op[3]]
    tag = ptr >> 48
    vm.memory.store(ptr, regs[op[4]], op[6], thread.team_id, thread.thread_id)
    thread.stats.store_tags[tag] += 1
    frame.pc = op[2]
    c = op[7][tag]
    if c is None:
        c = vm.cost.store_cost(_SPACE_BY_TAG[tag])
    return c


# -- atomicrmw: (h, "atomicrmw", next, dest, ptr, val, opstr, ty, cost) --


def _h_atomicrmw(vm, thread, frame, op):
    regs = frame.regs
    ptr = int(regs[op[4]])
    ty = op[7]
    team, tid = thread.team_id, thread.thread_id
    memory = vm.memory
    old = memory.load(ptr, ty, team, tid)
    memory.store(ptr, atomic_apply(op[6], old, regs[op[5]], ty), ty, team, tid)
    regs[op[3]] = old
    frame.pc = op[2]
    return op[8]


# -- branches; phi moves are parallel copies ((dest, src), ...) --


def _h_jump(vm, thread, frame, op):
    # (h, "br", target, cost)
    frame.pc = op[2]
    return op[3]


def _h_br1(vm, thread, frame, op):
    # single phi move: (h, "br", target, dest, src, cost)
    regs = frame.regs
    regs[op[3]] = regs[op[4]]
    frame.pc = op[2]
    return op[5]


def _h_brn(vm, thread, frame, op):
    # (h, "br", target, moves, cost)
    regs = frame.regs
    moves = op[3]
    staged = [regs[s] for _, s in moves]
    for (d, _), v in zip(moves, staged):
        regs[d] = v
    frame.pc = op[2]
    return op[4]


def _h_condbr(vm, thread, frame, op):
    # (h, "condbr", 0, cond, true_pc, true_moves, false_pc, false_moves, cost)
    regs = frame.regs
    if regs[op[3]]:
        pc, moves = op[4], op[5]
    else:
        pc, moves = op[6], op[7]
    if moves:
        staged = [regs[s] for _, s in moves]
        for (d, _), v in zip(moves, staged):
            regs[d] = v
    frame.pc = pc
    return op[8]


#: Terminator handler -> (op -> its ``(target, moves)`` edges, taken one
#: first; op index of its cost).  Fused runs inline these.
_TERMINATORS: Dict[Callable, Tuple[Callable, int]] = {
    _h_jump: (lambda op: ((op[2], ()),), 3),
    _h_br1: (lambda op: ((op[2], ((op[3], op[4]),)),), 5),
    _h_brn: (lambda op: ((op[2], op[3]),), 4),
    _h_condbr: (lambda op: ((op[4], op[5]), (op[6], op[7])), 8),
}


# -- ret/unreachable --


def _h_ret(vm, thread, frame, op):
    # (h, "ret", 0, value_slot_or_-1)
    frames = thread.frames
    frames.pop()
    if not frames:
        thread.status = _DONE
        return 0
    v = op[3]
    if v >= 0:
        frames[-1].regs[frame.ret_dest] = frame.regs[v]
    return 0


def _h_unreachable(vm, thread, frame, op):
    raise unreachable_error(frame.function.name, thread)


# -- calls --


def _push_call(vm, thread, frame, next_pc, dest, callee, arg_slots):
    bound = vm._bound_cache.get(callee)
    if bound is None:
        bound = bind_function(vm, callee)
    code = bound.code
    nregs = bound.init_regs.copy()
    regs = frame.regs
    for slot, co, a in zip(code.arg_slots, code.arg_coerce, arg_slots):
        nregs[slot] = co(regs[a])
    frame.pc = next_pc
    frames = thread.frames
    frames.append(DecodedFrame(_frame_ops(vm, code), nregs, code.entry_pc, dest, callee))
    if len(frames) > 512:
        raise call_stack_overflow_error(callee.name, thread)


def _h_call(vm, thread, frame, op):
    # direct call: (h, "call", next, dest, callee, arg_slots, cost)
    _push_call(vm, thread, frame, op[2], op[3], op[4], op[5])
    return op[6]


def _h_call_rt(vm, thread, frame, op):
    # direct call to a categorized runtime function:
    # (h, "call", next, dest, callee, arg_slots, cost, category).
    # Chosen at decode time so uncategorized calls pay no lookup.
    thread.stats.runtime_calls[op[7]] += 1
    fs = thread.faults
    if fs is not None:
        fs.on_runtime_call(vm, thread, frame, op[4].name)
    _push_call(vm, thread, frame, op[2], op[3], op[4], op[5])
    return op[6]


def _h_badcall(vm, thread, frame, op):
    # (h, "call", 0, callee_name)
    raise SimulationError(f"call to undefined function @{op[3]}")


def _h_raise(vm, thread, frame, op):
    # decode-time detected error raised only if executed: (h, "call", 0, msg)
    raise SimulationError(op[3])


def _h_icall(vm, thread, frame, op):
    # indirect call: (h, "call", next, dest, callee_slot, arg_slots, inst, coerce)
    regs = frame.regs
    address = int(regs[op[4]])
    callee = vm._functions_by_address.get(address)
    if callee is None:
        raise SimulationError(
            f"indirect call to unmapped address {address:#x} in "
            f"@{frame.function.name}"
        )
    info = intrinsic_info(callee.name)
    if info is not None:
        # the op a direct call of the intrinsic decodes to
        iop = intrinsic_op(callee.name, info, op[3], op[5], op[7], op[6],
                           op[2], vm.config.warp_size)
        return iop[0](vm, thread, frame, iop)
    if callee.is_declaration:
        raise SimulationError(f"call to undefined function @{callee.name}")
    if len(op[5]) != len(callee.args):
        raise SimulationError(
            f"call to @{callee.name}: {len(op[5])} args for "
            f"{len(callee.args)} params"
        )
    category = OVERHEAD_CATEGORIES.get(callee.name)
    if category is not None:
        thread.stats.runtime_calls[category] += 1
        fs = thread.faults
        if fs is not None:
            fs.on_runtime_call(vm, thread, frame, callee.name)
    _push_call(vm, thread, frame, op[2], op[3], callee, op[5])
    return vm.cost.config.call_cost


# ===================================================================
# Intrinsics: one name-keyed table
#
# :data:`_INTRINSICS` maps every registered intrinsic to the decoded op
# a call of it becomes, built by :func:`intrinsic_op` for direct calls
# at decode time and for indirect ones at run time.  Three kinds:
#
# * a pure intrinsic is a row of :data:`_TEMPLATES` (ids, geometry,
#   lane id, warp size, math), fused and vectorized like any simple op;
# * barriers, ``llvm.assume`` and ``llvm.expect`` have their own
#   handlers below;
# * every other intrinsic is a *generic row*: a scalar function
#   ``row(vm, t, fn, out, argv) -> (result, extra cycles)`` for thread
#   *t* running in function *fn*, whose prints append to *out* and
#   whose trap reports ``out[-1]``.  :func:`_h_intrin` calls the row
#   once per thread; the warp engine calls the same row once per
#   active lane.  Every engine runs these rows' scalar code (and the
#   math rows' scalar template), so comparing engines cannot check
#   them: ``tests/vgpu/test_intrinsics.py`` pins them to expected
#   values instead.
# ===================================================================


def _h_barrier(vm, thread, frame, op):
    # (h, "call", next, inst, cost)
    fs = thread.faults
    if fs is not None and fs.skip_barrier(vm, thread):
        # Injected divergence: fall through the barrier and keep
        # running while the rest of the team waits.
        frame.pc = op[2]
        return op[4]
    thread.status = _AT_BARRIER
    thread.barrier_call = op[3]
    frame.pc = op[2]
    return op[4]


def _h_assume(vm, thread, frame, op):
    # (h, "call", next, arg_slot, cost)
    if vm.debug_checks and not frame.regs[op[3]]:
        raise assumption_error(frame.function.name, thread)
    frame.pc = op[2]
    return op[4]


def _h_expect(vm, thread, frame, op):
    # (h, "call", next, dest, arg, coerce, cost)
    regs = frame.regs
    regs[op[3]] = op[5](regs[op[4]])
    frame.pc = op[2]
    return op[6]


def _h_intrin(vm, thread, frame, op):
    # generic row: (h, "call", next, dest, row, arg_slots, coerce, cost)
    regs = frame.regs
    result, extra = op[4](vm, thread, frame.function.name, thread.stats.output,
                          [regs[a] for a in op[5]])
    if result is not None:
        regs[op[3]] = op[6](result)
    frame.pc = op[2]
    return op[7] + extra


def _i_dynamic_shared(vm, t, fn, out, argv):
    base = vm._dynamic_shared_base.get(t.team_id)
    if base is None:
        raise SimulationError(
            "gpu.dynamic_shared used but the launch reserved no "
            "dynamic shared memory"
        )
    return base, 0


def _i_trap(vm, t, fn, out, argv):
    raise trap_error(fn, t, out[-1] if out else "llvm.trap")


def _i_print_i64(vm, t, fn, out, argv):
    out.append(str(_I64_TO_SIGNED(int(argv[0]))))
    return None, 0


def _i_print_f64(vm, t, fn, out, argv):
    out.append(repr(float(argv[0])))
    return None, 0


def _i_print_str(vm, t, fn, out, argv):
    addr = int(argv[0])
    out.append(vm._string_table.get(addr, f"<str {addr:#x}>"))
    return None, 0


def _i_malloc(vm, t, fn, out, argv):
    fs = t.faults
    if fs is not None:
        fs.on_device_malloc(vm, t, fn)
    t.stats.device_mallocs += 1
    return vm.memory.malloc(int(argv[0])), 0


def _i_free(vm, t, fn, out, argv):
    t.stats.device_frees += 1
    vm.memory.free(int(argv[0]))
    return None, 0


def _i_memset(vm, t, fn, out, argv):
    n = int(argv[2])
    vm.memory.memset(int(argv[0]), int(argv[1]), n, t.team_id, t.thread_id)
    return None, n // 8


def _i_memcpy(vm, t, fn, out, argv):
    n = int(argv[2])
    vm.memory.memcpy(int(argv[0]), int(argv[1]), n, t.team_id, t.thread_id)
    return None, n // 4


def _row(row):
    return lambda d, a, co, inst, ws: (_h_intrin, d, row, a, co)


#: intrinsic name -> ``make(dest, arg_slots, coerce, inst, warp_size)``
#: giving the handler and op fields between ``next`` and ``cost``.
_INTRINSICS: Dict[str, Callable] = {
    "gpu.thread_id": lambda d, a, co, inst, ws: (_h_thread_id, d),
    "gpu.block_id": lambda d, a, co, inst, ws: (_h_block_id, d),
    "gpu.block_dim": lambda d, a, co, inst, ws: (_h_block_dim, d),
    "gpu.grid_dim": lambda d, a, co, inst, ws: (_h_grid_dim, d),
    "gpu.warp_size": lambda d, a, co, inst, ws: (_h_const_result, d, ws),
    "gpu.lane_id": lambda d, a, co, inst, ws: (_h_lane_id, d, ws),
    "gpu.barrier": lambda d, a, co, inst, ws: (_h_barrier, inst),
    "gpu.barrier.aligned": lambda d, a, co, inst, ws: (_h_barrier, inst),
    "llvm.assume": lambda d, a, co, inst, ws: (_h_assume, a[0]),
    "llvm.expect": lambda d, a, co, inst, ws: (_h_expect, d, a[0], co),
    "gpu.dynamic_shared": _row(_i_dynamic_shared),
    "llvm.trap": _row(_i_trap),
    "rt.print_i64": _row(_i_print_i64),
    "rt.print_f64": _row(_i_print_f64),
    "rt.print_str": _row(_i_print_str),
    "malloc": _row(_i_malloc),
    "free": _row(_i_free),
    "llvm.memset": _row(_i_memset),
    "llvm.memcpy": _row(_i_memcpy),
}
for _sfx in ("f32", "f64"):
    for _name, _fn in MATH_UNARY.items():
        _INTRINSICS[f"llvm.{_name}.{_sfx}"] = (
            lambda d, a, co, inst, ws, fn=_fn: (_h_math1, d, a[0], fn, co))
    for _name, _fn in MATH_BINARY.items():
        _INTRINSICS[f"llvm.{_name}.{_sfx}"] = (
            lambda d, a, co, inst, ws, fn=_fn: (_h_math2, d, a[0], a[1], fn, co))


def intrinsic_op(name, info, dest, arg_slots, coerce, inst, next_pc,
                 warp_size) -> tuple:
    """The decoded op of a call of intrinsic *name*."""
    make = _INTRINSICS.get(name)
    if make is None:
        return (_h_raise, "call", 0, f"unhandled intrinsic {name}")
    h, *fields = make(dest, arg_slots, coerce, inst, warp_size)
    return (h, "call", next_pc, *fields, info.cost)


# ===================================================================
# Decoder
# ===================================================================

_SIGNED_PREDS = {"slt", "sle", "sgt", "sge"}

_ICMP_RAW = {
    "eq": _h_icmp_eq, "ne": _h_icmp_ne,
    "ult": _h_icmp_lt, "ule": _h_icmp_le,
    "ugt": _h_icmp_gt, "uge": _h_icmp_ge,
    # signed predicates on pointer-typed operands compare raw
    # (to_signed is only applied to IntType).
    "slt": _h_icmp_lt, "sle": _h_icmp_le,
    "sgt": _h_icmp_gt, "sge": _h_icmp_ge,
}

_ICMP_SIGNED = {
    "slt": _h_icmp_slt, "sle": _h_icmp_sle,
    "sgt": _h_icmp_sgt, "sge": _h_icmp_sge,
}

_FCMP = {
    "oeq": _h_fcmp_oeq, "one": _h_fcmp_one,
    "olt": _h_fcmp_olt, "ole": _h_fcmp_ole,
    "ogt": _h_fcmp_ogt, "oge": _h_fcmp_oge,
}

_CAST = {
    "zext": _h_zext,
    "sext": _h_sext,
    "trunc": _h_trunc,
    "sitofp": _h_sitofp,
    "uitofp": _h_uitofp,
    "fptosi": _h_fptosi,
    "fpext": _h_tofloat,
    "fptrunc": _h_tofloat,
    "ptrtoint": _h_copy,
    "inttoptr": _h_copy,
    "bitcast": _h_copy,
}

_FLOAT_STRUCT = {32: struct.Struct("<f"), 64: struct.Struct("<d")}


def _cost_by_tag(cost_table) -> Tuple[Optional[int], ...]:
    """Per-tag cost tuple indexed by ``ptr >> 48``; None defers to the
    cost model (reproducing its KeyError for unpriced spaces)."""
    return tuple(
        cost_table.get(space) if space is not None else None
        for space in _SPACE_BY_TAG
    )


def decode_function(
    func: Function, cost: CostModel, warp_size: int, sanitize: bool = False
) -> DecodedFunction:
    """One-time static decode of *func* (device-independent).

    With *sanitize*, loads and stores are decoded to the ``_slow``
    handlers that route every access through the (shadow-checked)
    memory system — handler selection at decode time is what keeps the
    sanitize-off fast path entirely free of mode checks."""

    cfg = cost.config
    code = DecodedFunction(func)
    slot_map: Dict[int, int] = {}  # keyed by id(): Constant __eq__ is by value
    for arg in func.args:
        slot_map[id(arg)] = len(slot_map)
    for block in func.blocks:
        for inst in block.instructions:
            slot_map[id(inst)] = len(slot_map)

    static_init = code.static_init
    global_fixups = code.global_fixups
    func_fixups = code.func_fixups

    def operand(v) -> int:
        s = slot_map.get(id(v))
        if s is not None:
            return s
        s = len(slot_map)
        slot_map[id(v)] = s
        if isinstance(v, Constant):
            static_init.append((s, v.value))
        elif isinstance(v, GlobalVariable):
            global_fixups.append((s, v))
        elif isinstance(v, Function):
            func_fixups.append((s, v))
        elif isinstance(v, UndefValue):
            static_init.append((s, 0))
        else:  # pragma: no cover - verifier rejects other operand kinds
            raise SimulationError(f"cannot evaluate {v!r}")
        return s

    # Absolute pc of each block (phis emit no ops).
    start_pc: Dict[object, int] = {}
    n = 0
    for block in func.blocks:
        start_pc[block] = n
        n += sum(1 for i in block.instructions if not isinstance(i, Phi))
    code.block_starts = (
        tuple(start_pc[b] for b in func.blocks),
        tuple(b.name for b in func.blocks),
    )

    load_costs = _cost_by_tag(cfg.load_cost)
    store_costs = _cost_by_tag(cfg.store_cost)

    def edge(pred, target):
        """Branch-edge descriptor: (target pc, phi parallel-copy moves)."""
        moves = tuple(
            (slot_map[id(phi)], operand(phi.incoming_value_for(pred)))
            for phi in target.phis()
        )
        return start_pc[target], moves

    def emit_binop(inst: BinOp, next_pc: int):
        d = slot_map[id(inst)]
        a, b = operand(inst.lhs), operand(inst.rhs)
        opn = inst.opcode
        c = cost.binop_cost(inst)
        ty = inst.type
        if isinstance(ty, FloatType):
            h = {
                "fadd": _h_fadd, "fsub": _h_fsub, "fmul": _h_fmul,
                "fdiv": _h_fdiv, "frem": _h_frem,
            }[opn]
            return (h, opn, next_pc, d, a, b, c)
        ity = ty if isinstance(ty, IntType) else I64
        if opn == "add":
            return (_h_add, opn, next_pc, d, a, b, ity, c)
        if opn == "sub":
            return (_h_sub, opn, next_pc, d, a, b, ity, c)
        if opn == "mul":
            return (_h_mul, opn, next_pc, d, a, b, ity, c)
        if opn == "and":
            return (_h_and, opn, next_pc, d, a, b, c)
        if opn == "or":
            return (_h_or, opn, next_pc, d, a, b, c)
        if opn == "xor":
            return (_h_xor, opn, next_pc, d, a, b, c)
        if opn == "shl":
            return (_h_shl, opn, next_pc, d, a, b, ity.bits, ity, c)
        if opn == "lshr":
            return (_h_lshr, opn, next_pc, d, a, b, ity.bits, c)
        if opn == "ashr":
            return (_h_ashr, opn, next_pc, d, a, b, ity.bits, ity, ity, c)
        if opn == "sdiv":
            return (_h_sdiv, opn, next_pc, d, a, b, ity, ity, c)
        if opn == "srem":
            return (_h_srem, opn, next_pc, d, a, b, ity, ity, c)
        if opn == "udiv":
            return (_h_udiv, opn, next_pc, d, a, b, c)
        if opn == "urem":
            return (_h_urem, opn, next_pc, d, a, b, c)
        raise SimulationError(f"unhandled binop {opn} on {ty}")  # pragma: no cover

    def emit_load(inst: Load, next_pc: int):
        ty = inst.type
        d, p = slot_map[id(inst)], operand(inst.pointer)
        size = scalar_size(ty)
        if isinstance(ty, FloatType):
            unpack = _FLOAT_STRUCT[ty.bits].unpack_from
            h = _h_load_slow if sanitize else _h_load_f
            return (h, "load", next_pc, d, p, size, ty, load_costs, unpack)
        h = _h_load_slow if sanitize else _h_load_int
        return (h, "load", next_pc, d, p, size, ty, load_costs)

    def emit_store(inst: Store, next_pc: int):
        ty = inst.value.type
        p, v = operand(inst.pointer), operand(inst.value)
        size = scalar_size(ty)
        if isinstance(ty, FloatType):
            pack = (pack_f32_into if ty.bits == 32
                    else _FLOAT_STRUCT[ty.bits].pack_into)
            h = _h_store_slow if sanitize else _h_store_f
            return (h, "store", next_pc, p, v, size, ty, store_costs, pack)
        if isinstance(ty, IntType):
            h = _h_store_slow if sanitize else _h_store_int
            return (h, "store", next_pc, p, v, size, ty, store_costs, ty)
        h = _h_store_slow if sanitize else _h_store_ptr
        return (h, "store", next_pc, p, v, size, ty, store_costs)

    def emit_icmp(inst: ICmp, next_pc: int):
        d = slot_map[id(inst)]
        a, b = operand(inst.lhs), operand(inst.rhs)
        pred = inst.predicate
        ty = inst.lhs.type
        c = cfg.int_op_cost
        if pred in _SIGNED_PREDS and isinstance(ty, IntType):
            return (_ICMP_SIGNED[pred], "icmp", next_pc, d, a, b, ty, c)
        return (_ICMP_RAW[pred], "icmp", next_pc, d, a, b, c)

    def emit_fcmp(inst: FCmp, next_pc: int):
        d = slot_map[id(inst)]
        a, b = operand(inst.operands[0]), operand(inst.operands[1])
        return (_FCMP[inst.predicate], "fcmp", next_pc, d, a, b, cfg.int_op_cost)

    def emit_select(inst: Select, next_pc: int):
        return (
            _h_select, "select", next_pc, slot_map[id(inst)],
            operand(inst.condition), operand(inst.true_value),
            operand(inst.false_value), cfg.select_cost,
        )

    def emit_cast(inst: Cast, next_pc: int):
        d, s = slot_map[id(inst)], operand(inst.source)
        opn = inst.opcode
        h = _CAST[opn]
        c = cfg.cast_cost
        src_ty, dst_ty = inst.source.type, inst.type
        if opn == "sext":
            return (h, opn, next_pc, d, s, src_ty, dst_ty, c)
        if opn in ("trunc", "fptosi"):
            return (h, opn, next_pc, d, s, dst_ty, c)
        if opn == "sitofp":
            return (h, opn, next_pc, d, s, src_ty, c)
        return (h, opn, next_pc, d, s, c)

    def emit_ptradd(inst: PtrAdd, next_pc: int):
        offset_ty = inst.offset.type
        assert isinstance(offset_ty, IntType)
        return (
            _h_ptradd, "ptradd", next_pc, slot_map[id(inst)],
            operand(inst.pointer), operand(inst.offset),
            offset_ty, cfg.int_op_cost,
        )

    def emit_alloca(inst: Alloca, next_pc: int):
        return (
            _h_alloca, "alloca", next_pc, slot_map[id(inst)],
            DATA_LAYOUT.size_of(inst.allocated_type),
            DATA_LAYOUT.align_of(inst.allocated_type),
            cfg.alloca_cost,
        )

    def emit_atomicrmw(inst: AtomicRMW, next_pc: int):
        return (
            _h_atomicrmw, "atomicrmw", next_pc, slot_map[id(inst)],
            operand(inst.pointer), operand(inst.value),
            inst.operation, inst.value.type, cfg.atomic_cost,
        )

    def emit_br(inst: Br, next_pc: int):
        target, moves = edge(inst.parent, inst.target)
        c = cfg.branch_cost
        if not moves:
            return (_h_jump, "br", target, c)
        if len(moves) == 1:
            return (_h_br1, "br", target, moves[0][0], moves[0][1], c)
        return (_h_brn, "br", target, moves, c)

    def emit_condbr(inst: CondBr, next_pc: int):
        t_pc, t_mv = edge(inst.parent, inst.true_target)
        f_pc, f_mv = edge(inst.parent, inst.false_target)
        return (
            _h_condbr, "condbr", 0, operand(inst.condition),
            t_pc, t_mv, f_pc, f_mv, cfg.branch_cost,
        )

    def emit_ret(inst: Ret, next_pc: int):
        rv = inst.return_value
        return (_h_ret, "ret", 0, operand(rv) if rv is not None else -1)

    def emit_unreachable(inst: Unreachable, next_pc: int):
        return (_h_unreachable, "unreachable", 0)

    def emit_call(inst: Call, next_pc: int):
        callee = inst.callee
        d = slot_map[id(inst)]
        if callee is None:
            arg_slots = tuple(operand(a) for a in inst.args)
            return (
                _h_icall, "call", next_pc, d,
                operand(inst.callee_operand), arg_slots, inst,
                make_coerce(inst.type),
            )
        info = intrinsic_info(callee.name)
        if info is not None:
            return intrinsic_op(
                callee.name, info, d, tuple(operand(a) for a in inst.args),
                make_coerce(inst.type), inst, next_pc, warp_size,
            )
        if callee.is_declaration:
            return (_h_badcall, "call", 0, callee.name)
        if len(inst.args) != len(callee.args):
            return (
                _h_raise, "call", 0,
                f"call to @{callee.name}: {len(inst.args)} args for "
                f"{len(callee.args)} params",
            )
        arg_slots = tuple(operand(a) for a in inst.args)
        category = OVERHEAD_CATEGORIES.get(callee.name)
        if category is not None:
            return (
                _h_call_rt, "call", next_pc, d, callee, arg_slots,
                cfg.call_cost, category,
            )
        return (_h_call, "call", next_pc, d, callee, arg_slots, cfg.call_cost)

    emitters = {
        BinOp: emit_binop,
        Load: emit_load,
        Store: emit_store,
        ICmp: emit_icmp,
        FCmp: emit_fcmp,
        Select: emit_select,
        Cast: emit_cast,
        PtrAdd: emit_ptradd,
        Alloca: emit_alloca,
        AtomicRMW: emit_atomicrmw,
        Br: emit_br,
        CondBr: emit_condbr,
        Ret: emit_ret,
        Unreachable: emit_unreachable,
        Call: emit_call,
    }

    ops = code.ops
    for block in func.blocks:
        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue
            emitter = emitters.get(type(inst))
            if emitter is None:  # pragma: no cover
                raise SimulationError(f"unhandled instruction {inst.opcode}")
            ops.append(emitter(inst, len(ops) + 1))

    code.entry_pc = start_pc[func.entry]
    code.num_slots = len(slot_map)
    code.arg_slots = tuple(slot_map[id(a)] for a in func.args)
    code.arg_coerce = tuple(make_coerce(a.type) for a in func.args)
    return code


# ===================================================================
# Warp vectorization pass: control-flow analysis
#
# The warp engine (:mod:`repro.vgpu.warp`) executes all active lanes of
# a warp in lockstep.  Divergent branches split the active-lane mask
# and the split sides re-merge at the branch's *reconvergence point* —
# the immediate post-dominator of the branching block, exactly the
# IPDOM reconvergence discipline of real SIMT hardware.  This analysis
# runs once per decoded function and computes
#
# * ``rpc``: per-``condbr`` pc, the op pc where split lanes reconverge
#   (None when the sides only rejoin at function exit), and
# * ``diamonds``: short, straight-line diamond/triangle regions that
#   are profitable to *if-convert* — execute both arms back-to-back
#   under their predicate masks instead of paying the divergence-stack
#   bookkeeping ("Retrofitting Control Flow Graphs in LLVM IR for Auto
#   Vectorization" covers the classic transformation; here it is purely
#   an execution strategy, observables are bit-identical either way).
# ===================================================================


#: Opcode strings safe to execute under a partial lane mask inside an
#: if-converted arm: no control flow, no calls/barriers, no per-lane
#: allocation.  Loads/stores are fine — masked handlers only touch the
#: lanes that would have executed the arm anyway.
_IF_CONVERT_SAFE = frozenset({
    "add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr",
    "sdiv", "srem", "udiv", "urem",
    "fadd", "fsub", "fmul", "fdiv", "frem",
    "icmp", "fcmp", "select", "ptradd",
    "zext", "sext", "trunc", "sitofp", "uitofp", "fptosi",
    "fpext", "fptrunc", "ptrtoint", "inttoptr", "bitcast",
    "load", "store",
})

#: Maximum op count per if-converted arm (terminator excluded).  Beyond
#: this the mask-stack path amortizes its bookkeeping anyway.
_IF_CONVERT_MAX_OPS = 8


class WarpFlow:
    """Reconvergence/if-conversion metadata for one decoded function."""

    __slots__ = ("rpc", "diamonds")

    def __init__(self) -> None:
        #: condbr pc -> reconvergence pc (immediate post-dominator),
        #: or None when the sides only rejoin at function exit.
        self.rpc: Dict[int, Optional[int]] = {}
        #: condbr pc -> ``(t_pc, t_ops, f_pc, f_ops, join_pc)``; an arm
        #: with ``t_pc == join_pc`` (triangle) contributes zero ops.
        self.diamonds: Dict[int, Tuple[int, int, int, int, int]] = {}


def _postdominators(blocks, succ):
    """Set-based iterative post-dominator solve over tiny CFGs.

    Returns ``pdom[b]`` = the set of blocks (plus the virtual exit
    ``None``) that post-dominate *b*.  Blocks whose terminator leaves
    the function (``ret``/``unreachable``) flow to the virtual exit."""
    exit_node = None
    everything = set(blocks) | {exit_node}
    pdom = {b: everything for b in blocks}
    pdom[exit_node] = {exit_node}
    changed = True
    while changed:
        changed = False
        for b in reversed(blocks):
            succs = succ[b]
            new = set(pdom[succs[0]])
            for s in succs[1:]:
                new &= pdom[s]
            new.add(b)
            if new != pdom[b]:
                pdom[b] = new
                changed = True
    return pdom


def compute_warp_flow(code: DecodedFunction, if_convert: bool = True) -> WarpFlow:
    """Analyze *code*'s CFG for the warp engine (see module section)."""
    func = code.function
    blocks = list(func.blocks)
    start_pc = dict(zip(blocks, code.block_starts[0]))
    succ = {}
    preds: Dict[object, int] = {}
    for b in blocks:
        s = b.successors()
        succ[b] = s if s else [None]
        for t in s:
            preds[t] = preds.get(t, 0) + 1
    pdom = _postdominators(blocks, succ)

    def ipdom(b):
        """Closest strict post-dominator: the one whose own pdom set is
        largest (it is post-dominated by every other strict pdom)."""
        best, best_len = None, -1
        for p in pdom[b]:
            if p is b:
                continue
            n = len(pdom[p])
            if n > best_len:
                best, best_len = p, n
        return best

    flow = WarpFlow()
    pc = 0
    for block in blocks:
        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue
            if isinstance(inst, CondBr):
                ip = ipdom(block)
                flow.rpc[pc] = start_pc[ip] if ip is not None else None
                if if_convert:
                    d = _diamond(code, block, inst, start_pc, preds)
                    if d is not None:
                        flow.diamonds[pc] = d
            pc += 1
    return flow


def _arm_ops(code: DecodedFunction, block, start_pc) -> Optional[int]:
    """Op count of *block* as an if-convertible arm body (terminator
    excluded), or None when the block is not a safe straight-line arm."""
    term = block.terminator
    if not isinstance(term, Br):
        return None
    n = 0
    pc = start_pc[block]
    for inst in block.instructions:
        if isinstance(inst, Phi):
            continue
        if inst is term:
            break
        if code.ops[pc][1] not in _IF_CONVERT_SAFE:
            return None
        n += 1
        pc += 1
    return n if n <= _IF_CONVERT_MAX_OPS else None


def _diamond(code, block, inst: CondBr, start_pc, preds):
    """Match ``block``'s condbr against a short diamond or triangle."""
    t, f = inst.true_target, inst.false_target
    if t is f or t is block or f is block:
        return None
    t_is_arm = preds.get(t, 0) == 1
    f_is_arm = preds.get(f, 0) == 1
    if t_is_arm and f_is_arm:
        tt, ft = t.terminator, f.terminator
        if (not isinstance(tt, Br) or not isinstance(ft, Br)
                or tt.target is not ft.target):
            return None
        join = tt.target
        if join is t or join is f or join is block:
            return None
        t_ops, f_ops = _arm_ops(code, t, start_pc), _arm_ops(code, f, start_pc)
        if t_ops is None or f_ops is None:
            return None
        return (start_pc[t], t_ops, start_pc[f], f_ops, start_pc[join])
    if t_is_arm and not f_is_arm:
        # Triangle: true arm, false edge goes straight to the join.
        tt = t.terminator
        if not isinstance(tt, Br) or tt.target is not f or f is block:
            return None
        t_ops = _arm_ops(code, t, start_pc)
        if t_ops is None:
            return None
        return (start_pc[t], t_ops, start_pc[f], 0, start_pc[f])
    if f_is_arm and not t_is_arm:
        ft = f.terminator
        if not isinstance(ft, Br) or ft.target is not t or t is block:
            return None
        f_ops = _arm_ops(code, f, start_pc)
        if f_ops is None:
            return None
        return (start_pc[t], 0, start_pc[f], f_ops, start_pc[t])
    return None


# -- per-device decode + bind --------------------------------------------------


def bind_function(vm, func: Function) -> BoundFunction:
    """Decode *func* and bind it to *vm*'s address map; cached per
    :class:`VirtualGPU` in ``vm._bound_cache``.

    The static decode comes from *vm*'s module memo: made once per
    cost-model signature, warp size and sanitize mode on a frozen
    module, afresh on a mutable one (see the module docstring)."""
    bound = vm._bound_cache.get(func)
    if bound is not None:
        return bound
    code = vm.module.memo(("decode", func, vm._decode_key), lambda: decode_function(
        func, vm.cost, vm.config.warp_size, sanitize=vm.sanitize))
    init: List = [None] * code.num_slots
    for s, v in code.static_init:
        init[s] = v
    for s, gv in code.global_fixups:
        init[s] = vm.global_addresses[gv]
    for s, f in code.func_fixups:
        init[s] = vm.function_addresses[f]
    bound = BoundFunction(code, init)
    vm._bound_cache[func] = bound
    return bound


# ===================================================================
# Execution
# ===================================================================


def _frame_ops(vm, code: DecodedFunction) -> List[tuple]:
    """The op list a decoded frame of *code* runs on *vm*: ``code.ops``
    on a per-op device (``VirtualGPU._per_op``), else the fused list
    (fusing on first use)."""
    if vm._per_op:
        return code.ops
    ops = code.fused
    return ops if ops is not None else _fuse(code)


def make_kernel_frame(vm, func: Function, args) -> DecodedFrame:
    bound = bind_function(vm, func)
    code = bound.code
    regs = bound.init_regs.copy()
    for slot, co, actual in zip(code.arg_slots, code.arg_coerce, args):
        regs[slot] = co(actual)
    return DecodedFrame(_frame_ops(vm, code), regs, code.entry_pc, -1, func)


def run_thread(vm, thread: ThreadContext) -> None:
    """Run *thread* until it terminates or arrives at a barrier."""
    if vm._trace is not None:
        return _run_thread_traced(vm, thread)
    _run(vm, thread, None)


def _run_thread_traced(vm, thread: ThreadContext) -> None:
    """Tracing variant of :func:`run_thread`: identical semantics plus
    per-IR-function cycle attribution.  Deltas are added even when zero
    so both engines produce the same ``function_cycles`` key set (every
    function that executed at least one instruction)."""
    _run(vm, thread, thread.stats.function_cycles)


def _run(vm, thread: ThreadContext, fn_cycles) -> None:
    """The run loop; *fn_cycles* is the per-function cycle counter while
    tracing, else None.

    Steps and cycles accumulate in locals and are flushed on every
    exit path (including exceptions), so fused and per-op execution
    report the same counters even on traps and step-limit aborts.  Fused runs
    count one hit each; the team driver settles them into the opcode
    counters (``TeamStats.settle``).
    """
    max_steps = vm.config.max_steps_per_thread
    counts = thread.stats.opcode_counts
    hits = thread.stats.run_hits
    frames = thread.frames
    steps = thread.steps
    cycles = 0
    try:
        while thread.status is _RUNNING:
            frame = frames[-1]
            ops = frame.ops
            op = ops[frame.pc]
            while op[0] is None:
                # Fused run or loop entry (see _fuse): one dispatch per
                # block or loop.  Runs never call, return or stop at a
                # barrier, so they chain here until the next per-op op.
                # A run (a loop's header block) executes per op instead
                # when the step budget ends inside it.
                n = op[1]
                if steps + n > max_steps:
                    op = op[4]
                    break
                run = op[6]
                if run is None:  # a loop counts its own steps and hits
                    n, c = op[2](vm, thread, frame, max_steps - steps)
                else:
                    c = op[2](vm, thread, frame)
                    hits[run] = hits.get(run, 0) + 1
                steps += n
                cycles += c
                if fn_cycles is not None:
                    fn_cycles[frame.function.name] += c
                op = ops[frame.pc]
            # Check before the retire: a stopped thread reports exactly
            # max_steps retired instructions (the over-budget op never
            # executes), identically in both engines.
            if steps == max_steps:
                raise step_limit_error(thread, max_steps, frame.function.name)
            steps += 1
            counts[op[1]] += 1
            c = op[0](vm, thread, frame, op)
            cycles += c
            if fn_cycles is not None:
                fn_cycles[frame.function.name] += c
    except BaseException as exc:
        if frames:
            retired, spent = _unwind_run(vm, thread, frames[-1], exc)
            steps += retired
            cycles += spent
            if fn_cycles is not None and retired > 1:
                fn_cycles[frames[-1].function.name] += spent
        # Flush the step counter first: the crash context snapshots it.
        thread.steps = steps
        block = _block_name(vm, frames[-1]) if frames else None
        if isinstance(exc, TypeError):
            # A None register means an SSA value was read before any
            # definition executed: report it as a use of an undefined
            # value.
            err = (
                undefined_value_error(frames[-1].function.name, str(exc))
                if frames
                else SimulationError(f"use of undefined value: {exc}")
            )
            raise attach_context(err, thread, block) from exc
        if isinstance(exc, (SimulationError, MemoryError_)):
            raise attach_context(exc, thread, block)
        raise
    finally:
        thread.steps = steps
        thread.phase_cycles += cycles
    if thread.status is _DONE:
        thread.total_cycles += thread.phase_cycles
