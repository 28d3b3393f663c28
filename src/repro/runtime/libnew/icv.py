"""Thread ICV state management (paper §III-C, Fig. 3).

Every thread owns one slot in the shared thread-states array.  NULL
means "use the team state"; a non-NULL slot points at an on-demand
record allocated from the shared-memory stack, holding a private ICV
copy plus a link to the previous record (nested data environments).

``__omp_lookup_icv_state`` is the single lookup path all ICV reads go
through — the load the optimizer must fold to the team state to remove
runtime state entirely (§IV-B1: the zero-initialized-array deduction).
"""

from __future__ import annotations

from repro.ir.types import I32, I64, PTR, VOID
from repro.runtime.common import RuntimeBuilder
from repro.runtime.libnew.globals import NewRTGlobals


def build_lookup_icv_state(rb: RuntimeBuilder, gvs: NewRTGlobals) -> None:
    """``__omp_lookup_icv_state() -> ptr`` — current thread's ICV state.

    The lookup is guarded by ``TeamState.has_thread_state``: a *direct*
    team-state load the §IV-B3 assumptions can fold.  This breaks the
    circular dependency between eliminating the thread-state array and
    proving the nested-parallel paths dead — precisely the co-design
    trick the real deviceRTL uses.
    """
    func, b = rb.define("__omp_lookup_icv_state", PTR, [], [])
    hts_addr = b.ptradd(gvs.team_state, gvs.off_has_thread_state, "hts.addr")
    hts = b.load(I32, hts_addr, "hts")
    any_state = b.icmp("ne", hts, b.i32(0), "hts.any")
    slow = func.add_block("slow")
    fast = func.add_block("fast")
    b.cond_br(any_state, slow, fast)

    b.set_insert_point(fast)
    b.ret(b.cast("bitcast", gvs.team_state, PTR))

    b.set_insert_point(slow)
    tid = b.thread_id()
    slot_addr = b.array_gep(gvs.thread_states, I64, tid, "slot.addr")
    slot = b.load(I64, slot_addr, "slot")
    is_null = b.icmp("eq", slot, b.i64(0), "slot.null")
    team_icvs = b.cast("ptrtoint", gvs.team_state, I64, "team.icvs")
    picked = b.select(is_null, team_icvs, slot, "icv.addr")
    b.ret(b.cast("inttoptr", picked, PTR))


def build_icv_accessors(rb: RuntimeBuilder, gvs: NewRTGlobals) -> None:
    """Typed getters/setters for the ICVs the lowering needs."""
    lookup = rb.module.get_function("__omp_lookup_icv_state")

    for icv, offset in (("levels", gvs.off_levels), ("nthreads", gvs.off_nthreads)):
        func, b = rb.define(f"__omp_get_{icv}_icv", I32, [], [])
        state = b.call(lookup, [], "state")
        addr = b.ptradd(state, offset, f"{icv}.addr")
        b.ret(b.load(I32, addr, icv))

        func, b = rb.define(f"__omp_set_{icv}_icv", VOID, [I32], ["value"])
        state = b.call(lookup, [], "state")
        addr = b.ptradd(state, offset, f"{icv}.addr")
        b.store(func.args[0], addr)
        b.ret()


def build_push_pop_thread_state(rb: RuntimeBuilder, gvs: NewRTGlobals) -> None:
    """On-demand thread ICV state creation/destruction (Fig. 3/4)."""
    module = rb.module
    alloc = module.get_function("__kmpc_alloc_shared")
    free = module.get_function("__kmpc_free_shared")
    lookup = module.get_function("__omp_lookup_icv_state")
    record = gvs.thread_state_record_size

    func, b = rb.define("__omp_push_thread_state", VOID, [], [])
    rb.emit_trace(b, "__omp_push_thread_state")
    tid = b.thread_id()
    new = b.call(alloc, [b.i64(record)], "ts.new")
    cur = b.call(lookup, [], "ts.cur")
    b.intrinsic(
        "llvm.memcpy",
        [b.cast("bitcast", new, PTR), b.cast("bitcast", cur, PTR), b.i64(gvs.icv_size)],
    )
    slot_addr = b.array_gep(gvs.thread_states, I64, tid, "slot.addr")
    old_slot = b.load(I64, slot_addr, "slot.old")
    link_addr = b.ptradd(new, gvs.icv_size, "ts.link")
    b.store(old_slot, link_addr)
    b.store(b.cast("ptrtoint", new, I64), slot_addr)
    hts_addr = b.ptradd(gvs.team_state, gvs.off_has_thread_state, "hts.addr")
    b.store(b.i32(1), hts_addr)
    b.ret()

    func, b = rb.define("__omp_pop_thread_state", VOID, [], [])
    rb.emit_trace(b, "__omp_pop_thread_state")
    tid = b.thread_id()
    slot_addr = b.array_gep(gvs.thread_states, I64, tid, "slot.addr")
    slot = b.load(I64, slot_addr, "slot")
    rb.emit_assert(b, b.icmp("ne", slot, b.i64(0)), "pop of empty thread state")
    state = b.cast("inttoptr", slot, PTR, "ts")
    link_addr = b.ptradd(state, gvs.icv_size, "ts.link")
    prev = b.load(I64, link_addr, "ts.prev")
    b.store(prev, slot_addr)
    b.call(free, [state, b.i64(record)])
    b.ret()
