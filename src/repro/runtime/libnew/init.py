"""Kernel initialization/deinitialization and the generic-mode state machine.

``__kmpc_target_init`` runs on every thread at kernel entry:

* SPMD mode: thread 0 broadcasts the SPMD flag and the team ICV
  defaults through conditional-pointer writes (Fig. 7b), everyone
  clears their own thread-state slot, and an aligned barrier publishes
  the state.  Assumptions (Fig. 8b) then pin the published values for
  the optimizer (§IV-B3).
* Generic mode: the main thread (the last thread of the team, as in
  the LLVM deviceRTL) initializes state and returns 0 to run the user's
  sequential region; workers enter the state machine and only return
  (with 1) when the main thread signals termination, after which the
  kernel epilogue returns.

The returned value is therefore "should this thread exit immediately".
"""

from __future__ import annotations

from repro.ir.builder import IRBuilder
from repro.ir.types import I32, I64, PTR, VOID
from repro.ir.values import Value
from repro.runtime.common import RuntimeBuilder
from repro.runtime.icv import ICV_DEFAULTS
from repro.runtime.libnew.globals import NewRTGlobals


def _emit_team_state_init(
    rb: RuntimeBuilder, b: IRBuilder, gvs: NewRTGlobals, cond: Value, spmd: Value
) -> None:
    """Broadcast-style initialization of the team state by one thread."""
    team = gvs.team_state
    writes = (
        (gvs.off_nthreads, ICV_DEFAULTS["nthreads_var"]),
        (gvs.off_levels, ICV_DEFAULTS["levels_var"]),
        (gvs.off_active_levels, ICV_DEFAULTS["active_levels_var"]),
        (gvs.off_has_thread_state, 0),
        (gvs.off_done, 0),
    )
    for offset, value in writes:
        addr = b.ptradd(team, offset)
        rb.emit_conditional_write(b, addr, b.i32(value), cond)
    fn_addr = b.ptradd(team, gvs.off_parallel_region_fn)
    rb.emit_conditional_write(b, fn_addr, b.i64(0), cond)
    size_addr = b.ptradd(team, gvs.off_parallel_team_size)
    rb.emit_conditional_write(b, size_addr, b.block_dim(), cond)
    flag_val = b.select(
        b.icmp("ne", spmd, b.i32(0)), b.i32(1), b.i32(0), "spmd.val"
    )
    rb.emit_conditional_write(b, gvs.is_spmd_mode, flag_val, cond)


def _emit_post_init_assumes(
    rb: RuntimeBuilder, b: IRBuilder, gvs: NewRTGlobals, spmd_value: Value
) -> None:
    """Fig. 8b: pin the broadcast state after the aligned barrier."""
    team = gvs.team_state
    for offset, value, what in (
        (gvs.off_levels, 0, "levels_var is 0 after init"),
        (gvs.off_active_levels, 0, "active_levels_var is 0 after init"),
        (gvs.off_has_thread_state, 0, "no thread states after init"),
    ):
        addr = b.ptradd(team, offset)
        loaded = b.load(I32, addr)
        rb.emit_assert(b, b.icmp("eq", loaded, b.i32(value)), what)
    # The mode flag was broadcast from the by-value init argument
    # (§III-A) and the team size from the launch geometry — both are
    # invariant-value facts for §IV-B4.
    flag = b.load(I32, gvs.is_spmd_mode)
    rb.emit_assert(b, b.icmp("eq", flag, spmd_value), "SPMD flag matches init mode")
    size_addr = b.ptradd(team, gvs.off_parallel_team_size)
    size = b.load(I32, size_addr)
    rb.emit_assert(
        b, b.icmp("eq", size, b.block_dim()), "team size matches launch geometry"
    )


def build_target_init(rb: RuntimeBuilder, gvs: NewRTGlobals) -> None:
    func, b = rb.define("__kmpc_target_init", I32, [I32], ["is_spmd"])
    is_spmd = func.args[0]
    rb.emit_trace(b, "__kmpc_target_init")

    spmd_block = func.add_block("spmd")
    generic_block = func.add_block("generic")
    b.cond_br(b.icmp("ne", is_spmd, b.i32(0)), spmd_block, generic_block)

    # ---- SPMD path -----------------------------------------------------------
    b.set_insert_point(spmd_block)
    tid = b.thread_id()
    is_zero = b.icmp("eq", tid, b.i32(0), "is.tid0")
    _emit_team_state_init(rb, b, gvs, is_zero, is_spmd)
    slot_addr = b.array_gep(gvs.thread_states, I64, tid, "slot.addr")
    b.store(b.i64(0), slot_addr)
    top_addr = b.array_gep(gvs.smem_stack_tops, I32, tid, "top.addr")
    b.store(b.i32(0), top_addr)
    rb.emit_team_barrier(b)
    _emit_post_init_assumes(rb, b, gvs, b.i32(1))
    b.ret(b.i32(0))

    # ---- generic path -----------------------------------------------------------
    b.set_insert_point(generic_block)
    tid_g = b.thread_id()
    bdim = b.block_dim()
    main_id = b.sub(bdim, b.i32(1), "main.id")
    is_main = b.icmp("eq", tid_g, main_id, "is.main")
    _emit_team_state_init(rb, b, gvs, is_main, is_spmd)
    slot_addr_g = b.array_gep(gvs.thread_states, I64, tid_g, "slot.addr")
    b.store(b.i64(0), slot_addr_g)
    top_addr_g = b.array_gep(gvs.smem_stack_tops, I32, tid_g, "top.addr")
    b.store(b.i32(0), top_addr_g)
    rb.emit_team_barrier(b)
    _emit_post_init_assumes(rb, b, gvs, b.i32(0))

    worker_entry = func.add_block("worker.loop")
    main_exit = func.add_block("main.cont")
    b.cond_br(is_main, main_exit, worker_entry)

    # ---- worker state machine (Bertolli-style control loop) ---------------------
    b.set_insert_point(worker_entry)
    b.barrier()  # unaligned: pairs with wake/terminate barriers elsewhere
    done_addr = b.ptradd(gvs.team_state, gvs.off_done, "done.addr")
    done = b.load(I32, done_addr, "done")
    work_check = func.add_block("worker.check")
    worker_exit = func.add_block("worker.exit")
    b.cond_br(b.icmp("ne", done, b.i32(0)), worker_exit, work_check)

    b.set_insert_point(work_check)
    fn_addr = b.ptradd(gvs.team_state, gvs.off_parallel_region_fn, "fn.addr")
    fn = b.load(I64, fn_addr, "fn")
    do_work = func.add_block("worker.work")
    join = func.add_block("worker.join")
    b.cond_br(b.icmp("ne", fn, b.i64(0)), do_work, join)

    b.set_insert_point(do_work)
    args_addr = b.ptradd(gvs.team_state, gvs.off_parallel_args, "args.addr")
    args = b.load(I64, args_addr, "args")
    args_ptr = b.cast("inttoptr", args, PTR, "args.ptr")
    b.call_indirect(fn, [tid_g, args_ptr], VOID)
    b.br(join)

    b.set_insert_point(join)
    b.barrier()  # join barrier: pairs with the main thread's join barrier
    b.br(worker_entry)

    b.set_insert_point(worker_exit)
    b.ret(b.i32(1))

    b.set_insert_point(main_exit)
    b.ret(b.i32(0))


def build_target_deinit(rb: RuntimeBuilder, gvs: NewRTGlobals) -> None:
    func, b = rb.define("__kmpc_target_deinit", VOID, [I32], ["is_spmd"])
    is_spmd = func.args[0]
    rb.emit_trace(b, "__kmpc_target_deinit")

    spmd_block = func.add_block("spmd")
    generic_block = func.add_block("generic")
    b.cond_br(b.icmp("ne", is_spmd, b.i32(0)), spmd_block, generic_block)

    b.set_insert_point(spmd_block)
    rb.emit_team_barrier(b)
    b.ret()

    # Generic: only the main thread reaches deinit; signal termination.
    b.set_insert_point(generic_block)
    done_addr = b.ptradd(gvs.team_state, gvs.off_done, "done.addr")
    b.store(b.i32(1), done_addr)
    b.barrier()  # wake workers so they observe `done` and exit
    b.ret()
