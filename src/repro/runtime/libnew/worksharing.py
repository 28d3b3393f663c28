"""Combined worksharing loops — the paper's Fig. 5 ``noChunkImpl``.

One grid-strided implementation per scheduling scope:

* ``__kmpc_distribute_parallel_for`` — iterations over all threads of
  the whole grid (combined ``distribute parallel for``);
* ``__kmpc_for_static_loop`` — iterations over the threads of one team
  (``for`` inside ``parallel``);
* ``__kmpc_distribute_static_loop`` — iterations over teams
  (``distribute``).

Each reads its over-subscription flag from a compiler-emitted constant
global (§III-F).  When the flag is 1 the runtime *asserts* that every
thread runs at most one iteration (checked in debug, assumed in
release) and breaks out of the loop, which lets constant folding delete
the back edge and all loop-carried state.
"""

from __future__ import annotations

from typing import Callable

from repro.ir.builder import IRBuilder
from repro.ir.types import I32, I64, PTR, VOID
from repro.ir.values import GlobalVariable, Value
from repro.runtime.common import RuntimeBuilder
from repro.runtime.libnew.globals import NewRTGlobals


def _build_no_chunk_loop(
    rb: RuntimeBuilder,
    name: str,
    start_of: Callable[[IRBuilder], Value],
    stride_of: Callable[[IRBuilder], Value],
    oversub_flag: GlobalVariable,
    oversub_what: str,
) -> None:
    """Emit one Fig.-5-style loop runtime function."""
    func, b = rb.define(name, VOID, [PTR, PTR, I64], ["body", "args", "num_iters"])
    body_fn, args, num_iters = func.args
    rb.emit_trace(b, name)

    start = b.sext(start_of(b), I64, "iv.start")
    stride = b.sext(stride_of(b), I64, "iv.stride")
    oversub = b.load(I32, oversub_flag, "oversub")
    oversub_on = b.icmp("ne", oversub, b.i32(0), "oversub.on")

    check_block = func.add_block("oversub.check")
    head_block = func.add_block("head")
    b.cond_br(oversub_on, check_block, head_block)

    # User promised over-subscription: verify (debug) / assume (release)
    # that each executor covers at most one iteration.
    b.set_insert_point(check_block)
    holds = b.icmp("sle", num_iters, stride, "oversub.holds")
    rb.emit_assert(b, holds, f"{oversub_what} over-subscription assumption")
    b.br(head_block)

    # if (IV < NumIters) do { body(IV); IV += stride; if (oversub) break; }
    # while (IV < NumIters);   -- Fig. 5
    b.set_insert_point(head_block)
    in_range = b.icmp("slt", start, num_iters, "iv.inrange")
    body_block = func.add_block("body")
    exit_block = func.add_block("exit")
    b.cond_br(in_range, body_block, exit_block)

    b.set_insert_point(body_block)
    iv = b.phi(I64, "iv")
    iv.add_incoming(start, head_block)
    b.call_indirect(body_fn, [iv, args], VOID)
    next_iv = b.add(iv, stride, "iv.next")
    latch_block = func.add_block("latch")
    b.cond_br(oversub_on, exit_block, latch_block)

    b.set_insert_point(latch_block)
    again = b.icmp("slt", next_iv, num_iters, "iv.again")
    iv.add_incoming(next_iv, latch_block)
    b.cond_br(again, body_block, exit_block)

    b.set_insert_point(exit_block)
    b.ret()


def build_worksharing(rb: RuntimeBuilder, gvs: NewRTGlobals) -> None:
    # Combined distribute parallel for: one iteration per grid thread.
    _build_no_chunk_loop(
        rb,
        "__kmpc_distribute_parallel_for",
        start_of=lambda b: b.add(b.mul(b.block_id(), b.block_dim()), b.thread_id()),
        stride_of=lambda b: b.mul(b.grid_dim(), b.block_dim()),
        oversub_flag=gvs.assume_threads_oversub,
        oversub_what="thread",
    )
    # Worksharing for within one team.
    _build_no_chunk_loop(
        rb,
        "__kmpc_for_static_loop",
        start_of=lambda b: b.thread_id(),
        stride_of=lambda b: b.block_dim(),
        oversub_flag=gvs.assume_threads_oversub,
        oversub_what="thread",
    )
    # Distribute across teams.
    _build_no_chunk_loop(
        rb,
        "__kmpc_distribute_static_loop",
        start_of=lambda b: b.block_id(),
        stride_of=lambda b: b.grid_dim(),
        oversub_flag=gvs.assume_teams_oversub,
        oversub_what="team",
    )
