"""Instruction cycle-cost model.

Charged by the interpreter per executed instruction; this is what turns
"the optimizer removed N loads and M barriers" into the kernel-time
deltas reported by the benchmark harness (paper Fig. 10–12).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.memory.addrspace import AddressSpace
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
from repro.vgpu.config import GPUConfig

_FLOAT_OPS = {"fadd", "fsub", "fmul", "frem"}
_INT_DIV_OPS = {"sdiv", "udiv", "srem", "urem"}


class CostModel:
    """Maps executed instructions to cycle costs."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config

    def binop_cost(self, inst: BinOp) -> int:
        if inst.opcode == "fdiv":
            return self.config.float_div_cost
        if inst.opcode in _FLOAT_OPS:
            return self.config.float_op_cost
        if inst.opcode in _INT_DIV_OPS:
            return self.config.int_div_cost
        return self.config.int_op_cost

    def load_cost(self, space: AddressSpace) -> int:
        return self.config.load_cost[space]

    def store_cost(self, space: AddressSpace) -> int:
        return self.config.store_cost[space]

    def call_cost(self, callee_name: str) -> int:
        info = intrinsic_info(callee_name)
        if info is not None:
            return info.cost
        return self.config.call_cost

    def simple_cost(self, inst: Instruction) -> int:
        """Cost of instructions whose price doesn't depend on runtime
        state (everything except memory ops and calls)."""
        if isinstance(inst, BinOp):
            return self.binop_cost(inst)
        if isinstance(inst, (ICmp, FCmp)):
            return self.config.int_op_cost
        if isinstance(inst, Select):
            return self.config.select_cost
        if isinstance(inst, Cast):
            return self.config.cast_cost
        if isinstance(inst, PtrAdd):
            return self.config.int_op_cost
        if isinstance(inst, Phi):
            return self.config.phi_cost
        if isinstance(inst, Alloca):
            return self.config.alloca_cost
        if isinstance(inst, AtomicRMW):
            return self.config.atomic_cost
        return self.config.branch_cost

    def static_execute_cost(self, inst: Instruction) -> Optional[int]:
        """Cycle cost the executor charges for *inst*, folded at decode
        time, or None when the charge depends on runtime state.

        This is :meth:`simple_cost` restricted to exactly what the
        execution engines charge per executed instruction: folding it
        into the decoded stream cannot change measured cycles because
        the value is a pure function of the instruction and the
        :class:`GPUConfig` — the same number a walk over the IR would
        compute on every execution.  ``ret``/``unreachable`` are free
        and ``phi`` never executes
        (it is folded into branch-edge moves), so they return 0 rather
        than the ``simple_cost`` branch fallback.
        """
        if isinstance(inst, (Ret, Unreachable, Phi)):
            return 0
        if isinstance(inst, (Load, Store, Call)):
            return None  # address space / callee resolved at run time
        if isinstance(inst, (Br, CondBr)):
            return self.config.branch_cost
        return self.simple_cost(inst)

    def signature(self) -> Tuple:
        """Hashable fingerprint of every cost this model can charge.

        Two :class:`CostModel` instances with equal signatures fold
        identical static costs, so decoded streams are interchangeable
        between them (the :class:`GPUConfig` dataclass itself holds
        dict fields and is not hashable).
        """
        c = self.config
        return (
            c.int_op_cost, c.float_op_cost, c.float_div_cost, c.int_div_cost,
            c.branch_cost, c.select_cost, c.cast_cost, c.alloca_cost,
            c.phi_cost, c.atomic_cost, c.call_cost,
            tuple(sorted((int(k), v) for k, v in c.load_cost.items())),
            tuple(sorted((int(k), v) for k, v in c.store_cost.items())),
        )
