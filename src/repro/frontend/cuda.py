"""CUDA-style baseline lowering.

The same DSL program lowered the way a native CUDA port is written:
one kernel function per target region, a grid-stride loop, parameters
by value (aggregates flattened into scalar arguments — the §VII
advantage over OpenMP's by-reference aggregates), no runtime library,
and ``__syncthreads``-style aligned barriers.

:class:`CUDALowering` is a :class:`~repro.frontend.lower_common.Lowering`
that supplies only this kernel shape and the four hooks: OpenMP queries
read special registers, barriers are aligned, assertions become
``llvm.assume`` and local arrays live on the thread stack.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.builder import IRBuilder
from repro.ir.instructions import Alloca
from repro.ir.module import Module
from repro.ir.types import ArrayType, I32, I64, Type
from repro.ir.values import Constant, Value
from repro.frontend import ast as A
from repro.frontend.abi import KernelABI, ScalarArg, StructFieldArg
from repro.frontend.lower_common import Lowering, LoweringError


class CUDALowering(Lowering):
    def __init__(self, program: A.Program) -> None:
        super().__init__(program, f"{program.name}.cuda")

    # ------------------------------------------------------------------ hooks --

    @staticmethod
    def omp_query(b: IRBuilder, what: str) -> Value:
        if what == "thread_num":
            return b.thread_id()
        if what == "num_threads":
            return b.block_dim()
        if what == "team_num":
            return b.block_id()
        if what == "num_teams":
            return b.grid_dim()
        if what == "level":
            return Constant(I32, 1)  # CUDA code is always "in parallel"
        raise LoweringError(f"unknown OpenMP query {what!r}")

    @staticmethod
    def barrier(b: IRBuilder) -> None:
        b.aligned_barrier()  # __syncthreads()

    @staticmethod
    def emit_assert(b: IRBuilder, cond: Value, message: str) -> None:
        b.assume(cond)  # release-style CUDA build: asserts compile out

    @staticmethod
    def local_array(b: IRBuilder, decl):
        """CUDA keeps addressable locals on the thread stack."""
        inst = Alloca(ArrayType(decl.elem_ty, decl.count), decl.name)
        entry = b.function.entry
        entry.insert(entry.first_non_phi_index(), inst)
        return inst, None

    # ------------------------------------------------------------------ kernels --

    def _lower_kernel(self, kernel: A.KernelDef) -> None:
        param_types: List[Type] = []
        param_names: List[str] = []
        abi = KernelABI(kernel.name)
        for p in kernel.params:
            if isinstance(p, A.Param):
                param_types.append(p.ty)
                param_names.append(p.name)
                abi.entries.append(ScalarArg(p.name, p.ty))
            else:
                for fname, fty in p.fields:
                    param_types.append(fty)
                    param_names.append(f"{p.name}.{fname}")
                    abi.entries.append(StructFieldArg(p.name, fname, fty))
        self.abis[kernel.name] = abi
        func = self.kernel_function(kernel, param_types, param_names)

        b = IRBuilder(self.module, func.add_block("entry"))
        args = iter(func.args)
        env: Dict[str, Tuple] = {}
        for p in kernel.params:
            if isinstance(p, A.Param):
                env[p.name] = ("value", next(args))
            else:
                env[p.name] = ("struct_vals", {fname: next(args) for fname, _ in p.fields})
        lowerer = self.body_lowerer(b, env)

        # Sequential preamble runs per thread (values live in registers —
        # exactly what the hand-written CUDA ports do).
        for let in kernel.preamble:
            lowerer.stmt(let)

        trip = lowerer.coerce(lowerer.expr(kernel.trip_count), I64)

        bid = b.block_id()
        bdim = b.block_dim()
        tid = b.thread_id()
        start = b.sext(b.add(b.mul(bid, bdim), tid), I64, "iv0")

        if kernel.cuda_grid_stride:
            # Grid-stride loop with a phi induction variable.
            gdim = b.grid_dim()
            stride = b.sext(b.mul(gdim, bdim), I64, "stride")
            pre_block = b.block
            header = func.add_block("loop.header")
            body_block = func.add_block("loop.body")
            exit_block = func.add_block("loop.exit")
            b.br(header)
            b.set_insert_point(header)
            iv = b.phi(I64, "iv")
            iv.add_incoming(start, pre_block)
            b.cond_br(b.icmp("slt", iv, trip), body_block, exit_block)
            b.set_insert_point(body_block)
            env["iv"] = ("value", iv)
            lowerer.stmts(kernel.body)
            if not lowerer.terminated():
                iv.add_incoming(b.add(iv, stride, "iv.next"), b.block)
                b.br(header)
        else:
            # Exact-coverage launch: `if (i < n) body` — the idiomatic
            # CUDA port shape (the launch supplies enough threads).
            body_block = func.add_block("guard.body")
            exit_block = func.add_block("guard.exit")
            b.cond_br(b.icmp("slt", start, trip), body_block, exit_block)
            b.set_insert_point(body_block)
            env["iv"] = ("value", start)
            lowerer.stmts(kernel.body)
            if not lowerer.terminated():
                b.br(exit_block)
        b.set_insert_point(exit_block)
        b.ret()


def lower_program_cuda(program: A.Program) -> Tuple[Module, Dict[str, KernelABI]]:
    return CUDALowering(program).lower()
