"""OpenMP offload lowering (the simulated Clang, §II-B).

Kernels lower to the standard shape:

* *combined* constructs (no sequential preamble) go straight to SPMD
  mode: every thread initializes, builds its capture buffer through
  ``alloc_shared`` (conservative variable globalization, §IV-A2), and
  enters the combined worksharing runtime call (Fig. 5);
* kernels with a sequential preamble lower to *generic* mode: the main
  thread runs the preamble, publishes captures, and drives a
  ``parallel`` region through the state machine.  SPMDzation (§IV-A3)
  may later rewrite these.

Aggregate parameters are passed by reference (§VII), so field reads
inside the loop body are global-memory loads — the residual overhead
the paper observes for XSBench.

:class:`OpenMPLowering` is a :class:`~repro.frontend.lower_common.Lowering`
that populates the device runtime first and supplies only this kernel
shape and the four hooks: OpenMP queries and barriers call the runtime,
assertions go through its debug machinery and local arrays are
globalized through its shared-memory stack.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.builder import IRBuilder
from repro.ir.module import Function, Module
from repro.ir.types import FunctionType, I32, I64, PTR, Type, VOID
from repro.ir.values import Value
from repro.memory.layout import DATA_LAYOUT
from repro.frontend import ast as A
from repro.frontend.abi import KernelABI, ScalarArg, StructRefArg
from repro.frontend.lower_common import Lowering, LoweringError, struct_param_type
from repro.runtime.common import RuntimeBuilder
from repro.runtime.config import RuntimeConfig
from repro.runtime.interface import RUNTIMES, RuntimeInterface

_OMP_QUERY_FIELD = {
    "thread_num": "get_thread_num",
    "num_threads": "get_num_threads",
    "team_num": "get_team_num",
    "num_teams": "get_num_teams",
}


class OpenMPLowering(Lowering):
    """Lowers a DSL program against one device runtime flavour."""

    def __init__(self, program: A.Program, runtime: str, config: RuntimeConfig) -> None:
        super().__init__(program, f"{program.name}.omp.{runtime}")
        self.iface: RuntimeInterface = RUNTIMES[runtime]
        self.config = config
        self.rb = RuntimeBuilder(self.module, config)

    def lower(self) -> Tuple[Module, Dict[str, KernelABI]]:
        self.iface.populate(self.module, self.config)
        return super().lower()

    # ------------------------------------------------------------------ hooks --

    def omp_query(self, b: IRBuilder, what: str) -> Value:
        if what == "level":
            name = "omp_get_level" + ("_old" if self.iface.name == "old" else "")
            return b.call(self.module.get_function(name), [])
        field = _OMP_QUERY_FIELD.get(what)
        if field is None:
            raise LoweringError(f"unknown OpenMP query {what!r}")
        return b.call(self.module.get_function(getattr(self.iface, field)), [])

    def barrier(self, b: IRBuilder) -> None:
        b.call(self.module.get_function(self.iface.barrier), [])

    def emit_assert(self, b: IRBuilder, cond: Value, message: str) -> None:
        self.rb.emit_assert(b, cond, message)

    def local_array(self, b: IRBuilder, decl):
        """Variable globalization (§IV-A2): addressable locals go through
        the shared-memory stack; demotion is the optimizer's job."""
        size = DATA_LAYOUT.size_of(decl.elem_ty) * decl.count
        alloc = self.module.get_function(self.iface.alloc_shared)
        free = self.module.get_function(self.iface.free_shared)
        ptr = b.call(alloc, [b.i64(size)], decl.name)

        def cleanup(builder: IRBuilder) -> None:
            builder.call(free, [ptr, builder.i64(size)])

        return ptr, cleanup

    # ---------------------------------------------------------------- kernels --

    def _capture_plan(self, kernel: A.KernelDef) -> List[Tuple[str, Type, str]]:
        """Ordered capture slots: (name, stored type, kind)."""
        plan: List[Tuple[str, Type, str]] = []
        for p in kernel.params:
            if isinstance(p, A.Param):
                plan.append((p.name, p.ty, "scalar"))
            else:
                plan.append((p.name, PTR, "struct_ref"))
        for let in kernel.preamble:
            if let.ty is None:
                raise LoweringError(
                    f"preamble let {let.name!r} needs an explicit type: "
                    f"it becomes a capture-buffer slot (ABI)"
                )
            plan.append((let.name, let.ty, "preamble"))
        plan.append(("__trip", I64, "trip"))
        return plan

    def _lower_kernel(self, kernel: A.KernelDef) -> None:
        module, iface = self.module, self.iface
        for p in kernel.params:
            if isinstance(p, A.StructParam):
                sty = struct_param_type(kernel.name, p)
                module.add_struct_type(sty)
                self.struct_types[p.name] = sty

        plan = self._capture_plan(kernel)
        body_fn = self._lower_body_function(kernel, plan)
        # Clang routes combined constructs through the parallel runtime
        # too; the loop construct lives inside the parallel region, so
        # ICV queries (omp_get_num_threads, ...) see level 1.
        par_fn = self._lower_parallel_function(kernel, plan, body_fn)

        func = self.kernel_function(
            kernel,
            # Aggregates by reference (§VII).
            [p.ty if isinstance(p, A.Param) else PTR for p in kernel.params],
            [p.name for p in kernel.params],
        )

        abi = KernelABI(kernel.name)
        for p in kernel.params:
            if isinstance(p, A.Param):
                abi.entries.append(ScalarArg(p.name, p.ty))
            else:
                abi.entries.append(StructRefArg(p.name, self.struct_types[p.name]))
        self.abis[kernel.name] = abi

        mode = 0 if kernel.is_generic else 1
        b = IRBuilder(module, func.add_block("entry"))
        r = b.call(module.get_function(iface.target_init), [b.i32(mode)], "exec")
        work = func.add_block("work")
        exit_block = func.add_block("exit")
        b.cond_br(b.icmp("ne", r, b.i32(0)), exit_block, work)
        b.set_insert_point(work)

        env: Dict[str, Tuple] = {}
        for p, arg in zip(kernel.params, func.args):
            if isinstance(p, A.Param):
                env[p.name] = ("value", arg)
            else:
                env[p.name] = ("struct_ref", arg, self.struct_types[p.name])
        lowerer = self.body_lowerer(b, env)

        if kernel.is_generic:
            # Sequential preamble on the main thread.
            for let in kernel.preamble:
                lowerer.stmt(let)

        trip = lowerer.coerce(lowerer.expr(kernel.trip_count), I64)

        # Conservative variable globalization of the capture buffer.
        buf_size = 8 * len(plan)
        buf = b.call(
            module.get_function(iface.alloc_shared), [b.i64(buf_size)], "captures"
        )
        for i, (name, ty, kind) in enumerate(plan):
            slot = b.ptradd(buf, 8 * i, f"cap.{name}")
            if kind == "trip":
                b.store(trip, slot)
            else:
                value = lowerer._read_name(name) if kind != "struct_ref" else env[name][1]
                b.store(lowerer.coerce(value, ty), slot)

        b.call(module.get_function(iface.parallel), [par_fn, buf])
        b.call(module.get_function(iface.free_shared), [buf, b.i64(buf_size)])
        b.call(module.get_function(iface.target_deinit), [b.i32(mode)])
        b.br(exit_block)
        b.set_insert_point(exit_block)
        b.ret()

    def _outlined(self, name: str, first: Tuple[str, Type]) -> Tuple[Function, IRBuilder]:
        """An internal ``void name(first, ptr args)`` whose capture
        pointer is ``readonly noalias``, with a builder at its entry."""
        func = Function(name, FunctionType(VOID, (first[1], PTR)), linkage="internal",
                        arg_names=[first[0], "args"])
        func.param_attrs[1] = {"readonly", "noalias"}
        self.module.add_function(func)
        return func, IRBuilder(self.module, func.add_block("entry"))

    def _lower_body_function(
        self, kernel: A.KernelDef, plan: List[Tuple[str, Type, str]]
    ) -> Function:
        func, b = self._outlined(f"__omp_outlined_body.{kernel.name}", ("iv", I64))
        env: Dict[str, Tuple] = {}
        for i, (name, ty, kind) in enumerate(plan):
            value = b.load(ty, b.ptradd(func.args[1], 8 * i, f"cap.{name}"), name)
            if kind == "struct_ref":
                env[name] = ("struct_ref", value, self.struct_types[name])
            else:
                env[name] = ("value", value)
        env["iv"] = ("value", func.args[0])
        lowerer = self.body_lowerer(b, env)
        lowerer.stmts(kernel.body)
        if not lowerer.terminated():
            b.ret()
        return func

    def _lower_parallel_function(
        self,
        kernel: A.KernelDef,
        plan: List[Tuple[str, Type, str]],
        body_fn: Function,
    ) -> Function:
        func, b = self._outlined(f"__omp_outlined.{kernel.name}", ("omp_tid", I32))
        trip_index = next(i for i, (_, _, k) in enumerate(plan) if k == "trip")
        trip = b.load(I64, b.ptradd(func.args[1], 8 * trip_index), "trip")
        b.call(
            self.module.get_function(self.iface.distribute_parallel_for),
            [body_fn, func.args[1], trip],
        )
        b.ret()
        return func


def lower_program_openmp(
    program: A.Program, runtime: str, config: RuntimeConfig
) -> Tuple[Module, Dict[str, KernelABI]]:
    return OpenMPLowering(program, runtime, config).lower()
