"""Static resource accounting for a compiled kernel.

Shared-memory usage is computed like the vendor toolchain does: the sum
of the sizes of shared-address-space globals that survive in the final
binary and are reachable from the kernel.  The paper's Fig. 11 SMem
column is exactly this number — the old runtime retains its small
data-sharing structures (~2.3KB), the new runtime retains a larger
pre-allocated shared stack when unoptimized (~11.3KB), and the fully
optimized build retains nothing (0B).

:func:`measure_resources` runs on a device's first launch of a kernel
(once per kernel of a frozen module, which keeps the result), so it
builds one :class:`CallGraph` and walks each reachable function once
(:class:`_Footprint`) for the shared globals and the instruction
count; the register estimate reuses the same call graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.memory.addrspace import AddressSpace
from repro.memory.layout import DATA_LAYOUT
from repro.ir.callgraph import CallGraph
from repro.ir.module import Function, Module
from repro.ir.values import GlobalVariable


@dataclass(frozen=True)
class ResourceUsage:
    """Static footprint of one kernel."""

    shared_memory_bytes: int
    registers: int
    instruction_count: int
    shared_globals: tuple


class _Footprint:
    """One walk over what *kernel* reaches: the shared-address-space
    globals the reachable functions reference and their static
    instruction count.

    Functions are reachable through calls and, conservatively, through
    a taken address: a function referenced as an operand of a reachable
    function (outlined bodies passed around) is reachable with its
    callees.  Each reachable function's instructions are walked once.
    """

    __slots__ = ("shared", "instructions")

    def __init__(self, kernel: Function, cg: CallGraph) -> None:
        funcs = {kernel} | cg.transitive_callees(kernel)
        shared: Set[GlobalVariable] = set()
        count = 0
        work = list(funcs)
        while work:
            func = work.pop()
            if func.is_declaration:
                continue
            for inst in func.instructions():
                count += 1
                for op in inst.operands:
                    if isinstance(op, GlobalVariable):
                        if op.addrspace is AddressSpace.SHARED:
                            shared.add(op)
                    elif isinstance(op, Function) and op not in funcs:
                        new = ({op} | cg.transitive_callees(op)) - funcs
                        funcs |= new
                        work.extend(new)
        self.shared = sorted(shared, key=lambda g: g.name)
        self.instructions = count

    @property
    def shared_memory_bytes(self) -> int:
        return sum(DATA_LAYOUT.size_of(gv.value_type) for gv in self.shared)


def shared_memory_usage(kernel: Function, module: Module) -> int:
    """Bytes of static shared memory reachable from *kernel*."""
    return _Footprint(kernel, CallGraph(module)).shared_memory_bytes


def static_instruction_count(kernel: Function, module: Module) -> int:
    return _Footprint(kernel, CallGraph(module)).instructions


def measure_resources(kernel: Function, module: Module) -> ResourceUsage:
    """Static footprint of *kernel* (cached per kernel by each
    :class:`VirtualGPU`, and on a frozen *module*): one call graph, one
    walk."""
    from repro.vgpu.registers import estimate_kernel_registers

    cg = CallGraph(module)
    footprint = _Footprint(kernel, cg)
    return ResourceUsage(
        shared_memory_bytes=footprint.shared_memory_bytes,
        registers=estimate_kernel_registers(kernel, module, cg),
        instruction_count=footprint.instructions,
        shared_globals=tuple(g.name for g in footprint.shared),
    )
