"""Static resource accounting for a compiled kernel.

Shared-memory usage is computed like the vendor toolchain does: the sum
of the sizes of shared-address-space globals that survive in the final
binary and are reachable from the kernel.  The paper's Fig. 11 SMem
column is exactly this number — the old runtime retains its small
data-sharing structures (~2.3KB), the new runtime retains a larger
pre-allocated shared stack when unoptimized (~11.3KB), and the fully
optimized build retains nothing (0B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.memory.addrspace import AddressSpace
from repro.memory.layout import DATA_LAYOUT
from repro.ir.callgraph import CallGraph
from repro.ir.instructions import Call, Instruction
from repro.ir.module import Function, Module
from repro.ir.values import GlobalVariable


@dataclass(frozen=True)
class ResourceUsage:
    """Static footprint of one kernel."""

    shared_memory_bytes: int
    registers: int
    instruction_count: int
    shared_globals: tuple


def reachable_functions(kernel: Function, module: Module) -> Set[Function]:
    cg = CallGraph(module)
    funcs = {kernel} | cg.transitive_callees(kernel)
    # Functions whose address is passed around (outlined bodies) are
    # conservatively reachable if referenced from a reachable function.
    changed = True
    while changed:
        changed = False
        for func in list(funcs):
            if func.is_declaration:
                continue
            for inst in func.instructions():
                for op in inst.operands:
                    if isinstance(op, Function) and op not in funcs:
                        funcs.add(op)
                        funcs |= cg.transitive_callees(op)
                        changed = True
    return funcs


def referenced_globals(funcs: Set[Function]) -> Set[GlobalVariable]:
    out: Set[GlobalVariable] = set()
    for func in funcs:
        if func.is_declaration:
            continue
        for inst in func.instructions():
            for op in inst.operands:
                if isinstance(op, GlobalVariable):
                    out.add(op)
    return out


def shared_memory_usage(kernel: Function, module: Module) -> int:
    """Bytes of static shared memory reachable from *kernel*."""
    funcs = reachable_functions(kernel, module)
    total = 0
    for gv in referenced_globals(funcs):
        if gv.addrspace is AddressSpace.SHARED:
            total += DATA_LAYOUT.size_of(gv.value_type)
    return total


def shared_globals_of(kernel: Function, module: Module) -> List[GlobalVariable]:
    funcs = reachable_functions(kernel, module)
    return sorted(
        (gv for gv in referenced_globals(funcs) if gv.addrspace is AddressSpace.SHARED),
        key=lambda g: g.name,
    )


def static_instruction_count(kernel: Function, module: Module) -> int:
    funcs = reachable_functions(kernel, module)
    return sum(
        sum(1 for _ in f.instructions()) for f in funcs if not f.is_declaration
    )


def measure_resources(kernel: Function, module: Module) -> ResourceUsage:
    """Static footprint of *kernel* (each :class:`VirtualGPU` caches it
    per kernel for its own launches)."""
    from repro.vgpu.registers import estimate_kernel_registers

    return ResourceUsage(
        shared_memory_bytes=shared_memory_usage(kernel, module),
        registers=estimate_kernel_registers(kernel, module),
        instruction_count=static_instruction_count(kernel, module),
        shared_globals=tuple(g.name for g in shared_globals_of(kernel, module)),
    )
