"""Kernel launch ABI: how host values become kernel arguments.

The OpenMP lowering passes aggregates by reference (§VII), so the
harness must materialize struct parameters in device global memory; the
CUDA lowering flattens them into by-value arguments.  ``KernelABI``
hides the difference from the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.memory.layout import DATA_LAYOUT
from repro.memory.memmodel import encode_scalar
from repro.ir.types import StructType, Type


@dataclass(frozen=True)
class ScalarArg:
    name: str
    ty: Type


@dataclass(frozen=True)
class StructRefArg:
    """Struct passed by reference: the harness packs the field values
    into a device-memory blob and passes its address."""

    name: str
    struct_type: StructType


@dataclass(frozen=True)
class StructFieldArg:
    """One flattened field of a by-value struct (CUDA lowering)."""

    param: str
    field_name: str
    ty: Type


ABIEntry = Any  # ScalarArg | StructRefArg | StructFieldArg


@dataclass
class KernelABI:
    """Marshalling recipe for one kernel."""

    kernel_name: str
    entries: List[ABIEntry] = field(default_factory=list)

    def marshal(self, gpu, host_args: Dict[str, Any]) -> List[Any]:
        """Build the positional argument list for ``VirtualGPU.launch``.

        ``host_args`` maps parameter names to host values; struct
        parameters are given as dicts of field values.
        """
        out: List[Any] = []
        for entry in self.entries:
            if isinstance(entry, ScalarArg):
                out.append(host_args[entry.name])
            elif isinstance(entry, StructFieldArg):
                out.append(host_args[entry.param][entry.field_name])
            elif isinstance(entry, StructRefArg):
                values = host_args[entry.name]
                sty = entry.struct_type
                layout = DATA_LAYOUT.struct_layout(sty)
                blob = bytearray(layout.size)
                for (fname, fty), offset in zip(sty.fields, layout.offsets):
                    raw = encode_scalar(values[fname], fty)
                    blob[offset : offset + len(raw)] = raw
                ptr = gpu.alloc_bytes(max(1, len(blob)))
                gpu.memory.write_raw(ptr, bytes(blob))
                out.append(ptr)
            else:  # pragma: no cover
                raise TypeError(f"unknown ABI entry {entry!r}")
        return out
