"""Shared scaffolding for building runtime libraries directly into a module.

The real system links the device runtime as an LLVM bitcode library
(§II-B); here each runtime flavour *populates* its function bodies into
the application module before optimization, which is semantically the
same link-then-optimize pipeline.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Tuple

from repro.memory.addrspace import AddressSpace
from repro.ir.builder import IRBuilder
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    ArrayType,
    FunctionType,
    I8,
    I32,
    I64,
    Type,
)
from repro.ir.values import Constant, GlobalVariable, Value
from repro.runtime.config import (
    DEBUG_ASSERTIONS,
    DEBUG_FUNCTION_TRACING,
    RuntimeConfig,
)
from repro.runtime.state import GV_DEBUG_KIND, GV_DUMMY, GV_ENV_DEBUG


def _text_digest(payload: bytes) -> str:
    """24 bits of a stable digest: the same name in every process."""
    return hashlib.sha256(payload).hexdigest()[:6]


def cstring(module: Module, text: str, prefix: str = "str") -> GlobalVariable:
    """Intern a NUL-terminated string constant in constant memory.

    The global is named after a digest of the text.  A same-named global
    with another payload (a 24-bit clash) is never reused: the text takes
    the first free ``.N`` suffix instead."""
    payload = text.encode("utf-8") + b"\x00"
    base = f"{prefix}.{_text_digest(payload)}"
    name, clashes = base, 0
    while (existing := module.globals.get(name)) is not None:
        if existing.initializer == payload:
            return existing
        clashes += 1
        name = f"{base}.{clashes}"
    gv = GlobalVariable(
        name,
        ArrayType(I8, len(payload)),
        addrspace=AddressSpace.CONSTANT,
        initializer=payload,
        is_constant=True,
    )
    return module.add_global(gv)


class RuntimeBuilder:
    """Helper that defines runtime functions inside an application module."""

    def __init__(self, module: Module, config: RuntimeConfig) -> None:
        self.module = module
        self.config = config

    # -- function scaffolding ---------------------------------------------------

    def define(
        self,
        name: str,
        ret: Type,
        params: Sequence[Type],
        param_names: Sequence[str],
        inline: bool = True,
    ) -> Tuple[Function, IRBuilder]:
        """Create (or fill in) @name and return it with a positioned builder."""
        func = self.module.declare(name, FunctionType(ret, tuple(params)))
        if not func.is_declaration:
            raise ValueError(f"runtime function @{name} already defined")
        for arg, pname in zip(func.args, param_names):
            arg.name = pname
        func.linkage = "internal"
        if inline:
            func.attrs.add("alwaysinline")
        entry = func.add_block("entry")
        builder = IRBuilder(self.module, entry)
        return func, builder

    # -- configuration constants ---------------------------------------------------

    def config_global(self, name: str, value: int) -> GlobalVariable:
        """Emit a compiler-controlled constant global (§III-F mechanism)."""
        existing = self.module.globals.get(name)
        if existing is not None:
            return existing
        gv = GlobalVariable(
            name,
            I32,
            addrspace=AddressSpace.CONSTANT,
            initializer=[Constant(I32, value)],
            is_constant=True,
        )
        return self.module.add_global(gv)

    def shared_global(self, name: str, ty: Type) -> GlobalVariable:
        existing = self.module.globals.get(name)
        if existing is not None:
            return existing
        gv = GlobalVariable(name, ty, addrspace=AddressSpace.SHARED)
        return self.module.add_global(gv)

    def device_global(self, name: str, ty: Type) -> GlobalVariable:
        existing = self.module.globals.get(name)
        if existing is not None:
            return existing
        # External linkage: the host writes these (device environment),
        # so they must stay out of reach of internal-object reasoning.
        gv = GlobalVariable(name, ty, addrspace=AddressSpace.GLOBAL, linkage="external")
        return self.module.add_global(gv)

    # -- common emitters -----------------------------------------------------------

    def emit_conditional_write(
        self, b: IRBuilder, ptr: Value, value: Value, cond: Value
    ) -> None:
        """Broadcast write by one thread (paper Fig. 7).

        The default scheme is the conditional *pointer* (Fig. 7b): the
        store executes on every thread and therefore dominates the
        subsequent barrier, which is what lets the assumed-memory-content
        analysis justify its effect (§IV-B3).  The "guarded" scheme
        (Fig. 7a) branches instead — available as a design-choice
        ablation; it costs extra control flow and leaves the write
        control-dependent.
        """
        if self.config.broadcast_scheme == "guarded":
            func = b.function
            write_block = func.add_block("gw.write", after=b.block)
            cont_block = func.add_block("gw.cont", after=write_block)
            b.cond_br(cond, write_block, cont_block)
            b.set_insert_point(write_block)
            b.store(value, ptr)
            b.br(cont_block)
            b.set_insert_point(cont_block)
            return
        dummy = self.shared_global(GV_DUMMY, I64)
        target = b.select(cond, ptr, dummy, "cw.target")
        b.store(value, target)

    def emit_team_barrier(self, b: IRBuilder) -> None:
        """The runtime's broadcast barrier: aligned when the co-design
        annotations are enabled, generic otherwise (§IV-D ablation)."""
        if self.config.use_aligned_barriers:
            b.aligned_barrier()
        else:
            b.barrier()

    def emit_debug_guard(self, b: IRBuilder, feature_bit: int) -> Tuple[BasicBlock, BasicBlock]:
        """Branch on (compile-time debug_kind & bit) && runtime env flag.

        Returns (debug_block, continue_block); the builder is left
        positioned in debug_block.  With debug compiled out the condition
        folds to false and the debug block becomes statically dead.
        """
        dk_gv = self.config_global(GV_DEBUG_KIND, self.config.debug_kind)
        env_gv = self.device_global(GV_ENV_DEBUG, I32)
        dk = b.load(I32, dk_gv, "debug.kind")
        bit = b.and_(dk, feature_bit)
        compiled_in = b.icmp("ne", bit, 0)
        env = b.load(I32, env_gv, "debug.env")
        env_bit = b.and_(env, feature_bit)
        active = b.icmp("ne", env_bit, 0)
        both = b.and_(compiled_in, active)

        func = b.function
        debug_block = func.add_block("debug", after=b.block)
        cont_block = func.add_block("debug.cont", after=debug_block)
        b.cond_br(both, debug_block, cont_block)
        b.set_insert_point(debug_block)
        return debug_block, cont_block

    def emit_trace(self, b: IRBuilder, name: str) -> None:
        """Runtime-call function tracing (§III-G, debug bit 1)."""
        if not self.config.debug_enabled:
            # Keep release IR clean: tracing is compiled out entirely when
            # no debug feature was requested at compile time.
            return
        debug_block, cont = self.emit_debug_guard(b, DEBUG_FUNCTION_TRACING)
        msg = cstring(self.module, name, prefix="trace")
        addr = b.cast("ptrtoint", msg, I64)
        b.intrinsic("rt.print_str", [addr])
        b.br(cont)
        b.set_insert_point(cont)

    def emit_assert(self, b: IRBuilder, cond: Value, message: str) -> None:
        """``__assert_assume``: checked in debug, assumed in release (§III-G)."""
        if self.config.debug_enabled:
            debug_block, cont = self.emit_debug_guard(b, DEBUG_ASSERTIONS)
            func = b.function
            fail = func.add_block("assert.fail", after=debug_block)
            b.cond_br(cond, cont, fail)
            b.set_insert_point(fail)
            msg = cstring(self.module, f"assertion failed: {message}", prefix="assert")
            addr = b.cast("ptrtoint", msg, I64)
            b.intrinsic("rt.print_str", [addr])
            b.intrinsic("llvm.trap")
            b.unreachable()
            b.set_insert_point(cont)
        b.assume(cond)
