"""Textual IR parser: print/parse round-trips and error handling."""

import numpy as np
import pytest

from repro.apps.common import run_app
from repro.ir import (
    F64,
    I32,
    I64,
    Module,
    PTR_GLOBAL,
    print_module,
    verify_module,
)
from repro.ir.parser import ParseError, parse_module
from repro.runtime.config import RuntimeConfig
from repro.runtime.interface import NEW_RUNTIME, OLD_RUNTIME
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.conftest import make_function, make_kernel


def roundtrip(module):
    text1 = print_module(module)
    parsed = parse_module(text1)
    verify_module(parsed)
    assert print_module(parsed) == text1
    return parsed


class TestRoundTrip:
    def test_simple_function(self, module):
        func, b = make_function(module, arg_names=["x"])
        v = b.add(func.args[0], 1)
        b.ret(v)
        roundtrip(module)

    def test_control_flow_and_phis(self, module):
        func, b = make_function(module)
        loop = func.add_block("loop")
        done = func.add_block("done")
        entry = func.entry
        b.br(loop)
        b.set_insert_point(loop)
        iv = b.phi(I32, "iv")
        iv.add_incoming(b.i32(0), entry)
        nxt = b.add(iv, 1)
        iv.add_incoming(nxt, loop)
        b.cond_br(b.icmp("slt", nxt, func.args[0]), loop, done)
        b.set_insert_point(done)
        b.ret(iv)
        roundtrip(module)

    def test_memory_and_atomics(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["p"])
        slot = b.alloca(I64)
        b.store(b.i64(1), slot)
        v = b.load(I64, slot)
        b.atomic_rmw("add", func.args[0], v)
        b.store(v, b.ptradd(func.args[0], 8), volatile=True)
        b.load(I64, func.args[0], volatile=True)
        b.ret()
        roundtrip(module)

    def test_struct_types_and_globals(self, module):
        from repro.memory.addrspace import AddressSpace
        from repro.ir import ArrayType, Constant, GlobalVariable, StructType

        module.add_struct_type(StructType("Pair", (("a", I32), ("b", F64))))
        module.add_global(GlobalVariable(
            "cfg", I32, addrspace=AddressSpace.CONSTANT,
            initializer=[Constant(I32, 3)], is_constant=True))
        module.add_global(GlobalVariable(
            "tile", ArrayType(F64, 8), addrspace=AddressSpace.SHARED))
        func, b = make_kernel(module, params=())
        b.ret()
        parsed = roundtrip(module)
        assert parsed.get_global("cfg").is_constant
        assert parsed.struct_types["Pair"].field_type("b") == F64

    def test_full_new_runtime(self):
        module = Module("rt")
        NEW_RUNTIME.populate(module, RuntimeConfig())
        roundtrip(module)

    def test_full_old_runtime(self):
        module = Module("rt")
        OLD_RUNTIME.populate(module, RuntimeConfig())
        roundtrip(module)

    def test_assumptions_and_attrs_preserved(self, module):
        func, b = make_function(module)
        func.assumptions.add("ext_aligned_barrier")
        func.attrs.add("alwaysinline")
        func.linkage = "internal"
        b.ret(func.args[0])
        parsed = roundtrip(module)
        pf = parsed.get_function("f")
        assert "ext_aligned_barrier" in pf.assumptions
        assert "alwaysinline" in pf.attrs
        assert pf.linkage == "internal"


class TestSemanticEquivalence:
    def test_parsed_module_executes_identically(self):
        """print -> parse must preserve behaviour, not just text."""
        from repro.apps import testsnap
        from repro.frontend.driver import CompileOptions, Target

        size = {"n_atoms": 64, "n_neighbors": 4}
        result = run_app(testsnap, CompileOptions(Target.OPENMP_NEW), size=size,
                         num_teams=2, threads_per_team=32)
        parsed = parse_module(print_module(result.compiled.module))
        verify_module(parsed)

        gpu = VirtualGPU(parsed)
        host_args, verify = testsnap.prepare(gpu, size)
        args = result.compiled.abi(testsnap.KERNEL).marshal(gpu, host_args)
        profile = gpu.run(LaunchSpec(kernel=testsnap.KERNEL, num_teams=2,
                                     threads_per_team=32, args=args)).profile
        assert verify(gpu, host_args) < 1e-12
        assert profile.cycles == result.profile.cycles


class TestErrors:
    def test_unknown_instruction(self):
        text = """define void @f() {
entry:
  frobnicate i32 1, 2
}
"""
        with pytest.raises(ParseError, match="frobnicate"):
            parse_module(text)

    def test_undefined_value(self):
        text = """define i32 @f() {
entry:
  ret i32 %ghost
}
"""
        with pytest.raises(ParseError):
            parse_module(text)

    def test_unterminated_body(self):
        text = "define void @f() {\nentry:\n  ret void\n"
        with pytest.raises(ParseError, match="unterminated"):
            parse_module(text)

    def test_unknown_symbol(self):
        text = """define void @f() {
entry:
  call void @missing()
}
"""
        with pytest.raises(ParseError, match="missing"):
            parse_module(text)

    def test_hand_written_ir_accepted(self):
        text = """; module hand
@counter = internal addrspace(1) global i64 zeroinitializer

define void @kern(i64 %n) kernel {
entry:
  %c = icmp sgt i64 %n, 0
  br %c, label %work, label %done
work:
  %old = atomicrmw add @counter, i64 %n
  br label %done
done:
  ret void
}
"""
        module = parse_module(text)
        verify_module(module)
        gpu = VirtualGPU(module)
        gpu.run(LaunchSpec(kernel="kern", threads_per_team=4, args=(5,)))
        gv = module.get_global("counter")
        assert gpu.read_scalar(gpu.global_addresses[gv], I64) == 20
