"""S1: every engine raises bit-identical errors.

Every device failure mode must produce the same exception type, the
same frozen message (formatted by the factory helpers in
``repro.vgpu.errors``), and the same attached
:class:`DeviceErrorContext` under per-op and fused decoded execution
and the warp engine — the invariant CrashReport determinism builds on.
"""

import pytest

from repro.ir import I64, Module, PTR_GLOBAL, verify_module
from repro.memory.memmodel import MemoryError_
from repro.vgpu import (
    AssumptionViolation,
    CallStackOverflow,
    LaunchSpec,
    TrapError,
    VirtualGPU,
)
from tests.conftest import ENGINE_LABELS, engine_mode, make_function, make_kernel


def _fail_both(build_module, *, debug_checks=False, args=()):
    """Run the module under the per-op reference and every engine;
    return [(exc, context_dict)]."""
    out = []
    for label in ENGINE_LABELS:
        module = build_module()
        with engine_mode(label) as engine:
            gpu = VirtualGPU(module, engine=engine, debug_checks=debug_checks)
            with pytest.raises(Exception) as excinfo:
                gpu.run(LaunchSpec(kernel="kern", args=list(args)))
        exc = excinfo.value
        context = exc.context.to_dict() if exc.context is not None else None
        out.append((exc, context))
    return out


def _assert_unified(results, expected_type, message_contains):
    exc_a, ctx_a = results[0]
    assert type(exc_a) is expected_type
    assert message_contains in str(exc_a)
    assert ctx_a is not None and ctx_a["function"] == "kern"
    for exc_b, ctx_b in results[1:]:
        assert type(exc_b) is expected_type
        assert str(exc_a) == str(exc_b)
        assert ctx_a == ctx_b


def test_division_by_zero():
    def build():
        module = Module("m")
        func, b = make_kernel(module, params=(I64,))
        b.sdiv(b.i64(1), func.args[0])
        b.ret()
        verify_module(module)
        return module

    _assert_unified(_fail_both(build, args=(0,)),
                    TrapError, "integer division by zero")


def test_unreachable():
    def build():
        module = Module("m")
        func, b = make_kernel(module, params=())
        b.unreachable()
        verify_module(module)
        return module

    _assert_unified(_fail_both(build), TrapError,
                    "unreachable executed in @kern (team 0, thread 0)")


def test_trap_intrinsic():
    def build():
        module = Module("m")
        func, b = make_kernel(module, params=())
        b.intrinsic("llvm.trap")
        b.ret()
        verify_module(module)
        return module

    _assert_unified(_fail_both(build), TrapError,
                    "trap in @kern (team 0, thread 0)")


def test_assumption_violation_in_debug_mode():
    def build():
        module = Module("m")
        func, b = make_kernel(module, params=(I64,))
        b.assume(b.icmp("eq", func.args[0], b.i64(1)))
        b.ret()
        verify_module(module)
        return module

    _assert_unified(_fail_both(build, debug_checks=True, args=(0,)),
                    AssumptionViolation,
                    "assumption violated in @kern (team 0, thread 0)")


def test_call_stack_overflow():
    def build():
        module = Module("m")
        rec, rb = make_function(module, name="rec", ret=I64, params=(I64,))
        rb.ret(rb.call(rec, [rb.add(rec.args[0], rb.i64(1))]))
        func, b = make_kernel(module, params=())
        b.call(rec, [b.i64(0)])
        b.ret()
        verify_module(module)
        return module

    results = _fail_both(build)
    exc_a, ctx_a = results[0]
    assert "call stack overflow in @rec (team 0, thread 0)" in str(exc_a)
    # The context names the innermost frame and a 512-deep device stack.
    assert ctx_a["function"] == "rec"
    assert len(ctx_a["call_stack"]) > 500
    for exc_b, ctx_b in results[1:]:
        assert type(exc_a) is type(exc_b) is CallStackOverflow
        assert str(exc_a) == str(exc_b)
        assert ctx_a == ctx_b


def test_context_carries_the_device_output_tail():
    def build():
        module = Module("m")
        func, b = make_kernel(module, params=())
        for i in range(12):
            b.intrinsic("rt.print_i64", [b.i64(i)])
        b.unreachable()
        verify_module(module)
        return module

    results = _fail_both(build)
    ctx_a = results[0][1]
    for _, ctx_b in results[1:]:
        assert ctx_a == ctx_b
    # OUTPUT_TAIL_LINES == 8: the tail keeps the *last* prints.
    assert ctx_a["output_tail"] == [str(i) for i in range(4, 12)]


def bad_tag_module(access):
    """kern(p, v): a little arithmetic, then a load through the pointer
    *p* (*access* "load") or a store of ``v + 1`` to it ("store")."""
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64), arg_names=["p", "v"])
    p, v = func.args
    w = b.add(b.mul(v, b.i64(3)), b.i64(1))
    if access == "load":
        b.store(b.load(I64, p), b.ptradd(p, b.i64(8)))
    else:
        b.store(w, p)
    b.ret()
    verify_module(module)
    return module


@pytest.mark.parametrize("access", ["load", "store"])
@pytest.mark.parametrize("tag", [2, 9, -1])
def test_pointer_tag_naming_no_address_space(access, tag):
    """A pointer whose tag (``ptr >> 48``) names no address space — the
    unused tag 2, a tag past LOCAL or a negative pointer — is a device
    memory error naming the tag, identical on every engine."""
    ptr = (tag << 48) | 16
    results = _fail_both(lambda: bad_tag_module(access), args=(ptr, 5))
    _assert_unified(results, MemoryError_,
                    f"has tag {tag}, which names no address space")
    assert results[0][1]["steps"] == 3  # mul, add and the access
