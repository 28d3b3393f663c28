"""Compile-time folding must agree with runtime execution.

Random constant expressions are built twice: once with the folding
builder (which reduces them at construction) and once shielded from
folding behind kernel arguments.  Both must produce identical runtime
results — any divergence is a miscompile in either the folder or the
interpreter.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ir import Constant, I64, Module, PTR_GLOBAL, verify_module
from repro.vgpu import LaunchSpec, VirtualGPU
from tests.conftest import make_kernel

OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr",
       "sdiv", "udiv", "srem", "urem"]


@st.composite
def const_expr(draw, depth=3):
    """Returns a nested (op, lhs, rhs) tree over small i64 constants."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.integers(min_value=-50, max_value=50))
    op = draw(st.sampled_from(OPS))
    lhs = draw(const_expr(depth=depth - 1))
    rhs = draw(const_expr(depth=depth - 1))
    return (op, lhs, rhs)


def build_expr(b, tree, opaque):
    """Build the tree; `opaque(v)` wraps leaves to block/allow folding."""
    if isinstance(tree, int):
        return opaque(tree)
    op, lhs, rhs = tree
    lv = build_expr(b, tree[1], opaque)
    rv = build_expr(b, tree[2], opaque)
    try:
        return b._binop(op, lv, rv, "")
    except Exception:
        # Division by a (possibly folded) zero constant etc.
        raise


def run_kernel(module, extra_args):
    gpu = VirtualGPU(module)
    out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
    gpu.run(LaunchSpec(kernel="kern", args=(out, *extra_args)))
    return gpu.read_array(out, np.int64, 1)[0]


class TestFoldingConsistency:
    @settings(max_examples=80, deadline=None)
    @given(const_expr())
    def test_folded_equals_interpreted(self, tree):
        from repro.vgpu.errors import TrapError

        # Build 1: leaves as constants -> builder folds aggressively.
        m1 = Module("folded")
        func1, b1 = make_kernel(m1, params=(PTR_GLOBAL,), arg_names=["out"])
        try:
            v1 = build_expr(b1, tree, lambda c: b1.i64(c))
        except Exception:
            assume(False)
        b1.store(v1, func1.args[0])
        b1.ret()
        verify_module(m1)

        # Build 2: leaves as kernel arguments -> nothing folds.
        leaves = []

        def collect(t):
            if isinstance(t, int):
                leaves.append(t)
            else:
                collect(t[1])
                collect(t[2])

        collect(tree)
        m2 = Module("opaque")
        func2, b2 = make_kernel(
            m2, params=(PTR_GLOBAL,) + (I64,) * len(leaves),
            arg_names=["out"] + [f"c{i}" for i in range(len(leaves))])
        it = iter(func2.args[1:])
        v2 = build_expr(b2, tree, lambda c: next(it))
        b2.store(v2, func2.args[0])
        b2.ret()
        verify_module(m2)

        try:
            r2 = run_kernel(m2, leaves)
        except TrapError:
            assume(False)  # division by zero at runtime: skip the case
            return
        r1 = run_kernel(m1, [])
        assert r1 == r2, f"folded={r1} interpreted={r2} for {tree}"
