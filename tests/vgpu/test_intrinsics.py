"""GPU identity intrinsics, math, assumptions, traps and device printf.

Every test runs on each engine (decoded and warp) and on the per-op
decoded reference, on a fresh device each; calls through
``call_indirect`` must behave like direct calls, and every registered
intrinsic has exactly one decoded implementation.
"""

import math
import struct

import numpy as np
import pytest

from repro.ir import F64, I32, I64, PTR_GLOBAL, VOID, verify_module
from repro.ir.intrinsics import all_intrinsics, declare_intrinsic
from repro.ir.types import F32, I8
from repro.vgpu import (
    AssumptionViolation,
    LaunchSpec,
    SimulationError,
    TrapError,
    VirtualGPU,
)
from repro.vgpu import decode as D
from tests.conftest import ENGINE_LABELS, PER_OP, engine_mode, make_kernel


def _devices(module, **kwargs):
    """Yield (label, fresh device) for the per-op reference and every
    engine; the caller's loop body runs inside that label's
    :func:`engine_mode`."""
    for label in ENGINE_LABELS:
        with engine_mode(label) as engine:
            yield label, VirtualGPU(module, engine=engine, **kwargs)


class TestIdentity:
    def test_ids_and_geometry(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        tid = b.thread_id()
        bid = b.block_id()
        bdim = b.block_dim()
        gdim = b.grid_dim()
        idx = b.sext(b.add(b.mul(bid, bdim), tid), I64)
        packed = b.add(
            b.mul(b.sext(gdim, I64), b.i64(1000000)),
            b.add(b.mul(b.sext(bdim, I64), b.i64(1000)), idx),
        )
        b.store(packed, b.array_gep(func.args[0], I64, idx))
        b.ret()
        for engine, gpu in _devices(module):
            out = gpu.alloc_array(np.zeros(6, dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=3,
                               args=(out,)))
            vals = gpu.read_array(out, np.int64, 6)
            for i, v in enumerate(vals):
                assert v == 2 * 1000000 + 3 * 1000 + i, engine

    def test_warp_and_lane(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        lane = b.intrinsic("gpu.lane_id", [], "lane")
        tid = b.sext(b.thread_id(), I64)
        b.store(b.sext(lane, I64), b.array_gep(func.args[0], I64, tid))
        b.ret()
        for engine, gpu in _devices(module):
            out = gpu.alloc_array(np.zeros(64, dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", threads_per_team=64,
                               args=(out,)))
            vals = gpu.read_array(out, np.int64, 64)
            assert list(vals) == [t % 32 for t in range(64)], engine


class TestMath:
    @pytest.mark.parametrize("name,arg,expected", [
        ("llvm.sqrt.f64", 9.0, 3.0),
        ("llvm.exp.f64", 0.0, 1.0),
        ("llvm.log.f64", 1.0, 0.0),
        ("llvm.sin.f64", 0.0, 0.0),
        ("llvm.cos.f64", 0.0, 1.0),
        ("llvm.fabs.f64", -2.5, 2.5),
        ("llvm.floor.f64", 2.7, 2.0),
    ])
    def test_unary_math(self, module, name, arg, expected):
        func, b = make_kernel(module, params=(PTR_GLOBAL, F64), arg_names=["out", "x"])
        v = b.intrinsic(name, [func.args[1]])
        b.store(v, func.args[0])
        b.ret()
        for engine, gpu in _devices(module):
            out = gpu.alloc_array(np.zeros(1))
            gpu.run(LaunchSpec(kernel="kern", args=(out, arg)))
            got = gpu.read_array(out, np.float64, 1)[0]
            assert got == pytest.approx(expected), engine

    def test_pow_fmin_fmax(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        p = b.intrinsic("llvm.pow.f64", [b.f64(2.0), b.f64(10.0)])
        mn = b.intrinsic("llvm.fmin.f64", [p, b.f64(100.0)])
        mx = b.intrinsic("llvm.fmax.f64", [mn, b.f64(512.0)])
        b.store(mx, func.args[0])
        b.ret()
        for engine, gpu in _devices(module):
            out = gpu.alloc_array(np.zeros(1))
            gpu.run(LaunchSpec(kernel="kern", args=(out,)))
            assert gpu.read_array(out, np.float64, 1)[0] == 512.0, engine

    def test_sqrt_of_negative_is_nan(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        v = b.intrinsic("llvm.sqrt.f64", [b.f64(-1.0)])
        b.store(v, func.args[0])
        b.ret()
        for engine, gpu in _devices(module):
            out = gpu.alloc_array(np.zeros(1))
            gpu.run(LaunchSpec(kernel="kern", args=(out,)))
            assert math.isnan(gpu.read_array(out, np.float64, 1)[0]), engine

    def test_math_counts_as_flop(self, module):
        func, b = make_kernel(module, params=(F64,), arg_names=["x"])
        b.intrinsic("llvm.sqrt.f64", [func.args[0]])
        b.ret()
        for engine, gpu in _devices(module):
            profile = gpu.run(LaunchSpec(kernel="kern", args=(2.0,))).profile
            assert profile.flops >= 1, engine


#: The math intrinsics' semantics on ordinary inputs, written out
#: independently of the simulator: ``math`` with the documented domain
#: edges, and NumPy's IEEE ``floor`` (``math.floor`` drops the sign of
#: -0.0).  Every engine runs the same scalar template for these (warp
#: lane by lane), so no engine comparison can see a bug in them; these
#: values can.  :data:`MATH_EDGES` covers the IEEE special cases.
MATH_ORACLE = {
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else math.nan,
    "exp": math.exp,
    "log": lambda x: math.log(x) if x > 0 else -math.inf if x == 0 else math.nan,
    "sin": math.sin,
    "cos": math.cos,
    "fabs": math.fabs,
    "floor": lambda x: float(np.floor(x)),
    "pow": math.pow,
    "fmin": min,
    "fmax": max,
}
MATH_BINARY = ("pow", "fmin", "fmax")

#: One value per lane: signs, zeros, fractions and magnitudes whose
#: results stay finite in f32.
MATH_X = (-7.75, -2.5, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5,
          3.0, 3.14159, 5.5, 10.0, 12.3, 19.9, -19.9, 0.1, 1e-3, 7.0, -3.3,
          4.75)
#: Binary operands: positive bases (``pow`` of a negative base to a
#: fractional power is a domain error) and exponents of both signs.
MATH_A = tuple(0.5 + 0.75 * i for i in range(len(MATH_X)))
MATH_B = tuple((-2.0, -1.0, 0.5, 1.5, 2.0, 3.0)[i % 6] for i in range(len(MATH_X)))

_INF, _NAN = math.inf, math.nan

#: IEEE results on the edge inputs (+-0, +-inf, NaN, negative domains,
#: overflow), as ((operands), f64 result); an f32 run expects the result
#: rounded to f32, overflowing to +-inf.  ``fmin``/``fmax`` are LLVM's
#: ``minnum``/``maxnum``: a NaN operand yields the other one.
MATH_EDGES = {
    "sqrt": [((0.0,), 0.0), ((-0.0,), -0.0), ((_INF,), _INF),
             ((-_INF,), _NAN), ((_NAN,), _NAN), ((-1.0,), _NAN)],
    "exp": [((0.0,), 1.0), ((-0.0,), 1.0), ((_INF,), _INF), ((-_INF,), 0.0),
            ((_NAN,), _NAN), ((100.0,), math.exp(100.0)), ((1000.0,), _INF),
            ((-1000.0,), 0.0)],
    "log": [((0.0,), -_INF), ((-0.0,), -_INF), ((_INF,), _INF),
            ((-_INF,), _NAN), ((_NAN,), _NAN), ((-1.0,), _NAN)],
    "sin": [((0.0,), 0.0), ((-0.0,), -0.0), ((_INF,), _NAN),
            ((-_INF,), _NAN), ((_NAN,), _NAN)],
    "cos": [((0.0,), 1.0), ((-0.0,), 1.0), ((_INF,), _NAN),
            ((-_INF,), _NAN), ((_NAN,), _NAN)],
    "fabs": [((0.0,), 0.0), ((-0.0,), 0.0), ((_INF,), _INF),
             ((-_INF,), _INF), ((_NAN,), _NAN)],
    "floor": [((0.0,), 0.0), ((-0.0,), -0.0), ((_INF,), _INF),
              ((-_INF,), -_INF), ((_NAN,), _NAN), ((-0.5,), -1.0),
              ((0.5,), 0.0), ((2.0 ** 60,), 2.0 ** 60)],
    "pow": [((-2.0, 0.5), _NAN), ((10.0, 400.0), _INF),
            ((-10.0, 401.0), -_INF), ((-10.0, 400.0), _INF),
            ((0.0, -1.0), _INF), ((-0.0, -1.0), -_INF), ((-0.0, -2.0), _INF),
            ((_NAN, 0.0), 1.0), ((1.0, _NAN), 1.0), ((_INF, -1.0), 0.0),
            ((-_INF, 3.0), -_INF), ((_NAN, 2.0), _NAN), ((-1.0, _INF), 1.0)],
    "fmin": [((1.0, _NAN), 1.0), ((_NAN, 1.0), 1.0), ((_NAN, _NAN), _NAN),
             ((-_INF, _INF), -_INF), ((_INF, _NAN), _INF)],
    "fmax": [((1.0, _NAN), 1.0), ((_NAN, 1.0), 1.0), ((_NAN, _NAN), _NAN),
             ((-_INF, _INF), _INF), ((-_INF, _NAN), -_INF)],
}

#: Operands of the no-host-exception guard: every edge kind, in every
#: operand position of the binary rows.
EDGE_GRID = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.5, 3.0, 100.0, 1e300,
             -1e300, 5e-324, _INF, -_INF, _NAN)

_FMT = {"f32": "<f", "f64": "<d"}


def _as(sfx, x):
    """*x* rounded to the precision of *sfx*."""
    return struct.unpack(_FMT[sfx], struct.pack(_FMT[sfx], x))[0]


def _math_module(name, ty, masked):
    """kern(x, y, out): ``out[tid] = name(x[tid] [, y[tid]])``; with
    *masked*, only odd lanes call it and even lanes store ``x[tid]``."""
    from repro.ir import Module

    op = name.split(".")[1]
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL,) * 3,
                          arg_names=["x", "y", "out"])
    tid = b.sext(b.thread_id(), I64)
    x = b.load(ty, b.array_gep(func.args[0], ty, tid))
    y = b.load(ty, b.array_gep(func.args[1], ty, tid))
    args = [x, y] if op in MATH_BINARY else [x]
    if masked:
        entry = b.block
        call = func.add_block("call")
        join = func.add_block("join")
        b.cond_br(b.icmp("ne", b.and_(tid, b.i64(1)), b.i64(0)), call, join)
        b.set_insert_point(call)
        r = b.intrinsic(name, args)
        b.br(join)
        b.set_insert_point(join)
        v = b.phi(ty, "v")
        v.add_incoming(r, call)
        v.add_incoming(x, entry)
    else:
        v = b.intrinsic(name, args)
    b.store(v, b.array_gep(func.args[2], ty, tid))
    b.ret()
    verify_module(module)
    return module


def _same_floats(got, want):
    """Bitwise equal lanes, where any NaN matches any NaN."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def _run_math(name, xs, ys):
    """Per engine, (engine, out lanes or the SimulationError raised) of
    ``out[tid] = name(x[tid] [, y[tid]])`` over *xs*/*ys* (f32 inputs
    round to f32, overflowing to +-inf).  Other exceptions propagate."""
    ty, dtype = (F32, np.float32) if name.endswith(".f32") else (F64, np.float64)
    with np.errstate(over="ignore"):
        xs, ys = np.array(xs, dtype), np.array(ys, dtype)
    module = _math_module(name, ty, masked=False)
    runs = []
    for engine, gpu in _devices(module):
        bufs = (gpu.alloc_array(xs), gpu.alloc_array(ys),
                gpu.alloc_array(np.zeros_like(xs)))
        spec = LaunchSpec(kernel="kern", threads_per_team=len(xs), args=bufs)
        try:
            gpu.run(spec)
        except SimulationError as exc:
            runs.append((engine, exc))
            continue
        runs.append((engine, gpu.read_array(bufs[2], dtype, len(xs))))
    return runs


def _math_names():
    return sorted(info.name for info in all_intrinsics()
                  if info.name.startswith("llvm.")
                  and info.name.rsplit(".", 1)[-1] in _FMT)


class TestMathExpectedValues:
    """Every math intrinsic, at f32 and f64, against :data:`MATH_ORACLE`
    on the decoded engine, the per-op reference and warp with a
    different operand in every lane (all lanes active, or every other
    lane under a divergent branch)."""

    def test_every_math_intrinsic_has_an_oracle(self):
        assert _math_names() == sorted(
            f"llvm.{op}.{sfx}" for op in MATH_ORACLE for sfx in _FMT)

    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked"])
    @pytest.mark.parametrize("name", _math_names())
    def test_lanes_match_the_oracle(self, name, masked):
        op, sfx = name.split(".")[1:]
        ty, dtype = (F32, np.float32) if sfx == "f32" else (F64, np.float64)
        xs, ys = (MATH_A, MATH_B) if op in MATH_BINARY else (MATH_X, MATH_X)
        xs = [_as(sfx, v) for v in xs]
        ys = [_as(sfx, v) for v in ys]
        expected = [
            _as(sfx, MATH_ORACLE[op](x, y) if op in MATH_BINARY
                else MATH_ORACLE[op](x))
            if lane % 2 or not masked else x
            for lane, (x, y) in enumerate(zip(xs, ys))
        ]
        want = b"".join(struct.pack(_FMT[sfx], v) for v in expected)
        n = len(xs)
        module = _math_module(name, ty, masked)
        for engine, gpu in _devices(module):
            bufs = (gpu.alloc_array(np.array(xs, dtype)),
                    gpu.alloc_array(np.array(ys, dtype)),
                    gpu.alloc_array(np.zeros(n, dtype)))
            gpu.run(LaunchSpec(kernel="kern", threads_per_team=n, args=bufs))
            got = gpu.memory.read_raw(bufs[2], n * np.dtype(dtype).itemsize)
            assert got == want, (engine, np.frombuffer(got, dtype).tolist(),
                                 expected)

    def test_every_math_intrinsic_has_edge_cases(self):
        assert sorted(MATH_EDGES) == sorted(MATH_ORACLE)

    @pytest.mark.parametrize("name", _math_names())
    def test_edge_inputs_give_the_ieee_result(self, name):
        cases = MATH_EDGES[name.split(".")[1]]
        dtype = np.float32 if name.endswith(".f32") else np.float64
        with np.errstate(over="ignore"):
            want = np.array([result for _, result in cases], dtype)
        xs = [args[0] for args, _ in cases]
        ys = [args[-1] for args, _ in cases]
        for engine, got in _run_math(name, xs, ys):
            assert isinstance(got, np.ndarray), (engine, got)
            assert _same_floats(got, want), (engine, got.tolist(), want.tolist())

    @pytest.mark.parametrize("name", _math_names())
    def test_no_host_exception_escapes_on_the_edge_grid(self, name):
        """Each run finishes or raises a SimulationError; any other
        exception escapes :func:`_run_math` and fails the test."""
        if name.split(".")[1] in MATH_BINARY:
            pairs = [(x, y) for x in EDGE_GRID for y in EDGE_GRID]
        else:
            pairs = [(x, x) for x in EDGE_GRID]
        runs = _run_math(name, *zip(*pairs))
        assert [engine for engine, _ in runs] == list(ENGINE_LABELS)


class TestAssumptions:
    def _assume_kernel(self, module):
        func, b = make_kernel(module, params=(I64,), arg_names=["x"])
        b.assume(b.icmp("eq", func.args[0], b.i64(42)))
        b.ret()

    def test_violated_assumption_raises_in_debug(self, module):
        self._assume_kernel(module)
        for engine, gpu in _devices(module, debug_checks=True):
            with pytest.raises(AssumptionViolation):
                gpu.run(LaunchSpec(kernel="kern", args=(7,)))

    def test_valid_assumption_passes_in_debug(self, module):
        self._assume_kernel(module)
        for engine, gpu in _devices(module, debug_checks=True):
            gpu.run(LaunchSpec(kernel="kern", args=(42,)))

    def test_assumption_ignored_in_release(self, module):
        self._assume_kernel(module)
        for engine, gpu in _devices(module, debug_checks=False):
            gpu.run(LaunchSpec(kernel="kern", args=(7,)))

    def test_expect_passes_value_through(self, module):
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        cond = b.icmp("eq", b.thread_id(), b.i32(0))
        hinted = b.intrinsic("llvm.expect", [cond, b.i1(True)])
        b.store(b.zext(hinted, I64), func.args[0])
        b.ret()
        for engine, gpu in _devices(module):
            out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", args=(out,)))
            assert gpu.read_array(out, np.int64, 1)[0] == 1, engine


class TestPrintAndTrap:
    def test_print_i64_collected(self, module):
        func, b = make_kernel(module, params=())
        b.intrinsic("rt.print_i64", [b.i64(-5)])
        b.ret()
        for engine, gpu in _devices(module):
            profile = gpu.run(LaunchSpec(kernel="kern")).profile
            assert profile.output == ["-5"], engine

    def test_print_str_resolves_string_table(self, module):
        from repro.runtime.common import cstring

        msg = cstring(module, "hello device")
        func, b = make_kernel(module, params=())
        b.intrinsic("rt.print_str", [b.cast("ptrtoint", msg, I64)])
        b.ret()
        for engine, gpu in _devices(module):
            profile = gpu.run(LaunchSpec(kernel="kern")).profile
            assert profile.output == ["hello device"], engine

    def test_trap_reports_last_message(self, module):
        from repro.runtime.common import cstring

        msg = cstring(module, "assertion failed: boom")
        func, b = make_kernel(module, params=())
        b.intrinsic("rt.print_str", [b.cast("ptrtoint", msg, I64)])
        b.intrinsic("llvm.trap")
        b.ret()
        for engine, gpu in _devices(module):
            with pytest.raises(TrapError, match="boom"):
                gpu.run(LaunchSpec(kernel="kern"))

    @pytest.mark.parametrize("threads", [4, 64])
    def test_trap_after_a_lower_lanes_print_matches_across_engines(
            self, module, threads):
        # Thread 0 prints on one arm of a branch and thread 1 traps on
        # the other: every engine reports thread 0's line, as a serial
        # run of the threads would have printed it before the trap.
        func, b = make_kernel(module, params=())
        tid = b.thread_id()
        printer = func.add_block("printer")
        check = func.add_block("check")
        trap = func.add_block("trap")
        done = func.add_block("done")
        b.cond_br(b.icmp("eq", tid, b.i32(0)), printer, check)
        b.set_insert_point(printer)
        b.intrinsic("rt.print_i64", [b.i64(42)])
        b.br(done)
        b.set_insert_point(check)
        b.cond_br(b.icmp("eq", tid, b.i32(1)), trap, done)
        b.set_insert_point(trap)
        b.intrinsic("llvm.trap")
        b.unreachable()
        b.set_insert_point(done)
        b.ret()
        verify_module(module)
        for engine, gpu in _devices(module):
            with pytest.raises(TrapError) as excinfo:
                gpu.run(LaunchSpec(kernel="kern", threads_per_team=threads))
            assert str(excinfo.value) == \
                "trap in @kern (team 0, thread 1): 42", engine


def _icall(b, module, name, args, ret_ty=VOID):
    """Call intrinsic *name* through ``call_indirect`` on its address."""
    target = b.cast("ptrtoint", declare_intrinsic(module, name), I64)
    return b.call_indirect(target, args, ret_ty)


class TestIndirectCalls:
    def test_intrinsics_called_indirectly_match_across_engines(self, module):
        # Each thread writes its thread id, lane id, block dim and the
        # square root of its thread id, memsets its own 8 bytes of a
        # scratch buffer and prints an id: all through call_indirect.
        func, b = make_kernel(module, params=(PTR_GLOBAL, PTR_GLOBAL, PTR_GLOBAL),
                              arg_names=["ints", "floats", "scratch"])
        ints, floats, scratch = func.args
        tid = _icall(b, module, "gpu.thread_id", [], I32)
        lane = _icall(b, module, "gpu.lane_id", [], I32)
        bdim = _icall(b, module, "gpu.block_dim", [], I32)
        t64 = b.sext(tid, I64)
        gtid = b.add(b.mul(b.sext(b.block_id(), I64), b.sext(bdim, I64)), t64)
        for k, v in enumerate((t64, b.sext(lane, I64), b.sext(bdim, I64))):
            b.store(v, b.array_gep(ints, I64, b.add(b.mul(gtid, b.i64(3)),
                                                    b.i64(k))))
        root = _icall(b, module, "llvm.sqrt.f64", [b.sitofp(t64)], F64)
        b.store(root, b.array_gep(floats, F64, gtid))
        _icall(b, module, "llvm.memset",
               [b.array_gep(scratch, I64, gtid), b.const(0x5A, I8), b.i64(8)])
        _icall(b, module, "rt.print_i64", [gtid])
        b.ret()
        verify_module(module)
        teams, threads = 2, 40
        n = teams * threads
        results = {}
        for engine, gpu in _devices(module):
            bufs = (gpu.alloc_array(np.zeros(3 * n, dtype=np.int64)),
                    gpu.alloc_array(np.zeros(n)),
                    gpu.alloc_array(np.zeros(n, dtype=np.int64)))
            profile = gpu.run(LaunchSpec(kernel="kern", num_teams=teams,
                                         threads_per_team=threads,
                                         args=bufs)).profile
            results[engine] = (
                gpu.read_array(bufs[0], np.int64, 3 * n).tolist(),
                gpu.read_array(bufs[1], np.float64, n).tolist(),
                gpu.read_array(bufs[2], np.int64, n).tolist(),
                profile.to_dict(),
            )
        ints_got, floats_got, scratch_got, _ = results[PER_OP]
        assert ints_got == [v for g in range(n) for v in
                            (g % threads, g % threads % 32, threads)]
        assert floats_got == [math.sqrt(g % threads) for g in range(n)]
        assert scratch_got == [0x5A5A5A5A5A5A5A5A] * n
        for engine, got in results.items():
            assert got == results[PER_OP], engine


class TestIntrinsicTable:
    def test_every_intrinsic_has_exactly_one_implementation(self):
        # Each registered intrinsic decodes to a _TEMPLATES row, a
        # specialized handler or a generic-table row, never to the
        # decode-time "unhandled intrinsic" error.
        specialized = {D._h_barrier, D._h_assume, D._h_expect}
        kinds = {}
        for info in all_intrinsics():
            op = D.intrinsic_op(info.name, info, 0, (1, 2, 3), None, None,
                                7, 32)
            h = op[0]
            kind = [h in D._SIMPLE, h in specialized, h is D._h_intrin]
            assert kind.count(True) == 1, (info.name, h)
            kinds[info.name] = ("template", "handler", "generic")[kind.index(True)]
            assert op[2] == 7 and op[-1] == info.cost, info.name
            if h is D._h_intrin:
                assert op[4].__name__.startswith("_i_"), info.name
        assert set(kinds) == set(D._INTRINSICS)
        assert kinds["gpu.thread_id"] == "template"
        assert kinds["llvm.sqrt.f32"] == "template"
        assert kinds["gpu.barrier.aligned"] == "handler"
        assert kinds["malloc"] == "generic"

    def test_neither_fast_engine_keeps_a_name_ladder(self):
        import inspect

        from repro.vgpu import warp as W

        for mod in (D, W):
            assert 'name == "' not in inspect.getsource(mod), mod.__name__
