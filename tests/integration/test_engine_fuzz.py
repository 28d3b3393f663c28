"""Differential fuzzing of the engines on generated kernels.

Hypothesis generates two kinds of kernels.  Straight-line kernels are
one long basic block: chains of integer and float arithmetic, casts,
compares and selects over i1–i64 and f32/f64, with wrap-edge constants,
fed by loads from and drained by stores to a global buffer.  CFG
kernels chain small regions of such code through if/else diamonds
(joined by phis), counted loops with loop-carried phis that swap and
rotate, and early exits.  Each block is what the decoded engine fuses
into one generated run, terminator and phi moves included, so this
pins fused execution against the per-op decoded reference (every op
through its ``_h_*`` handler): outputs, :class:`KernelProfile` and any
error must be bit-identical.
The warp engine runs every kernel too, with its handlers generated
from the same opcode table as the decoded engine's, on divergent lane
masks: it must match the reference the same way, except for the crash
context of a faulting run (which thread a divergent crash is pinned to
is its one documented divergence).

The corpus is bounded and derandomized (a fixed, seeded set of
examples), so tier-1 stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import I64, Module, PTR_GLOBAL, verify_module
from repro.ir.types import F32, F64, I1, I8, I16, I32, IntType
from repro.ir.values import Constant
from repro.vgpu import VirtualGPU, interpreter
from repro.vgpu.launchspec import LaunchSpec
from tests.conftest import PER_OP, engine_mode, make_kernel

INT_TYPES = (I1, I8, I16, I32, I64)
FLOAT_TYPES = (F32, F64)
TEAMS, THREADS = 2, 4
IN_WORDS = 16
OUT_WORDS = 96  # per thread

PROFILE_FIELDS = (
    "cycles", "instructions", "opcode_counts", "loads_by_space",
    "stores_by_space", "flops", "team_cycles", "output",
)

INT_BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr",
              "ashr", "sdiv", "srem", "udiv", "urem")
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
ICMP_PREDS = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")
FCMP_PREDS = ("oeq", "one", "olt", "ole", "ogt", "oge")
FLOAT_EDGES = (0.0, -0.0, 1.0, -1.5, 3.0e38, -7.25e-3, 1e300)


@pytest.fixture(scope="module", autouse=True)
def _warp_on_every_team():
    """Keep every team of a warp launch on the warp engine: the
    low-occupancy gate would move later teams of sparse kernels to the
    decoded engine, which this suite already checks on its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interpreter, "_MIN_WARP_OCCUPANCY", 0)
        yield


def _int_edges(ty: IntType):
    return (0, 1, ty.mask, ty.half, ty.half - 1, ty.half + 1, 3, ty.mask - 1)


KINDS = ("int", "float", "icmp", "fcmp", "select", "cast", "load", "store")


def _recipe(rnd, n):
    """*n* ops drawn uniformly from a hypothesis-controlled ``Random``:
    (kind, type pick, operand picks i and j, variant pick m, constant
    pick c).  Drawing the choices from one Random (instead of one small
    strategy each) spreads the derandomized corpus over every opcode."""
    return [(rnd.choice(KINDS), rnd.randrange(7), rnd.randrange(64),
             rnd.randrange(64), rnd.randrange(16), rnd.randrange(16))
            for _ in range(n)]


class _Pools:
    """Values defined so far, by type; picks wrap around each pool."""

    def __init__(self, by_type=None):
        self.by_type = by_type or {ty: [] for ty in INT_TYPES + FLOAT_TYPES}

    def copy(self):
        """An inner scope: sees every value so far; what it adds stays
        inside (it does not dominate the code after the region)."""
        return _Pools({ty: list(values) for ty, values in self.by_type.items()})

    def add(self, v):
        self.by_type[v.type].append(v)
        return v

    def pick(self, ty, k):
        pool = self.by_type[ty]
        return pool[k % len(pool)] if pool else None


class _Kernel:
    """kern(buf, n) under construction: a prologue loads inputs and
    defines a value of every type, then :meth:`emit` appends ops and the
    region methods append control flow."""

    def __init__(self):
        self.module = Module("fuzz")
        self.func, b = make_kernel(self.module, params=(PTR_GLOBAL, I64),
                                   arg_names=["buf", "n"])
        self.b = b
        self.buf = buf = self.func.args[0]
        tid = b.add(b.mul(b.sext(b.block_id(), I64), b.i64(THREADS)),
                    b.sext(b.thread_id(), I64))
        out = b.ptradd(buf, b.mul(tid, b.i64(8 * OUT_WORDS)))
        self.out = b.ptradd(out, b.i64(8 * IN_WORDS))
        self.stores = 0
        self.pools = pools = _Pools()
        for k in range(4):
            pools.add(b.add(b.load(I64, b.ptradd(buf, b.i64(8 * k))), tid))
            pools.add(b.load(F64, b.ptradd(buf, b.i64(8 * (8 + k)))))
        for ty in (I1, I8, I16, I32):
            pools.add(b.trunc(pools.pick(I64, ty.bits), ty))
        pools.add(b.cast("fptrunc", pools.pick(F64, 0), F32))

    def store(self, v):
        """Store *v* to this thread's next output word."""
        b = self.b
        if v.type is F32:
            v = b.cast("fpext", v, F64)
        b.store(v, b.ptradd(self.out, b.i64(8 * self.stores)))
        self.stores += 1

    def emit(self, ops, pools):
        """Append the straight-line *ops* (see :func:`_recipe`)."""
        b, buf = self.b, self.buf
        for kind, t, i, j, m, c in ops:
            ity = INT_TYPES[t % len(INT_TYPES)]
            fty = FLOAT_TYPES[t % len(FLOAT_TYPES)]
            if kind == "int":
                a = pools.pick(ity, i)
                rhs = (Constant(ity, _int_edges(ity)[c]) if c < 8
                       else pools.pick(ity, j))
                pools.add(getattr(b, {"and": "and_", "or": "or_"}.get(
                    INT_BINOPS[m % len(INT_BINOPS)], INT_BINOPS[m % len(INT_BINOPS)]))(a, rhs))
            elif kind == "float":
                a = pools.pick(fty, i)
                rhs = (Constant(fty, FLOAT_EDGES[c]) if c < len(FLOAT_EDGES)
                       else pools.pick(fty, j))
                op = FLOAT_BINOPS[m % len(FLOAT_BINOPS)]
                pools.add(b._binop(op, a, rhs, ""))
            elif kind == "icmp":
                pools.add(b.icmp(ICMP_PREDS[m % len(ICMP_PREDS)],
                                 pools.pick(ity, i), pools.pick(ity, j)))
            elif kind == "fcmp":
                pools.add(b.fcmp(FCMP_PREDS[m % len(FCMP_PREDS)],
                                 pools.pick(fty, i), pools.pick(fty, j)))
            elif kind == "select":
                ty = (INT_TYPES + FLOAT_TYPES)[t % 7]
                pools.add(b.select(pools.pick(I1, m), pools.pick(ty, i),
                                   pools.pick(ty, j)))
            elif kind == "cast":
                src = INT_TYPES[i % len(INT_TYPES)]
                dst = INT_TYPES[j % len(INT_TYPES)]
                v = pools.pick(src, m)
                if m % 4 == 0:
                    pools.add(b.sitofp(v, fty))
                elif m % 4 == 1:
                    pools.add(b.uitofp(v, fty))
                elif m % 4 == 2 and src.bits != dst.bits:
                    op = "trunc" if dst.bits < src.bits else ("sext" if c % 2 else "zext")
                    pools.add(b.cast(op, v, dst))
                else:
                    f = pools.pick(fty, i)
                    # fptosi of a non-finite value raises in every engine;
                    # keep the fuzz on values, not on that one error.
                    pools.add(b.fptosi(b.select(
                        b.fcmp("olt", b.fadd(b._binop("fsub", f, f, ""), 0.0), 1.0),
                        f, Constant(fty, 0.0)), dst))
            elif kind == "load":
                ty = (I8, I16, I32, I64, F32, F64)[t % 6]
                pools.add(b.load(ty, b.ptradd(buf, b.i64(8 * (c % IN_WORDS)))))
            elif self.stores < 16:
                self.store(pools.pick((INT_TYPES + (F64,))[t % 6], i))

    def diamond(self, pools, ops_a, ops_b, k):
        """if/else on a divergent i1; the join merges the newest value
        of every type from both arms through phis."""
        b, func = self.b, self.func
        arms = [func.add_block("then"), func.add_block("else")]
        join = func.add_block("join")
        b.cond_br(pools.pick(I1, k), *arms)
        ends = []
        for block, ops in zip(arms, (ops_a, ops_b)):
            b.set_insert_point(block)
            arm = pools.copy()
            self.emit(ops, arm)
            ends.append((b.block, arm))
            b.br(join)
        b.set_insert_point(join)
        for ty in INT_TYPES + FLOAT_TYPES:
            phi = b.phi(ty)
            for block, arm in ends:
                phi.add_incoming(arm.by_type[ty][-1], block)
            pools.add(phi)

    def loop(self, pools, ops_a, ops_b, k):
        """A loop of 1-4 data-dependent trips, top-tested (the back edge
        is a br) or bottom-tested (a condbr), carrying three phis of one
        type that swap (x, y = y, x) and take the body's newest value
        (z); the body loads an input word that moves with the trip and
        stores its newest value of the carried type.  *ops_b* follows
        the loop."""
        b, func = self.b, self.func
        trips = b.add(b.and_(pools.pick(I64, k), b.i64(3)), b.i64(1))
        pre = b.block
        header = func.add_block("loop")
        after = func.add_block("after")
        b.br(header)
        b.set_insert_point(header)
        ty = (INT_TYPES + FLOAT_TYPES)[k % 7]
        i = b.phi(I64, "i")
        carried = [b.phi(ty) for _ in range(3)]
        i.add_incoming(b.i64(0), pre)
        for n, phi in enumerate(carried):
            phi.add_incoming(pools.pick(ty, k + n), pre)
        body = pools.copy()
        for v in [i] + carried:
            body.add(v)
        top_tested = k % 2 == 0
        if top_tested:
            b.cond_br(b.icmp("slt", i, trips), func.add_block("body"), after)
            b.set_insert_point(header.terminator.true_target)
        load_ty = (I8, I16, I32, I64, F32, F64)[k % 6]
        word = b.add(i, b.i64(k % 8))
        body.add(b.load(load_ty, b.ptradd(self.buf, b.mul(word, b.i64(8)))))
        self.emit(ops_a, body)
        if self.stores < OUT_WORDS:
            self.store(body.by_type[ty][-1])
        ni = b.add(i, b.i64(1))
        x, y, z = carried
        moves = ((i, ni), (x, y), (y, x), (z, body.by_type[ty][-1]))
        latch = b.block
        if top_tested:
            b.br(header)
        else:
            b.cond_br(b.icmp("slt", ni, trips), header, after)
        for phi, v in moves:
            phi.add_incoming(v, latch)
        b.set_insert_point(after)
        for v in carried:
            pools.add(v)
        self.emit(ops_b, pools)

    def nest(self, pools, ops_a, ops_b, k):
        """A bottom-tested outer loop of 1-2 data-dependent trips whose
        body is a loop region (:meth:`loop`, running *ops_a*); *ops_b*
        follows the nest."""
        b, func = self.b, self.func
        trips = b.add(b.and_(pools.pick(I64, k + 1), b.i64(1)), b.i64(1))
        pre = b.block
        header = func.add_block("outer")
        b.br(header)
        b.set_insert_point(header)
        i = b.phi(I64, "o")
        i.add_incoming(b.i64(0), pre)
        body = pools.copy()
        body.add(i)
        self.loop(body, ops_a, [], k)
        ni = b.add(i, b.i64(1))
        i.add_incoming(ni, b.block)
        after = func.add_block("after")
        b.cond_br(b.icmp("slt", ni, trips), header, after)
        b.set_insert_point(after)
        self.emit(ops_b, pools)

    def exit(self, pools, ops_a, ops_b, k):
        """An early exit on a divergent i1: the exiting threads run
        *ops_a*, store the newest value of every type and return."""
        b, func = self.b, self.func
        early, cont = func.add_block("early"), func.add_block("cont")
        b.cond_br(pools.pick(I1, k), early, cont)
        b.set_insert_point(early)
        arm = pools.copy()
        self.emit(ops_a, arm)
        stores = self.stores
        for values in arm.by_type.values():
            self.store(values[-1])
        self.stores = stores  # the threads that go on reuse these words
        b.ret()
        b.set_insert_point(cont)
        self.emit(ops_b, pools)

    def finish(self, pools):
        """Drain every value, so no op's result goes unobserved."""
        for values in pools.by_type.values():
            for v in values:
                if self.stores == OUT_WORDS:
                    break
                self.store(v)
        self.b.ret()
        return self.module


def _build(ops):
    """kern(buf, n): load inputs, run *ops*, store every value."""
    kernel = _Kernel()
    kernel.emit(ops, kernel.pools)
    return kernel.finish(kernel.pools)


SHAPES = ("diamond", "loop", "nest", "exit")


def _cfg_recipe(rnd, n):
    """*n* regions: (straight-line ops before it, shape, ops of its
    first and second part, pick k)."""
    return [(_recipe(rnd, rnd.randrange(4)), rnd.choice(SHAPES),
             _recipe(rnd, rnd.randrange(6)), _recipe(rnd, rnd.randrange(6)),
             rnd.randrange(64))
            for _ in range(n)]


def _build_cfg(regions):
    """kern(buf, n): load inputs, chain *regions*, store every value."""
    kernel = _Kernel()
    pools = kernel.pools
    for line, shape, ops_a, ops_b, k in regions:
        kernel.emit(line, pools)
        getattr(kernel, shape)(pools, ops_a, ops_b, k)
    module = kernel.finish(pools)
    verify_module(module)
    return module


def _inputs(seed):
    rng = np.random.default_rng(seed)
    words = rng.integers(-(2**63), 2**63 - 1, size=IN_WORDS, dtype=np.int64)
    floats = rng.normal(scale=1e3, size=IN_WORDS // 2)
    words[8:] = floats.view(np.int64)
    words[0] = -1
    words[1] = 2**31
    return words


def _assert_all_agree(module, words):
    reference = _run(module, PER_OP, words)
    assert _run(module, "decoded", words) == reference
    warp = _run(module, "warp", words)
    assert warp[:3] == reference[:3]
    if reference[0] == "ok":
        assert warp == reference


def _run(module, label, words):
    with engine_mode(label) as engine:
        return _launch(module, engine, words)


def _launch(module, engine, words):
    gpu = VirtualGPU(module, engine=engine)
    n_out = TEAMS * THREADS * OUT_WORDS
    buf = gpu.alloc_array(np.concatenate([words, np.zeros(n_out, np.int64)]))
    try:
        result = gpu.run(LaunchSpec(
            kernel="kern", num_teams=TEAMS, threads_per_team=THREADS,
            args=(buf, 0), engine=engine,
        ))
    except Exception as exc:  # compared across engines like any output
        ctx = getattr(exc, "context", None)
        return ("error", type(exc).__name__, str(exc),
                ctx.to_dict() if ctx is not None else None)
    memory = gpu.read_array(buf, np.int64, IN_WORDS + n_out).tolist()
    profile = tuple(getattr(result.profile, f) for f in PROFILE_FIELDS)
    return ("ok", memory, profile)


@pytest.mark.parametrize("seed", [1, 2])
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rnd=st.randoms(use_true_random=False), n=st.integers(8, 48))
def test_straight_line_kernels_agree_across_engines(seed, rnd, n):
    _assert_all_agree(_build(_recipe(rnd, n)), _inputs(seed))


@pytest.mark.parametrize("seed", [1, 2])
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rnd=st.randoms(use_true_random=False), n=st.integers(1, 5))
def test_cfg_kernels_agree_across_engines(seed, rnd, n):
    _assert_all_agree(_build_cfg(_cfg_recipe(rnd, n)), _inputs(seed))


def test_cfg_generator_reaches_every_shape():
    """Fixed recipes cover diamonds, both loop forms (with swapping
    phis on a br and on a condbr back edge, and a load and a store in
    the body), loop nests and early exits."""
    from random import Random

    rnd = Random(0)
    regions = [([], shape, _recipe(rnd, 3), _recipe(rnd, 3), k)
               for shape in SHAPES for k in (0, 1)]
    func = _build_cfg(regions).get_function("kern")
    kinds = {type(b.terminator).__name__ for b in func.blocks}
    assert kinds == {"Br", "CondBr", "Ret"}
    back_edges = [b for b in func.blocks if b.name.startswith(("loop", "body"))
                  and any(s.name.startswith("loop") for s in b.successors())]
    assert {type(b.terminator).__name__ for b in back_edges} == {"Br", "CondBr"}
    assert sum(b.name.startswith("early") for b in func.blocks) == 2
    loop_bodies = [b for b in func.blocks if b.name.startswith(("loop", "body"))]
    for opcode in ("load", "store"):
        assert all(any(inst.opcode == opcode for inst in b.instructions)
                   for b in loop_bodies if b in back_edges)
    # Each nest's outer back edge closes over an inner loop's header.
    outers = [b for b in func.blocks if b.name.startswith("outer")]
    assert len(outers) == 2
    for outer in outers:
        preds = [b for b in func.blocks if outer in b.successors()]
        assert sorted(type(b.terminator).__name__ for b in preds) == ["Br", "CondBr"]
        assert outer.successors()[0].name.startswith("loop")
    assert sum(len(b.phis()) for b in func.blocks if b.name.startswith("join")) == 14


def test_generator_reaches_every_simple_opcode():
    """The corpus is only as good as its coverage: a fixed recipe list
    must emit every fusable opcode class the templates define."""
    ops = [(kind, t, i, j, m, c)
           for kind in KINDS
           for t in range(7) for i, j in ((0, 1), (2, 3)) for m in range(16)
           for c in (0, 5)]
    module = _build(ops)
    opcodes = {inst.opcode for blk in module.get_function("kern").blocks
               for inst in blk.instructions}
    assert set(INT_BINOPS + FLOAT_BINOPS) <= opcodes
    assert {"icmp", "fcmp", "select", "ptradd", "load", "store", "trunc", "zext",
            "sext", "sitofp", "uitofp", "fptosi", "fptrunc"} <= opcodes
