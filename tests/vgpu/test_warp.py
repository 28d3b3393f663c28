"""Warp engine unit tests: the lane-mask machine and its fast paths.

The integration sweep (``tests/integration/test_engine_differential``)
pins whole-app bit-parity; these tests pin the mask machinery on
hand-built kernels where the divergence shape is known exactly —
a split/reconverge diamond, a nested split, an if-converted short
diamond (with the pass forced on and off), a uniform branch that must
never split, and the old-runtime lockstep fallback — plus the edge
semantics of the simple ops generated from ``decode._TEMPLATES``
(``i1`` sign reads, ``frem`` by zero, out-of-range ``fptosi``) and the
low-occupancy gate that runs a launch's later teams decoded.
"""

import struct

import pytest

from repro.ir import I64, Module, verify_module
from repro.ir.types import F64, I1, I32, IntType
from repro.ir.values import GlobalVariable
from repro.memory.addrspace import AddressSpace
from repro.runtime.state import GV_OLD_TEAM_CONTEXT
from repro.vgpu import VirtualGPU
from repro.vgpu.launchspec import LaunchSpec
from tests.conftest import PER_OP, engine_mode, make_kernel

pytestmark = pytest.mark.warp

PROFILE_FIELDS = (
    "cycles",
    "instructions",
    "opcode_counts",
    "loads_by_space",
    "stores_by_space",
    "flops",
    "barriers",
    "team_cycles",
    "output",
)

N = 16  # one partial warp


def _run(module, engines=(PER_OP, "warp"), threads=N, configure=None):
    """Launch @kern on a fresh device per engine label; return
    {label: (profile, [out words])} for an i64[threads] out buffer."""
    out = {}
    for label in engines:
        with engine_mode(label) as engine:
            gpu = VirtualGPU(module, engine=engine)
            if configure is not None:
                configure(gpu)
            buf = gpu.alloc_bytes(8 * threads)
            result = gpu.run(LaunchSpec(
                kernel="kern", num_teams=1, threads_per_team=threads,
                args=(buf, 0),
            ))
        words = [gpu.read_scalar(buf + 8 * i, I64) for i in range(threads)]
        out[label] = (result.profile, words)
    return out


def _assert_engines_agree(results):
    """Every run of *results* equals the per-op decoded reference."""
    (ref_prof, ref_words) = results[PER_OP]
    for engine, (prof, words) in results.items():
        if engine == PER_OP:
            continue
        assert words == ref_words, f"{engine}: memory differs"
        for field in PROFILE_FIELDS:
            assert getattr(prof, field) == getattr(ref_prof, field), (
                f"{engine}: {field} differs"
            )


def _store_at_tid(b, base, tid, value):
    slot = b.ptradd(base, b.mul(tid, b.i64(8)))
    b.store(value, slot)


def _diamond_module(*, widen=False):
    """tid < 8 ? tid * 3 : tid + 100, stored per lane, then a
    reconverged tail store all lanes execute.  ``widen`` pads the arms
    past the if-conversion size limit so the split path runs."""
    module = Module("m")
    func, b = make_kernel(module)
    base, _ = func.args
    tid = b.sext(b.thread_id(), I64)
    then_b = func.add_block("then")
    else_b = func.add_block("else")
    join_b = func.add_block("join")
    b.cond_br(b.icmp("slt", tid, b.i64(8)), then_b, else_b)

    b.set_insert_point(then_b)
    t_val = b.mul(tid, b.i64(3))
    if widen:
        for _ in range(40):
            t_val = b.add(t_val, b.i64(1))
    b.br(join_b)
    b.set_insert_point(else_b)
    f_val = b.add(tid, b.i64(100))
    if widen:
        for _ in range(40):
            f_val = b.add(f_val, b.i64(1))
    b.br(join_b)

    b.set_insert_point(join_b)
    phi = b.phi(I64, "v")
    phi.add_incoming(t_val, then_b)
    phi.add_incoming(f_val, else_b)
    _store_at_tid(b, base, tid, phi)
    b.ret()
    verify_module(module)
    return module


def test_divergent_diamond_reconverges():
    """Split path: both sides run under disjoint masks and the join
    block executes once for all lanes — bit-parity with per-op decoded."""
    _assert_engines_agree(_run(_diamond_module(widen=True)))


def test_if_converted_diamond_matches_split_execution():
    """The same short diamond must be bit-identical whether the
    if-conversion pass predicates it or the mask machine splits it."""
    module = _diamond_module()
    on = _run(module)
    off = _run(
        _diamond_module(),
        configure=lambda gpu: setattr(gpu, "warp_if_convert", False),
    )
    _assert_engines_agree(on)
    _assert_engines_agree(off)
    assert on["warp"][1] == off["warp"][1]
    assert on["warp"][0].opcode_counts == off["warp"][0].opcode_counts


def test_nested_divergence():
    """Two nested data-dependent branches: reconvergence must unwind
    innermost-first (the reconvergence-stack invariant)."""
    module = Module("m")
    func, b = make_kernel(module)
    base, _ = func.args
    tid = b.sext(b.thread_id(), I64)
    outer_t = func.add_block("outer_t")
    inner_t = func.add_block("inner_t")
    inner_f = func.add_block("inner_f")
    inner_j = func.add_block("inner_j")
    outer_f = func.add_block("outer_f")
    join = func.add_block("join")
    b.cond_br(b.icmp("slt", tid, b.i64(12)), outer_t, outer_f)

    b.set_insert_point(outer_t)
    b.cond_br(b.icmp("slt", tid, b.i64(4)), inner_t, inner_f)
    b.set_insert_point(inner_t)
    a_val = b.mul(tid, b.i64(7))
    b.br(inner_j)
    b.set_insert_point(inner_f)
    b_val = b.add(tid, b.i64(50))
    b.br(inner_j)
    b.set_insert_point(inner_j)
    inner_phi = b.phi(I64)
    inner_phi.add_incoming(a_val, inner_t)
    inner_phi.add_incoming(b_val, inner_f)
    b.br(join)

    b.set_insert_point(outer_f)
    c_val = b.sub(b.i64(0), tid)
    b.br(join)

    b.set_insert_point(join)
    phi = b.phi(I64)
    phi.add_incoming(inner_phi, inner_j)
    phi.add_incoming(c_val, outer_f)
    _store_at_tid(b, base, tid, phi)
    b.ret()
    verify_module(module)
    _assert_engines_agree(_run(module))


def test_uniform_branch_takes_the_fast_path():
    """A branch on a uniform value never splits: the warp engine's
    cycle/step accounting must equal per-op decoded's exactly (a split would
    re-execute the join-side bookkeeping per side)."""
    module = Module("m")
    func, b = make_kernel(module)
    base, n = func.args
    tid = b.sext(b.thread_id(), I64)
    then_b = func.add_block("then")
    else_b = func.add_block("else")
    join_b = func.add_block("join")
    # n is a launch argument — the same scalar for every lane.
    b.cond_br(b.icmp("eq", n, b.i64(0)), then_b, else_b)
    b.set_insert_point(then_b)
    t_val = b.mul(tid, b.i64(2))
    b.br(join_b)
    b.set_insert_point(else_b)
    f_val = b.i64(0)
    b.br(join_b)
    b.set_insert_point(join_b)
    phi = b.phi(I64)
    phi.add_incoming(t_val, then_b)
    phi.add_incoming(f_val, else_b)
    _store_at_tid(b, base, tid, phi)
    b.ret()
    verify_module(module)
    # Disable if-conversion so a non-uniform handling bug could not
    # hide behind predication.
    _assert_engines_agree(_run(
        module,
        configure=lambda gpu: setattr(gpu, "warp_if_convert", False),
    ))


def test_divergent_loop_trip_counts():
    """Lanes leave a loop at different trip counts; late lanes keep
    iterating under a shrinking mask."""
    module = Module("m")
    func, b = make_kernel(module)
    base, _ = func.args
    tid = b.sext(b.thread_id(), I64)
    head = func.add_block("head")
    body = func.add_block("body")
    exit_b = func.add_block("exit")
    entry = b.block
    b.br(head)

    b.set_insert_point(head)
    acc = b.phi(I64, "acc")
    i = b.phi(I64, "i")
    b.cond_br(b.icmp("sle", i, tid), body, exit_b)

    b.set_insert_point(body)
    acc2 = b.add(acc, i)
    i2 = b.add(i, b.i64(1))
    b.br(head)
    acc.add_incoming(b.i64(0), entry)
    acc.add_incoming(acc2, body)
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i2, body)

    b.set_insert_point(exit_b)
    _store_at_tid(b, base, tid, acc)
    b.ret()
    verify_module(module)
    _assert_engines_agree(_run(module))


def test_old_runtime_module_falls_back_to_decoded():
    """A module carrying the old runtime's team context is not
    lockstep-safe; the warp engine must run it on the decoded scalar
    path and stay bit-identical."""
    module = _diamond_module()
    module.add_global(GlobalVariable(
        GV_OLD_TEAM_CONTEXT, IntType(64), addrspace=AddressSpace.SHARED,
    ))
    gpu = VirtualGPU(module, engine="warp")
    assert gpu._warp_lockstep_ok is False
    _assert_engines_agree(_run(module, engines=(PER_OP, "decoded", "warp")))


def _divergent_icall_module():
    """Even lanes call @inc, odd lanes @dbl, through one indirect call."""
    from repro.ir import IRBuilder
    from repro.ir.module import Function
    from repro.ir.types import FunctionType

    module = Module("m")
    callees = []
    for name, op in (("inc", "add"), ("dbl", "mul")):
        f = module.add_function(Function(name, FunctionType(I64, (I64,))))
        fb = IRBuilder(module, f.add_block("entry"))
        fb.ret(getattr(fb, op)(f.args[0], fb.i64(1 if op == "add" else 2)))
        callees.append(f)
    func, b = make_kernel(module)
    tid = b.sext(b.thread_id(), I64)
    even = b.icmp("eq", b.and_(tid, b.i64(1)), b.i64(0))
    target = b.select(even, *(b.cast("ptrtoint", f, I64) for f in callees))
    _store_at_tid(b, func.args[0], tid, b.call_indirect(target, [tid], I64))
    b.ret()
    verify_module(module)
    return module


def test_divergent_indirect_call_is_an_engine_limit_not_a_program_fault():
    """The warp engine cannot run lane-divergent indirect calls; a
    direct run raises the engine limitation, and the service takes the
    internal-fault retry path (ok, retried) — never an ok=False
    program-fault verdict."""
    from repro.serve import SimulationService
    from repro.vgpu.errors import EngineUnsupported

    module = _divergent_icall_module()
    with pytest.raises(EngineUnsupported):
        _run(module, engines=("warp",))
    expected = [t + 1 if t % 2 == 0 else 2 * t for t in range(N)]

    def make_args(gpu, _compiled):
        return (gpu.alloc_bytes(8 * N), 0)

    def words(gpu, buf):
        return [gpu.read_scalar(buf + 8 * i, I64) for i in range(N)]

    spec = LaunchSpec(kernel="kern", num_teams=1, threads_per_team=N,
                      engine="warp")
    with SimulationService(save_reports=False) as svc:
        served = svc.run(
            spec, module=module, make_args=make_args,
            finalize=lambda gpu, result: words(gpu, result.spec.args[0]),
        )
    assert served.ok and served.retried
    assert served.report.retry["error_type"] == "EngineUnsupported"
    assert served.payload == expected


def _per_thread_module(compute):
    """@kern storing ``compute(b, tid)`` (an i64 or f64) at out[tid]."""
    module = Module("m")
    func, b = make_kernel(module)
    tid = b.sext(b.thread_id(), I64)
    _store_at_tid(b, func.args[0], tid, compute(b, tid))
    b.ret()
    verify_module(module)
    return module


def _i1_lanes(b, tid):
    """Varying i1 lanes tid & 1 and (tid >> 1) & 1."""
    return b.trunc(tid, I1), b.trunc(b.lshr(tid, b.i64(1)), I1)


#: i1 has no sign bit (``IntType.to_signed`` with ``half == 0``): a set
#: i1 reads as 1, never -1, in every signed op.
I1_SIGNED_OPS = {
    "sext_i32": lambda b, x, y: b.zext(b.sext(x, I32), I64),
    "sext_i64": lambda b, x, y: b.sext(x, I64),
    "sitofp": lambda b, x, y: b.sitofp(x, F64),
    "icmp_slt": lambda b, x, y: b.zext(b.icmp("slt", x, y), I64),
    "icmp_sge": lambda b, x, y: b.zext(b.icmp("sge", x, y), I64),
    "ashr": lambda b, x, y: b.zext(b.ashr(x, y), I64),
    "sdiv": lambda b, x, y: b.zext(b.sdiv(x, b.i1(1)), I64),
    "srem": lambda b, x, y: b.zext(b.srem(x, b.i1(1)), I64),
}


@pytest.mark.parametrize("name", sorted(I1_SIGNED_OPS))
def test_signed_ops_on_varying_i1_match_legacy(name):
    """Warp matches the per-op reference (the test id predates it)."""
    op = I1_SIGNED_OPS[name]
    results = _run(_per_thread_module(lambda b, tid: op(b, *_i1_lanes(b, tid))))
    _assert_engines_agree(results)
    if name in ("sext_i32", "sext_i64"):
        assert results["warp"][1] == [t & 1 for t in range(N)]


def _f64_bits(word):
    return struct.unpack("<Q", struct.pack("<q", word))[0]


@pytest.mark.parametrize("varying", [False, True])
def test_frem_by_zero_stores_the_scalar_engines_nan(varying):
    def compute(b, tid):
        x = b.sitofp(tid, F64) if varying else b.f64(3.0)
        return b._binop("frem", x, b.f64(0.0), "")

    results = _run(_per_thread_module(compute))
    _assert_engines_agree(results)
    assert {_f64_bits(w) for w in results["warp"][1]} == {0x7FF8000000000000}


@pytest.mark.parametrize("scale", [3e38, 1e300])
@pytest.mark.parametrize("ty", [I32, I64], ids=["i32", "i64"])
def test_fptosi_of_finite_out_of_range_values_is_exact(scale, ty):
    """int64 cannot hold these; the varying path must truncate them
    exactly like the scalar engines' ``int()``."""
    def compute(b, tid):
        v = b.fptosi(b.fmul(b.sitofp(tid, F64), b.f64(scale)), ty)
        return v if ty is I64 else b.zext(v, I64)

    results = _run(_per_thread_module(compute))
    _assert_engines_agree(results)
    expected = [int(t * scale) & ty.mask for t in range(N)]
    assert [w & ty.mask for w in results["warp"][1]] == expected


def test_every_simple_op_is_generated_from_its_table_row():
    """Each non-memory row of ``decode._TEMPLATES`` is the one
    definition of its opcode: the warp handler is generated from it and
    reads the decoded op tuple unchanged.  A row without a vector
    template fails here."""
    from repro.vgpu import decode, warp

    memory = {n for n, row in decode._TEMPLATES.items() if "K" in row[0].split()}
    assert memory == {"load_int", "load_f", "store_int", "store_ptr", "store_f"}
    for name in decode._TEMPLATES.keys() - memory:
        w_h = getattr(warp, f"_w_{name}", None)
        assert w_h is not None, f"no generated warp handler for {name}"
        assert w_h.__code__.co_filename == "<repro.vgpu.warp generated handlers>"
        assert warp._SWAP[getattr(decode, f"_h_{name}")] is w_h

    module = _diamond_module()
    gpu = VirtualGPU(module, engine="warp")
    wf = warp.bind_warp(gpu, module.get_function("kern"))
    simple = 0
    for dop, vop in zip(wf.code.ops, wf.vops):
        if dop[0] in decode._SIMPLE and dop[1] not in ("load", "store"):
            assert vop == (warp._SWAP[dop[0]],) + dop[1:]
            simple += 1
    assert simple >= 5


# -- low-occupancy gate --


def _work_module(pred):
    """Lanes where ``tid <pred> 0`` holds run a 40-add chain; every lane
    then stores its value at out[block_id * block_dim + tid].  "eq"
    leaves one lane of the team working, "sge" every lane."""
    module = Module("m")
    func, b = make_kernel(module)
    base, _ = func.args
    tid = b.sext(b.thread_id(), I64)
    gid = b.add(b.mul(b.sext(b.block_id(), I64), b.sext(b.block_dim(), I64)), tid)
    entry = b.block
    work_b = func.add_block("work")
    join_b = func.add_block("join")
    b.cond_br(b.icmp(pred, tid, b.i64(0)), work_b, join_b)
    b.set_insert_point(work_b)
    val = tid
    for _ in range(40):
        val = b.add(val, b.i64(3))
    b.br(join_b)
    b.set_insert_point(join_b)
    phi = b.phi(I64)
    phi.add_incoming(tid, entry)
    phi.add_incoming(val, work_b)
    _store_at_tid(b, base, gid, phi)
    b.ret()
    verify_module(module)
    return module


def _launch(module, engine, teams, threads, faults=None):
    gpu = VirtualGPU(module, engine=engine, faults=faults)
    buf = gpu.alloc_bytes(8 * teams * threads)
    result = gpu.run(LaunchSpec(
        kernel="kern", num_teams=teams, threads_per_team=threads,
        args=(buf, 0),
    ))
    words = [gpu.read_scalar(buf + 8 * i, I64) for i in range(teams * threads)]
    return gpu, result, words


def test_low_occupancy_team_zero_gates_the_later_teams():
    """One working lane in 16: team 0 runs warp, teams 1..3 decoded, and
    the launch's profile and memory are the decoded engine's."""
    module = _work_module("eq")
    gpu, warp_run, warp_words = _launch(module, "warp", 4, N)
    _, decoded_run, decoded_words = _launch(module, "decoded", 4, N)
    assert gpu._fallbacks == dict.fromkeys((1, 2, 3), "low-occupancy")
    assert (warp_run.executed_engine, warp_run.fallback) == ("warp", "low-occupancy")
    assert warp_words == decoded_words
    assert warp_run.profile.to_json() == decoded_run.profile.to_json()


@pytest.mark.parametrize("pred,teams,threads", [
    ("sge", 4, N),   # every lane works
    ("eq", 1, N),    # a one-team launch has no later team to gate
    ("sge", 2, 2),   # full occupancy of a 2-lane warp
])
def test_launches_that_do_not_gate(pred, teams, threads):
    gpu, result, _ = _launch(_work_module(pred), "warp", teams, threads)
    assert gpu._fallbacks == {}
    assert (result.executed_engine, result.fallback) == ("warp", None)


@pytest.mark.parametrize("fault_team,reason", [
    (1, "fault-plan"),
    (2, "low-occupancy"),
])
def test_mixed_fallback_reasons_name_the_lowest_team(fault_team, reason):
    """A fault plan armed on one gated team wins there, and the lowest
    fallen-back team names the launch's reason."""
    faults = f"malloc_fail:n=9:team={fault_team}"
    gpu, result, words = _launch(_work_module("eq"), "warp", 4, N,
                                 faults=faults)
    _, decoded, decoded_words = _launch(_work_module("eq"), "decoded", 4, N,
                                        faults=faults)
    assert gpu._fallbacks == {t: "fault-plan" if t == fault_team
                              else "low-occupancy" for t in (1, 2, 3)}
    assert result.fallback == reason
    assert words == decoded_words
    assert result.profile.to_json() == decoded.profile.to_json()
