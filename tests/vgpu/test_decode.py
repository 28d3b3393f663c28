"""Pre-decoded engine: decode pass, slot assignment, caching, parity."""

from bisect import bisect_right

import numpy as np
import pytest

from repro.ir import (
    F64,
    Function,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    Module,
    PTR_GLOBAL,
    VOID,
    verify_module,
)
from repro.ir.instructions import BinOp
from repro.ir.values import Constant
from repro.memory.addrspace import AddressSpace
from repro.vgpu import CostModel, GPUConfig, LaunchSpec, SimulationError, VirtualGPU
from repro.vgpu import decode as D
from tests.conftest import (
    PER_OP,
    compile_cell,
    engine_mode,
    make_function,
    make_kernel,
    matrix_cells,
)


def _phi_loop_module():
    """sum = Σ i for i in range(n): a loop with two phis."""
    module = Module("loop")
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64), arg_names=["out", "n"])
    entry = b.block
    header = func.add_block("header")
    body = func.add_block("body")
    exit_ = func.add_block("exit")
    b.br(header)

    b.set_insert_point(header)
    i = b.phi(I64, "i")
    acc = b.phi(I64, "acc")
    i.add_incoming(b.i64(0), entry)
    acc.add_incoming(b.i64(0), entry)
    b.cond_br(b.icmp("slt", i, func.args[1]), body, exit_)

    b.set_insert_point(body)
    nacc = b.add(acc, i)
    ni = b.add(i, b.i64(1))
    i.add_incoming(ni, body)
    acc.add_incoming(nacc, body)
    b.br(header)

    b.set_insert_point(exit_)
    b.store(acc, func.args[0])
    b.ret()
    verify_module(module)
    return module, func


class TestDecodePass:
    def test_phis_emit_no_ops(self):
        module, func = _phi_loop_module()
        code = D.decode_function(func, CostModel(GPUConfig()), 32)
        opcodes = [op[1] for op in code.ops]
        assert "phi" not in opcodes
        # br/condbr carry the phi moves instead.
        assert "br" in opcodes and "condbr" in opcodes

    def test_every_value_gets_a_slot(self):
        module, func = _phi_loop_module()
        code = D.decode_function(func, CostModel(GPUConfig()), 32)
        n_insts = sum(len(blk.instructions) for blk in func.blocks)
        # args + every instruction (incl. phis/void) + constants
        assert code.num_slots >= len(func.args) + n_insts
        assert len(code.arg_slots) == len(func.args)

    def test_constants_prefilled_not_value_deduped(self):
        """0.0 and -0.0 are equal but must keep distinct slots.

        (The builder folds constant arithmetic, so the constants are
        used as store operands, which survive to decode unfolded.)
        """
        module = Module("m")
        func, b = make_kernel(
            module, params=(PTR_GLOBAL, PTR_GLOBAL), arg_names=["a", "out2"]
        )
        b.store(b.f64(0.0), func.args[0])
        b.store(b.f64(-0.0), func.args[1])
        b.ret()
        verify_module(module)
        code = D.decode_function(func, CostModel(GPUConfig()), 32)
        consts = [v for _, v in code.static_init]
        zeros = [v for v in consts if isinstance(v, float) and v == 0.0]
        signs = {np.copysign(1.0, v) for v in zeros}
        assert signs == {1.0, -1.0}

    def test_static_costs_folded(self):
        module, func = _phi_loop_module()
        cost = CostModel(GPUConfig())
        code = D.decode_function(func, cost, 32)
        add_ops = [op for op in code.ops if op[1] == "add"]
        assert add_ops and all(op[-1] == cost.config.int_op_cost for op in add_ops)

    def test_decode_cache_is_per_device(self):
        module, func = _phi_loop_module()
        gpu_a = VirtualGPU(module, engine="decoded")
        gpu_b = VirtualGPU(module, engine="decoded")
        bound_a = D.bind_function(gpu_a, func)
        bound_b = D.bind_function(gpu_b, func)
        assert bound_a is not bound_b  # each device decodes its own view
        assert D.bind_function(gpu_a, func) is bound_a  # cached per device

    def test_in_place_mutation_not_served_stale(self):
        """Passes mutate functions in place; a device created after the
        mutation must decode the new IR, not a memoized old decode."""
        module, func = _phi_loop_module()
        gpu_a = VirtualGPU(module, engine="decoded")
        before = D.bind_function(gpu_a, func).code
        n_before = len(before.ops)
        _store_45_in_place(module, func)
        gpu_b = VirtualGPU(module, engine="decoded")
        after = D.bind_function(gpu_b, func).code
        assert len(after.ops) < n_before
        out = gpu_b.alloc_array(np.zeros(1, dtype=np.int64))
        gpu_b.run(LaunchSpec(kernel=func.name, args=(out, 10)))
        assert gpu_b.read_array(out, np.int64, 1)[0] == 45

    def test_in_place_mutation_not_served_stale_after_warp(self):
        """The same mutation after a warp launch: a new device on either
        engine runs the new IR, not a vectorization of the old loop."""
        module, func = _phi_loop_module()
        assert _launch(module, "warp") == (sum(range(10)), 55)
        _store_45_in_place(module, func)
        assert _launch(module, "warp") == _launch(module, "decoded") == (45, 2)

    def test_in_place_mutation_remeasures_registers(self):
        from repro.vgpu.registers import estimate_kernel_registers

        module, func = _phi_loop_module()
        gpu_a = VirtualGPU(module, engine="decoded")
        out = gpu_a.alloc_array(np.zeros(1, dtype=np.int64))
        before = gpu_a.run(LaunchSpec(kernel="kern", args=(out, 10))).profile
        _store_45_in_place(module, func)
        gpu_b = VirtualGPU(module, engine="decoded")
        out = gpu_b.alloc_array(np.zeros(1, dtype=np.int64))
        after = gpu_b.run(LaunchSpec(kernel="kern", args=(out, 10))).profile
        fresh = estimate_kernel_registers(func, module)
        assert after.registers == fresh != before.registers


def _store_45_in_place(module, func):
    """Simulate an optimizing pass on _phi_loop_module's kernel, in
    place: drop the loop, store 45 directly."""
    for block in list(func.blocks)[1:]:
        func.remove_block(block)
    entry = func.blocks[0]
    entry.instructions.clear()
    b = IRBuilder(module, entry)
    b.store(b.i64(45), func.args[0])
    b.ret()
    verify_module(module)


def _launch(module, engine):
    """(stored value, instructions) of a 1x1 launch of @kern(out, 10)."""
    gpu = VirtualGPU(module, engine=engine)
    out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
    profile = gpu.run(LaunchSpec(kernel="kern", args=(out, 10))).profile
    return gpu.read_array(out, np.int64, 1)[0], profile.instructions


class TestDecodedExecution:
    def _run(self, engine, n=10):
        module, func = _phi_loop_module()
        gpu = VirtualGPU(module, engine=engine)
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        profile = gpu.run(LaunchSpec(kernel=func.name, num_teams=4,
                                     threads_per_team=8, args=(out, n))).profile
        return gpu.read_array(out, np.int64, 1)[0], profile

    def test_loop_result_matches_legacy(self):
        """Fused execution matches the per-op reference (the test id
        predates it: the reference used to be the legacy engine)."""
        val_dec, prof_dec = self._run("decoded")
        with engine_mode(PER_OP) as engine:
            val_ref, prof_ref = self._run(engine)
        assert val_dec == val_ref == sum(range(10))
        assert prof_dec.cycles == prof_ref.cycles
        assert prof_dec.instructions == prof_ref.instructions
        assert prof_dec.opcode_counts == prof_ref.opcode_counts
        assert prof_dec.team_cycles == prof_ref.team_cycles

    def test_call_to_undefined_function_message(self):
        module = Module("m")
        ext = module.add_function(
            Function("ext", FunctionType(I64, ()), linkage="external")
        )
        func, b = make_kernel(module, params=(PTR_GLOBAL,), arg_names=["out"])
        b.store(b.call(ext, []), func.args[0])
        b.ret()
        verify_module(module)
        gpu = VirtualGPU(module, engine="decoded")
        out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
        with pytest.raises(SimulationError, match=r"call to undefined function @ext"):
            gpu.run(LaunchSpec(kernel="kern", args=(out,)))

    def test_division_by_zero_parity(self):
        from repro.vgpu import TrapError

        for label in ("decoded", PER_OP, "warp"):
            module = Module("m")
            func, b = make_kernel(module, params=(I64,), arg_names=["d"])
            b.sdiv(b.i64(1), func.args[0])
            b.ret()
            verify_module(module)
            with engine_mode(label) as engine:
                gpu = VirtualGPU(module, engine=engine)
                with pytest.raises(TrapError, match="integer division by zero"):
                    gpu.run(LaunchSpec(kernel="kern", args=(0,)))

    def test_engine_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp")
        module, func = _phi_loop_module()
        gpu = VirtualGPU(module)
        assert gpu.engine == "warp"
        # The legacy tree-walker is gone: its name is an unknown engine.
        for name in ("legacy", "bogus"):
            monkeypatch.setenv("REPRO_SIM_ENGINE", name)
            with pytest.raises(ValueError, match="unknown simulation engine"):
                VirtualGPU(module)
        with pytest.raises(ValueError, match="unknown simulation engine"):
            VirtualGPU(module, engine="legacy")


# ---------------------------------------------------------------------------
# Fused runs: straight-line op sequences executed as one generated
# function must leave exactly the state per-op execution leaves.
# ---------------------------------------------------------------------------


def _capture(monkeypatch):
    """Record every TeamStats and ThreadContext a launch creates, so a
    failed launch's counters and cycles can still be inspected."""
    from repro.vgpu import interpreter as I
    from repro.vgpu.execstate import ThreadContext
    from repro.vgpu.profiler import TeamStats

    seen = {"stats": [], "threads": []}

    def stats_factory():
        seen["stats"].append(TeamStats())
        return seen["stats"][-1]

    def thread_factory(*args):
        seen["threads"].append(ThreadContext(*args))
        return seen["threads"][-1]

    monkeypatch.setattr(I, "TeamStats", stats_factory)
    monkeypatch.setattr(I, "ThreadContext", thread_factory)
    return seen


def where(thread):
    """Where *thread* stopped: (block name, index of the op among the
    block's decoded ops)."""
    frame = thread.frames[-1]
    code = D.decode_function(frame.function, CostModel(GPUConfig()), 32)
    pcs, names = code.block_starts
    i = bisect_right(pcs, frame.pc) - 1
    return names[i], frame.pc - pcs[i]


def _fault_state(module, label, args, monkeypatch):
    """Launch @kern on one thread under the engine *label* expecting a
    fault; return everything the fault leaves behind."""
    with monkeypatch.context() as m, engine_mode(label) as engine:
        seen = _capture(m)
        gpu = VirtualGPU(module, engine=engine)
        out = gpu.alloc_array(np.array([7, 0], dtype=np.int64))
        with pytest.raises(Exception) as excinfo:
            gpu.run(LaunchSpec(kernel="kern", args=(out, *args)))
    exc = excinfo.value
    (stats,), (thread,) = seen["stats"], seen["threads"]
    ctx = exc.context
    return {
        "type": type(exc),
        "message": str(exc),
        "block": ctx.block,
        "where": where(thread),
        "steps": ctx.steps,
        "thread_steps": thread.steps,
        "cycles": thread.phase_cycles,
        "opcode_counts": dict(stats.opcode_counts),
        "flops": stats.flops,
        "loads": dict(stats.loads_by_space),
        "stores": dict(stats.stores_by_space),
    }


def _straight_line_module(fault):
    """kern(out, d, off): one long straight-line block whose middle op
    faults — sdiv by ``d`` ("div"), a load at ``out + off`` ("load") or
    a read of a value whose definition never ran ("undef")."""
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64, I64),
                          arg_names=["out", "d", "off"])
    out, d, off = func.args
    body = func.add_block("body")
    undef_def = func.add_block("def")
    b.cond_br(b.icmp("eq", d, b.i64(12345)), undef_def, body)
    b.set_insert_point(undef_def)
    never = b.add(d, b.i64(1), "never")
    b.br(body)
    b.set_insert_point(body)
    x = b.load(I64, out)
    a = b.add(x, b.i64(3))
    f = b.fmul(b.sitofp(a), 2.5)
    g = b.fadd(f, 1.0)
    if fault == "div":
        q = b.sdiv(a, d)
    elif fault == "load":
        q = b.load(I64, b.ptradd(out, off))
    else:
        q = b.mul(never, b.i64(2))
    r = b.add(q, b.fptosi(g))
    b.store(b.xor(r, a), b.ptradd(out, b.i64(8)))
    b.ret()
    if fault != "undef":  # the undef read is deliberately malformed IR
        verify_module(module)
    return module


class TestFusedRuns:
    def test_simple_ops_of_a_block_fuse_into_one_run(self):
        module = _straight_line_module("div")
        gpu = VirtualGPU(module, engine="decoded")
        code = D.bind_function(gpu, module.get_function("kern")).code
        assert code.fused is None  # generated lazily, on first execution
        fused = D._frame_ops(gpu, code)
        (run,) = [op for op in fused
                  if op[0] is None and code.ops[op[3]][1] == "ret"]
        n, end = run[1], run[3]
        assert n == 11
        assert all(op[0] in D._SIMPLE for op in code.ops[end - n:end])
        assert code.ops[end - n - 1][0] not in D._SIMPLE  # maximal

    def test_per_op_device_runs_the_plain_op_list(self, monkeypatch):
        """A device with ``_per_op`` set generates no fused code, for the
        kernel frame and for callee frames; other devices still fuse."""
        module = Module("m")
        callee, cb = make_function(module, "twice", ret=I64, params=(I64,))
        cb.ret(cb.add(cb.mul(callee.args[0], cb.i64(2)), cb.i64(1)))
        func, b = make_kernel(module, params=(PTR_GLOBAL, I64),
                              arg_names=["out", "n"])
        b.store(b.call(callee, [func.args[1]]), func.args[0])
        b.ret()
        verify_module(module)

        def run(gpu):
            out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", args=(out, 20)))
            return gpu.read_array(out, np.int64, 1)[0]

        def forbidden(code):
            raise AssertionError(f"fused code generated for @{code.function.name}")

        gpu = VirtualGPU(module, engine="decoded")
        gpu._per_op = True
        with monkeypatch.context() as m:
            m.setattr(D, "_fuse", forbidden)
            assert run(gpu) == 41
            for fn in (func, callee):
                code = gpu._bound_cache[fn].code
                assert D._frame_ops(gpu, code) is code.ops
                assert code.fused is None
        fused_gpu = VirtualGPU(module, engine="decoded")
        assert run(fused_gpu) == 41
        assert fused_gpu._bound_cache[func].code.fused is not None

    @pytest.mark.parametrize("fault,args", [
        ("div", (0, 0)),
        ("load", (3, 1 << 40)),
    ])
    def test_fault_mid_run_matches_legacy_and_per_op(self, fault, args, monkeypatch):
        """A fault inside a fused run leaves exactly the per-op state
        (the test id predates the per-op reference replacing legacy)."""
        module = _straight_line_module(fault)
        fused = _fault_state(module, "decoded", args, monkeypatch)
        per_op = _fault_state(module, PER_OP, args, monkeypatch)
        assert fused == per_op
        assert fused["block"] == "body"

    def test_undefined_value_mid_run_matches_per_op(self, monkeypatch):
        module = _straight_line_module("undef")
        fused = _fault_state(module, "decoded", (0, 0), monkeypatch)
        per_op = _fault_state(module, PER_OP, (0, 0), monkeypatch)
        assert fused == per_op
        assert fused["type"] is SimulationError
        assert fused["message"].startswith("use of undefined value in @kern")

    def test_mutated_function_runs_new_ir_on_a_new_device(self, monkeypatch):
        """Fused code is cached by generated source, never by Function:
        an in-place mutation after a device ran the function must run
        the new IR on a new device, and an unchanged function must not
        recompile."""
        module = Module("m")
        func, b = make_kernel(module, params=(PTR_GLOBAL, I64),
                              arg_names=["out", "n"])
        x = b.load(I64, func.args[0])
        y = b.add(b.mul(x, func.args[1]), b.i64(5))
        b.store(y, func.args[0])
        b.ret()
        verify_module(module)
        monkeypatch.setattr(D, "_FUSED_MAKERS", {})

        def run():
            gpu = VirtualGPU(module, engine="decoded")
            out = gpu.alloc_array(np.array([6], dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", args=(out, 7)))
            return gpu.read_array(out, np.int64, 1)[0]

        assert run() == 6 * 7 + 5
        compiled = len(D._FUSED_MAKERS)
        assert compiled > 0
        assert run() == 6 * 7 + 5
        assert len(D._FUSED_MAKERS) == compiled  # same source: no recompile
        # Constants live in registers, so a new constant is new data for
        # the same code; a new opcode is new code.  Both in place, the
        # way passes rewrite IR.
        y.set_operand(1, Constant(I64, 100))
        assert run() == 6 * 7 + 100
        assert len(D._FUSED_MAKERS) == compiled
        sub = BinOp("sub", y.operands[0], y.operands[1])
        y.parent.insert_before(y, sub)
        y.replace_all_uses_with(sub)
        y.erase_from_parent()
        assert run() == 6 * 7 - 100
        assert len(D._FUSED_MAKERS) == compiled + 1

    def test_code_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(D, "_FUSED_MAKERS", {})
        monkeypatch.setattr(D, "_FUSED_CACHE_SIZE", 1)
        module = _straight_line_module("div")
        for _ in range(2):  # the second device recompiles evicted runs
            gpu = VirtualGPU(module, engine="decoded")
            out = gpu.alloc_array(np.array([7, 0], dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", args=(out, 2, 0)))
            assert gpu.read_array(out, np.int64, 2)[1] == (10 // 2 + 26) ^ 10
            assert len(D._FUSED_MAKERS) == 1

    @pytest.mark.parametrize("app_name", ["gridmini", "minifmm", "rsbench",
                                          "testsnap", "xsbench"])
    def test_second_cache_hit_copy_binds_the_same_runs(self, app_name, monkeypatch):
        """Fused runs and loops are bound once per content: a device on
        a second, independent copy of a cache hit renders and compiles
        nothing, no loop included, and runs the very run and loop
        functions the first device bound.  Both copies are mutable, so
        each decodes afresh rather than from the hit's shared decode."""
        from repro.bench.builds import NEW_RT_NIGHTLY

        compile_cell(app_name, NEW_RT_NIGHTLY)  # a miss, if the first
        monkeypatch.setattr(D, "_FUSED_MAKERS", {})
        bind_loop = D._bind_loop

        def spy_bind_loop(*args):
            calls.append("loop")
            return bind_loop(*args)

        def run_functions(module):
            gpu = VirtualGPU(module, engine="decoded")
            return [op[2] for func in module.defined_functions()
                    for op in D._frame_ops(gpu, D.bind_function(gpu, func).code)
                    if op[0] is None]

        calls = []
        monkeypatch.setattr(D, "_bind_loop", spy_bind_loop)

        first_module = compile_cell(app_name, NEW_RT_NIGHTLY).mutable_copy().module
        first = run_functions(first_module)
        assert calls.count("loop") == (0 if app_name == "gridmini" else
                                       1 if app_name == "minifmm" else 4)
        calls.clear()
        render = D._Spec.render

        def spy_render(self, *args, **kwargs):
            calls.append("render")
            return render(self, *args, **kwargs)

        def spy_compile(src, filename, mode):
            calls.append("compile")
            return compile(src, filename, mode)

        monkeypatch.setattr(D._Spec, "render", spy_render)
        monkeypatch.setattr(D, "compile", spy_compile, raising=False)
        second_module = compile_cell(app_name, NEW_RT_NIGHTLY).mutable_copy().module
        assert second_module is not first_module
        second = run_functions(second_module)
        assert calls == []
        assert first and len(second) == len(first)
        assert all(a is b for a, b in zip(first, second))

    def test_runs_differing_in_one_field_are_distinct_entries(self, monkeypatch):
        """The content key is exact: a run that differs from another only
        in a branch target, a register slot or an IntType width is its
        own entry, and each runs its own code."""
        from types import SimpleNamespace

        module, func = _phi_loop_module()
        gpu = VirtualGPU(module, engine="decoded")
        code = D.bind_function(gpu, func).code
        monkeypatch.setattr(D, "_FUSED_MAKERS", {})
        # The loop body: two adds, then the latch (br with phi moves).
        body = tuple(code.ops[3:6])
        assert [op[1] for op in body] == ["add", "add", "br"]
        add, add2, latch = body
        assert add[6] == I64 and latch[2] == 1
        variants = {
            "base": body,
            "target": (add, add2, latch[:2] + (6,) + latch[3:]),
            "slot": (add[:4] + (add[5],) + add[5:], add2, latch),
            "width": (add[:6] + (I32,) + add[7:], add2, latch),
        }

        def state(run_ops):
            run = D._compile_run(run_ops, 5)[2]
            frame = SimpleNamespace(regs=[0] * 15, pc=None)
            frame.regs[3], frame.regs[4], frame.regs[14] = 1, 2**32 - 1, 1
            run(None, None, frame)
            return run, frame.regs[3], frame.regs[4], frame.pc

        got = {name: state(ops) for name, ops in variants.items()}
        assert len(D._FUSED_MAKERS) == len(variants)
        assert len({id(g[0]) for g in got.values()}) == len(variants)
        assert {name: g[1:] for name, g in got.items()} == {
            "base": (2, 2**32, 1),
            "target": (2, 2**32, 6),
            "slot": (2, 2, 1),  # r7 = r3 + r3
            "width": (2, 0, 1),  # r7 = (r4 + r3) mod 2**32
        }
        assert state(body)[0] is got["base"][0]  # a hit binds nothing new
        assert len(D._FUSED_MAKERS) == len(variants)

    def test_warp_launch_of_new_rt_module_generates_no_fused_code(self, monkeypatch):
        from repro.bench.builds import NEW_RT, build_options
        from repro.bench.harness import APPS
        from repro.toolchain.service import ToolchainSession

        def forbidden(code):
            raise AssertionError(f"fused code generated for @{code.function.name}")

        monkeypatch.setattr(D, "_fuse", forbidden)
        app = APPS["xsbench"]
        size = app.default_size()
        compiled = ToolchainSession().compile(app.build_program(size),
                                              build_options()[NEW_RT])
        gpu = VirtualGPU(compiled.module, engine="warp")
        assert gpu._warp_lockstep_ok
        host_args, verify = app.prepare(gpu, size)
        gpu.run(LaunchSpec(
            kernel=app.KERNEL, num_teams=app.TEAMS, threads_per_team=app.THREADS,
            args=tuple(compiled.abi(app.KERNEL).marshal(gpu, host_args)),
        ))
        assert verify(gpu, host_args) < 1e-9


# ---------------------------------------------------------------------------
# Block runs: a fused run covers its block's terminator too, so phi
# moves, branch targets and the terminator's counters are generated code.
# ---------------------------------------------------------------------------


def swap_loop_module(latch):
    """kern(out, n): ``x, y = y, x`` on every trip of a counted loop
    while ``acc = 3 * acc + x`` observes the order, then out[0:3] =
    (acc, x, y).  With *latch* "condbr" the loop is bottom-tested and
    its condbr carries the swap; with "brn" it is top-tested and the
    back-edge br (several phi moves) carries it."""
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64), arg_names=["out", "n"])
    out, n = func.args
    entry = b.block
    loop = func.add_block("loop")
    exit_ = func.add_block("exit")
    b.br(loop)
    b.set_insert_point(loop)
    phis = [b.phi(I64, name) for name in ("i", "x", "y", "acc")]
    i, x, y, acc = phis
    for phi, init in zip(phis, (0, 1, 2, 0)):
        phi.add_incoming(b.i64(init), entry)
    if latch == "brn":
        body = func.add_block("body")
        b.cond_br(b.icmp("slt", i, n), body, exit_)
        b.set_insert_point(body)
    nacc = b.add(b.mul(acc, b.i64(3)), x)
    ni = b.add(i, b.i64(1))
    if latch == "condbr":
        b.cond_br(b.icmp("slt", ni, n), loop, exit_)
    else:
        b.br(loop)
    for phi, v in zip(phis, (ni, y, x, nacc)):
        phi.add_incoming(v, b.block)
    b.set_insert_point(exit_)
    for k, v in enumerate((nacc if latch == "condbr" else acc, x, y)):
        b.store(v, b.ptradd(out, b.i64(8 * k)))
    b.ret()
    verify_module(module)
    return module


def _fault_before_branch_module(fault):
    """kern(out, d, off): the op right before the body block's condbr
    faults — sdiv by ``d`` ("div"), a load at ``out + off`` ("load") or
    llvm.sqrt of a value whose definition never ran ("math1")."""
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64, I64),
                          arg_names=["out", "d", "off"])
    out, d, off = func.args
    body = func.add_block("body")
    undef_def = func.add_block("def")
    yes = func.add_block("yes")
    no = func.add_block("no")
    b.cond_br(b.icmp("eq", d, b.i64(12345)), undef_def, body)
    b.set_insert_point(undef_def)
    never = b.sitofp(d, name="never")
    b.br(body)
    b.set_insert_point(body)
    a = b.add(b.load(I64, out), b.i64(3))
    f = b.fmul(b.sitofp(a), 2.5)
    c = b.icmp("slt", a, b.i64(100))
    p = b.ptradd(out, off)
    if fault == "div":
        q = b.sdiv(a, d)
    elif fault == "load":
        q = b.load(I64, p)
    else:
        q = b.intrinsic("llvm.sqrt.f64", [never])
    b.cond_br(c, yes, no)
    b.set_insert_point(yes)
    if fault == "math1":
        q = b.fptosi(b.fadd(f, q))
    b.store(q, b.ptradd(out, b.i64(8)))
    b.ret()
    b.set_insert_point(no)
    b.ret()
    if fault != "math1":  # the undefined read is deliberately malformed IR
        verify_module(module)
    return module


def _swap_loop_state(module, label, n):
    with engine_mode(label) as engine:
        gpu = VirtualGPU(module, engine=engine)
        out = gpu.alloc_array(np.zeros(3, dtype=np.int64))
        result = gpu.run(LaunchSpec(kernel="kern", args=(out, n)))
    profile = result.profile
    return (gpu.read_array(out, np.int64, 3).tolist(), profile.cycles,
            profile.instructions, dict(profile.opcode_counts))


class TestBlockRuns:
    @pytest.mark.parametrize("latch", ["condbr", "brn"])
    def test_every_block_is_one_run_including_its_terminator(self, latch):
        module = swap_loop_module(latch)
        gpu = VirtualGPU(module, engine="decoded")
        code = D.bind_function(gpu, module.get_function("kern")).code
        fused = D._frame_ops(gpu, code)
        pcs = list(code.block_starts[0])
        for start, end in zip(pcs, pcs[1:] + [len(code.ops)]):
            last = code.ops[end - 1]
            if last[1] == "ret":  # exit: stores fuse, the ret stays per op
                assert fused[start][1] == end - 1 - start
                continue
            assert last[0] in D._TERMINATORS
            assert fused[start][0] is None and fused[start][1] == end - start
            assert all(op[0] is not None for op in fused[start + 1:end])

    @pytest.mark.parametrize("latch", ["condbr", "brn"])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_phi_swap_through_a_fused_branch(self, latch, n):
        module = swap_loop_module(latch)
        acc, x, y = 0, 1, 2
        for _ in range(n):
            acc, x, y = 3 * acc + x, y, x
        if latch == "condbr":  # exit sees the last trip's phis, not its moves
            x, y = y, x
        fused = _swap_loop_state(module, "decoded", n)
        per_op = _swap_loop_state(module, PER_OP, n)
        warp = _swap_loop_state(module, "warp", n)
        assert fused == per_op == warp
        assert fused[0] == [acc, x, y]

    @pytest.mark.parametrize("fault,args", [
        ("div", (0, 0)),
        ("load", (3, 1 << 40)),
        ("math1", (0, 0)),
    ])
    def test_fault_right_before_a_fused_condbr(self, fault, args, monkeypatch):
        """The faulting op retires (step and opcode count) but charges
        no cycles or flops; the condbr after it never runs."""
        module = _fault_before_branch_module(fault)
        fused = _fault_state(module, "decoded", args, monkeypatch)
        per_op = _fault_state(module, PER_OP, args, monkeypatch)
        assert fused == per_op
        if fault == "math1":
            assert fused["message"].startswith("use of undefined value in @kern")
        assert fused["block"] == "body"
        assert fused["opcode_counts"]["condbr"] == 1  # the entry block's
        gpu = VirtualGPU(module, engine="decoded")
        code = D.bind_function(gpu, module.get_function("kern")).code
        pcs, names = code.block_starts
        body = pcs[names.index("body")]
        name, index = fused["where"]
        assert name == "body" and code.ops[body + index + 1][1] == "condbr"
        assert fused["flops"] == 1  # the fmul; a faulting sqrt counts none



# ---------------------------------------------------------------------------
# Loop runs: a single-entry cycle of block runs is one generated while
# loop with its registers in locals.
# ---------------------------------------------------------------------------


def loop_fault_module(latch):
    """kern(out, n, d, k): for i in range(n), load from ``out + (i <<
    k)``, store ``(acc + x) / (i - d)`` to out[1] and carry ``acc + 2.5
    * i`` (a flop) into the next trip.  sdiv faults in trip d + 1, and
    the load in trip 2 when ``1 << k`` is out of bounds.  With *latch*
    "condbr" the loop is one bottom-tested block, with "brn" a header
    and a body."""
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64, I64, I64),
                          arg_names=["out", "n", "d", "k"])
    out, n, d, k = func.args
    entry = b.block
    loop = func.add_block("loop")
    exit_ = func.add_block("exit")
    b.br(loop)
    b.set_insert_point(loop)
    i, acc = b.phi(I64, "i"), b.phi(I64, "acc")
    i.add_incoming(b.i64(0), entry)
    acc.add_incoming(b.i64(1), entry)
    if latch == "brn":
        b.cond_br(b.icmp("slt", i, n), func.add_block("body"), exit_)
        b.set_insert_point(loop.terminator.true_target)
    x = b.load(I64, b.ptradd(out, b.shl(i, k)))
    b.store(b.sdiv(b.add(acc, x), b.sub(i, d)), b.ptradd(out, b.i64(8)))
    nacc = b.add(acc, b.fptosi(b.fmul(b.sitofp(i), 2.5)))
    ni = b.add(i, b.i64(1))
    if latch == "condbr":
        b.cond_br(b.icmp("slt", ni, n), loop, exit_)
    else:
        b.br(loop)
    i.add_incoming(ni, b.block)
    acc.add_incoming(nacc, b.block)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


def _loop_entries(gpu, module):
    """The loop entries of @kern's fused op list."""
    code = D.bind_function(gpu, module.get_function("kern")).code
    return [op for op in D._frame_ops(gpu, code) if op[0] is None and op[6] is None]


def nested_loop_module():
    """kern(out, n): for i in range(n): for j in range(i): acc += i * j
    (an inner loop of two blocks inside an outer one), out[0] = acc."""
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64), arg_names=["out", "n"])
    out, n = func.args
    entry = b.block
    outer, inner, inner_body, latch, exit_ = (
        func.add_block(name) for name in ("outer", "inner", "ibody", "latch", "exit"))
    b.br(outer)
    b.set_insert_point(outer)
    i, acc = b.phi(I64, "i"), b.phi(I64, "acc")
    b.cond_br(b.icmp("slt", i, n), inner, exit_)
    b.set_insert_point(inner)
    j, iacc = b.phi(I64, "j"), b.phi(I64, "iacc")
    b.cond_br(b.icmp("slt", j, i), inner_body, latch)
    b.set_insert_point(inner_body)
    nj, niacc = b.add(j, b.i64(1)), b.add(iacc, b.mul(i, j))
    b.br(inner)
    b.set_insert_point(latch)
    ni = b.add(i, b.i64(1))
    b.br(outer)
    for phi, pairs in ((i, ((b.i64(0), entry), (ni, latch))),
                       (acc, ((b.i64(0), entry), (iacc, latch))),
                       (j, ((b.i64(0), outer), (nj, inner_body))),
                       (iacc, ((acc, outer), (niacc, inner_body)))):
        for value, pred in pairs:
            phi.add_incoming(value, pred)
    b.set_insert_point(exit_)
    b.store(acc, out)
    b.ret()
    verify_module(module)
    return module


class TestLoopRuns:
    @pytest.mark.parametrize("latch,blocks", [("condbr", 1), ("brn", 2)])
    def test_a_call_free_loop_is_one_loop_entry(self, latch, blocks):
        module = swap_loop_module(latch)
        gpu = VirtualGPU(module, engine="decoded")
        (entry,) = _loop_entries(gpu, module)
        code = gpu._bound_cache[module.get_function("kern")].code
        pcs, names = code.block_starts
        header = pcs[names.index("loop")]
        assert D._frame_ops(gpu, code)[header] is entry
        assert len(entry[5]) == blocks
        assert entry[5][0][0] == header

    def test_nested_loops_are_one_loop_or_the_inner_one(self, monkeypatch):
        """Within the caps the whole nest is one loop run; a nest over
        the block cap leaves its inner loop as the loop run."""
        module = nested_loop_module()

        def loops():
            gpu = VirtualGPU(module, engine="decoded")
            out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
            gpu.run(LaunchSpec(kernel="kern", args=(out, 6)))
            assert gpu.read_array(out, np.int64, 1)[0] == sum(
                i * j for i in range(6) for j in range(i))
            code = gpu._bound_cache[module.get_function("kern")].code
            _, names = code.block_starts
            pcs = dict(zip(code.block_starts[0], names))
            return [sorted(pcs[start] for start, _, _ in op[5])
                    for op in _loop_entries(gpu, module)]

        assert loops() == [["ibody", "inner", "latch", "outer"]]
        monkeypatch.setattr(D, "_MAX_LOOP_BLOCKS", 3)
        assert loops() == [["ibody", "inner"]]
        monkeypatch.setattr(D, "_MAX_LOOP_OPS", 3)
        assert loops() == []

    @pytest.mark.parametrize("latch", ["condbr", "brn"])
    @pytest.mark.parametrize("fault,args", [
        ("div", (5, 2, 0)),  # sdiv by zero in trip 3
        ("load", (5, 100, 40)),  # out-of-bounds load in trip 2
    ])
    def test_fault_in_a_later_trip_matches_per_op(self, latch, fault, args,
                                                  monkeypatch):
        """Steps, cycles, opcode counts, flops, the address-space counts
        and the crash context of a fault in a loop run's later trip are
        the per-op ones: the unwind folds the completed trips' hits and
        retires the faulting block up to the faulting op."""
        module = loop_fault_module(latch)
        assert _loop_entries(VirtualGPU(module, engine="decoded"), module)
        fused = _fault_state(module, "decoded", args, monkeypatch)
        per_op = _fault_state(module, PER_OP, args, monkeypatch)
        assert fused == per_op
        assert fused["block"] == ("loop" if latch == "condbr" else "body")
        trips = 3 if fault == "div" else 2
        assert fused["opcode_counts"]["load"] == trips
        assert fused["flops"] == trips - 1

    def test_every_step_limit_through_a_two_block_loop_matches_per_op(
            self, monkeypatch):
        """The budget ends before, inside and on the terminator of each
        block of a loop run, and past the kernel's end: the loop leaves
        before the block that would cross it and the run loop executes
        that block per op, exactly like per-op execution."""
        from repro.vgpu import StepLimitExceeded

        def state(label, limit):
            with monkeypatch.context() as m, engine_mode(label) as engine:
                seen = _capture(m)
                gpu = VirtualGPU(swap_loop_module("brn"),
                                 config=GPUConfig(max_steps_per_thread=limit),
                                 engine=engine)
                out = gpu.alloc_array(np.zeros(3, dtype=np.int64))
                try:
                    gpu.run(LaunchSpec(kernel="kern", args=(out, 4)))
                    error = None
                except StepLimitExceeded as exc:
                    error = (str(exc), exc.context.to_dict(),
                             where(seen["threads"][0]))
            (stats,), (thread,) = seen["stats"], seen["threads"]
            return (error, thread.steps, thread.phase_cycles,
                    dict(stats.opcode_counts), gpu.read_array(out, np.int64, 3).tolist())

        total = 1 + 6 * 4 + 2 + 6  # entry br, 4 trips, the exit test, exit
        for limit in range(1, total + 2):
            per_op = state(PER_OP, limit)
            assert state("decoded", limit) == per_op, limit
            assert (per_op[0] is None) == (limit >= total), limit


@pytest.mark.parametrize("label", [PER_OP, "decoded"])
def test_segment_resolved_once_per_thread_and_tag(label, monkeypatch):
    """Loads and stores find their segment in the thread's segment
    table: a launch resolves each (thread, tag) at most once, through
    global (1), shared (3) and local (5) pointers in a loop."""
    module = Module("m")
    func, b = make_kernel(module, params=(PTR_GLOBAL, I64), arg_names=["out", "n"])
    out, n = func.args
    entry = b.block
    tid = b.sext(b.thread_id(), I64)
    slot = b.alloca(I64)
    shared = b.intrinsic("gpu.dynamic_shared", [])
    b.store(tid, slot)
    loop, exit_ = func.add_block("loop"), func.add_block("exit")
    b.br(loop)
    b.set_insert_point(loop)
    i = b.phi(I64, "i")
    i.add_incoming(b.i64(0), entry)
    b.store(b.add(b.load(I64, slot), b.load(I64, out)), b.ptradd(shared, b.mul(tid, b.i64(8))))
    ni = b.add(i, b.i64(1))
    i.add_incoming(ni, loop)
    b.cond_br(b.icmp("slt", ni, n), loop, exit_)
    b.set_insert_point(exit_)
    b.store(b.load(I64, b.ptradd(shared, b.mul(tid, b.i64(8)))),
            b.ptradd(out, b.mul(b.add(tid, b.i64(1)), b.i64(8))))
    b.ret()
    verify_module(module)

    seen = {}
    segment = D._segment

    def spy(vm, thread, tag):
        key = (thread.team_id, thread.thread_id, tag)
        seen[key] = seen.get(key, 0) + 1
        return segment(vm, thread, tag)

    monkeypatch.setattr(D, "_segment", spy)
    with engine_mode(label) as engine:
        gpu = VirtualGPU(module, engine=engine)
        buf = gpu.alloc_array(np.array([5] + [0] * 4, dtype=np.int64))
        gpu.run(LaunchSpec(kernel="kern", num_teams=2, threads_per_team=4,
                           dynamic_shared_bytes=64, args=(buf, 3)))
    assert gpu.read_array(buf, np.int64, 5).tolist() == [5, 5, 6, 7, 8]
    assert {tag for _, _, tag in seen} == {1, 3, 5}
    assert set(seen.values()) == {1}
    assert len(seen) == 2 * 4 * 3

#: The calls a block run inlines: the pure intrinsics.
_PURE_CALLS = {"_h_thread_id", "_h_block_id", "_h_block_dim", "_h_grid_dim",
               "_h_const_result", "_h_lane_id", "_h_math1", "_h_math2"}


def _fusable(op):
    """Whether *op* belongs in a block run, by its opcode and handler
    name (independently of the decoder's own tables)."""
    if op[1] == "call":
        return op[0].__name__ in _PURE_CALLS
    if op[1] in ("load", "store"):
        return not op[0].__name__.endswith("_slow")
    return op[1] not in ("alloca", "atomicrmw", "ret", "unreachable")


@pytest.mark.parametrize("app_name", ["gridmini", "minifmm", "rsbench", "testsnap",
                                      "xsbench"])
def test_new_rt_blocks_decode_to_one_run_each(app_name):
    """Structural guard, no timing: in every function of each app's New
    RT build, a basic block whose ops are all fusable decodes to one
    fused entry at its start that covers the whole block (blocks longer
    than ``_MAX_RUN`` to one entry per ``_MAX_RUN`` ops), with no other
    entry inside it."""
    from repro.bench.builds import NEW_RT, build_options
    from repro.bench.harness import APPS
    from repro.toolchain.service import ToolchainSession

    app = APPS[app_name]
    compiled = ToolchainSession().compile(app.build_program(app.default_size()),
                                          build_options()[NEW_RT])
    gpu = VirtualGPU(compiled.module, engine="decoded")
    checked = 0
    for func in compiled.module.functions.values():
        if func.is_declaration:
            continue
        code = D.bind_function(gpu, func).code
        fused = D._frame_ops(gpu, code)
        pcs = list(code.block_starts[0])
        for start, end in zip(pcs, pcs[1:] + [len(code.ops)]):
            if not all(_fusable(op) for op in code.ops[start:end]):
                continue
            entries = [pc for pc in range(start, end) if fused[pc][0] is None]
            assert entries == list(range(start, end, D._MAX_RUN)), (
                f"@{func.name}: block at pc {start} re-split at {entries}")
            assert sum(fused[pc][1] for pc in entries) == end - start
            checked += 1
    assert checked


def _scalar_fields(field):
    """*field* and, through nested tuples, every value inside it."""
    if type(field) is tuple:
        for item in field:
            yield from _scalar_fields(item)
    else:
        yield field


def test_run_op_fields_are_never_float_or_bool():
    """Fused runs are keyed by their ops' content, compared by value:
    1 == 1.0 == True and 0.0 == -0.0 would let a run bind another's
    code.  No simple op or terminator of the 24 cells may carry a float
    or a bool field (IR constants live in registers)."""
    bad = []
    for app_name, build in matrix_cells():
        module = compile_cell(app_name, build).module
        gpu = VirtualGPU(module, engine="decoded")
        for func in module.defined_functions():
            for op in D.bind_function(gpu, func).code.ops:
                if op[0] not in D._SIMPLE and op[0] not in D._TERMINATORS:
                    continue
                if any(type(v) in (float, bool) for v in _scalar_fields(op[1:])):
                    bad.append((app_name, build, func.name, op))
    assert bad == []


# ---------------------------------------------------------------------------
# Team counters: exact dicts on the hot path, one hit per fused run.
# ---------------------------------------------------------------------------

_HOT_COUNTERS = ("opcode_counts", "loads_by_space", "stores_by_space",
                 "runtime_calls")


class TestTeamCounters:
    @pytest.mark.parametrize("engine", [PER_OP, "decoded", "warp"])
    def test_hot_counters_are_exact_dicts(self, engine, monkeypatch):
        module, func = _phi_loop_module()
        with monkeypatch.context() as m, engine_mode(engine) as engine:
            seen = _capture(m)
            _launch(module, engine)
        (stats,) = seen["stats"]
        for name in _HOT_COUNTERS:
            assert type(getattr(stats, name)) is dict, name

    def test_fused_run_source_counts_no_opcodes(self, monkeypatch):
        sources = []

        def spy(src, filename, mode):
            sources.append(src)
            return compile(src, filename, mode)

        monkeypatch.setattr(D, "_FUSED_MAKERS", {})
        monkeypatch.setattr(D, "compile", spy, raising=False)
        module = _straight_line_module("div")
        gpu = VirtualGPU(module, engine="decoded")
        out = gpu.alloc_array(np.array([7, 0], dtype=np.int64))
        profile = gpu.run(LaunchSpec(kernel="kern", args=(out, 2, 0))).profile
        assert len(sources) >= 2
        for src in sources:
            assert "opcode_counts" not in src and "flops" not in src
        # ... yet every op of the runs is counted, flops included.
        assert profile.opcode_counts["fmul"] == profile.opcode_counts["sdiv"] == 1
        assert profile.flops == 2

    @pytest.mark.parametrize("engine", [PER_OP, "decoded", "warp"])
    def test_untouched_keys_are_not_reported(self, engine):
        module, func = _phi_loop_module()
        with engine_mode(engine) as engine:
            gpu = VirtualGPU(module, engine=engine)
            out = gpu.alloc_array(np.zeros(1, dtype=np.int64))
            profile = gpu.run(LaunchSpec(kernel="kern", num_teams=2,
                                         threads_per_team=4,
                                         args=(out, 3))).profile
        assert set(profile.opcode_counts) == {
            "br", "condbr", "icmp", "add", "store", "ret"}
        assert dict(profile.stores_by_space) == {AddressSpace.GLOBAL: 8}
        assert profile.loads_by_space == {} and profile.runtime_calls == {}
        for name in _HOT_COUNTERS:
            assert 0 not in getattr(profile, name).values(), name
        data = profile.to_dict()
        assert data["loads_by_space"] == data["runtime_calls"] == {}
