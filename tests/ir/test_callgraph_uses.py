"""The use-list call graph agrees with the operand scan it replaced.

``scan`` is the old definition, kept here as the reference: walk every
instruction of every defined function; a direct call's operand 0 is a
call edge and any other function operand takes the address.  The graph
must give the same callees, callers, address-taken set and call sites,
on hand-built edge cases and on every module the pipeline leaves after
every pass of the 24 matrix builds.
"""

from __future__ import annotations

from collections import Counter

from repro.ir import Call, CallGraph, Function, FunctionType, I64, IRBuilder, Module, PTR, VOID
from repro.passes.pass_manager import PassManager
from tests.conftest import make_function, make_kernel, matrix_cells


def scan(module):
    """(callees, callers, call-site ids per edge, address-taken) by
    scanning every operand of every instruction."""
    callees = {f: set() for f in module.functions.values()}
    callers = {f: set() for f in module.functions.values()}
    sites = Counter()
    taken = set()
    for func in module.defined_functions():
        for inst in func.instructions():
            operands = inst.operands
            if isinstance(inst, Call) and inst.callee is not None:
                callee = inst.callee
                callees[func].add(callee)
                callers.setdefault(callee, set()).add(func)
                sites[(func, callee)] += 1
                operands = operands[1:]
            for op in operands:
                if isinstance(op, Function):
                    taken.add(op)
    return callees, callers, sites, taken


def assert_matches_scan(module, where=""):
    callees, callers, sites, taken = scan(module)
    cg = CallGraph(module)
    for func in module.functions.values():
        assert cg.callees(func) == callees[func], (where, func.name)
        assert cg.callers(func) == callers[func], (where, func.name)
        assert len(cg.all_call_sites_of(func)) == sum(
            n for (_, callee), n in sites.items() if callee is func), (where, func.name)
    for (caller, callee), n in sites.items():
        got = cg.call_sites(caller, callee)
        assert len(got) == n and all(c.callee is callee and c.function is caller for c in got), (
            where, caller.name, callee.name)
    assert cg.address_taken == taken, where
    return cg


def _void(module, name):
    return module.add_function(Function(name, FunctionType(VOID, (PTR,))))


class TestEdgeCases:
    def test_function_stored_to_memory(self, module):
        stored, sb = make_function(module, "stored", ret=VOID, params=())
        sb.ret()
        kern, kb = make_kernel(module, params=())
        kb.store(stored, kb.alloca(PTR))
        kb.ret()
        cg = assert_matches_scan(module)
        assert cg.address_taken == {stored}
        assert cg.callers(stored) == set()

    def test_function_passed_as_call_argument_also_to_itself(self, module):
        body, bb = make_function(module, "body", ret=VOID, params=())
        bb.ret()
        selfish = _void(module, "selfish")
        sb = IRBuilder(module, selfish.add_block("entry"))
        sb.ret()
        kern, kb = make_kernel(module, params=())
        kb.call(selfish, [body])
        kb.call(selfish, [selfish])
        kb.ret()
        cg = assert_matches_scan(module)
        assert cg.address_taken == {body, selfish}
        assert cg.callees(kern) == {selfish}
        assert len(cg.call_sites(kern, selfish)) == 2
        assert cg.callers(body) == set()

    def test_callee_also_used_as_a_plain_operand(self, module):
        both, bb = make_function(module, "both", ret=VOID, params=())
        bb.ret()
        kern, kb = make_kernel(module, params=())
        kb.call(both, [])
        kb.cast("ptrtoint", both, I64)
        kb.ret()
        cg = assert_matches_scan(module)
        assert cg.callees(kern) == {both}
        assert cg.address_taken == {both}

    def test_detached_instructions_are_ignored(self, module):
        gone, gb = make_function(module, "gone", ret=VOID, params=())
        gb.ret()
        kern, kb = make_kernel(module, params=())
        call = kb.call(gone, [])
        store = kb.store(gone, kb.alloca(PTR))
        kb.ret()
        # Unlinked from their block, with their operand uses still in place.
        for inst in (call, store):
            inst.parent.instructions.remove(inst)
            inst.parent = None
        Call(gone, [gone], VOID)  # never inserted anywhere
        assert gone.uses
        cg = assert_matches_scan(module)
        assert cg.callers(gone) == set() and cg.address_taken == set()

    def test_uses_from_another_module_are_ignored(self, module):
        callee, cb = make_function(module, "callee", ret=VOID, params=())
        cb.ret()
        other = Module("other")
        foreign, fb = make_function(other, "foreign", ret=VOID, params=())
        fb.call(callee, [])
        fb.store(callee, fb.alloca(PTR))
        fb.ret()
        cg = assert_matches_scan(module)
        assert cg.callers(callee) == set() and cg.address_taken == set()


def test_matches_scan_after_every_pass_of_the_matrix(monkeypatch):
    from repro.bench.builds import build_options
    from repro.bench.harness import APPS
    from repro.frontend.driver import compile_program_uncached

    run_pass = PassManager._run_pass
    checked = Counter()

    def run_and_check(self, p, module):
        changed = run_pass(self, p, module)
        assert_matches_scan(module, f"after {p.name}")
        checked[p.name] += 1
        return changed

    monkeypatch.setattr(PassManager, "_run_pass", run_and_check)
    options = build_options()
    for app, build in matrix_cells():
        compile_program_uncached(APPS[app].build_program(APPS[app].default_size()), options[build])
    assert {"inline", "cleanup", "openmp-opt-value-prop"} <= set(checked)
    assert sum(checked.values()) > 24 * 10
