"""Call graph construction, recursion and address-taken tracking."""

from repro.ir import CallGraph, Function, FunctionType, I64, IRBuilder, PTR, VOID
from tests.conftest import make_function, make_kernel


def build_chain(module):
    """kernel -> a -> b; c is unreachable; b passed as fn-ptr to a."""
    b_fn, bb = make_function(module, "b", ret=VOID, params=())
    bb.ret()
    a_fn, ab = make_function(module, "a", ret=VOID, params=())
    ab.call(b_fn, [])
    ab.ret()
    c_fn, cb = make_function(module, "c", ret=VOID, params=())
    cb.ret()
    kern, kb = make_kernel(module, params=())
    kb.call(a_fn, [])
    kb.ret()
    return kern, a_fn, b_fn, c_fn


def build_calls(module, edges):
    """One void function per name, calling its listed callees in order."""
    funcs = {name: module.add_function(Function(name, FunctionType(VOID, ())))
             for name in edges}
    for name, callees in edges.items():
        b = IRBuilder(module, funcs[name].add_block("entry"))
        for callee in callees:
            b.call(funcs[callee], [])
        b.ret()
    return funcs


class TestCallGraph:
    def test_edges(self, module):
        kern, a, b, c = build_chain(module)
        ext = module.declare("ext", FunctionType(VOID, ()))
        cg = CallGraph(module)
        assert cg.callees(kern) == {a}
        assert cg.callers(b) == {a}
        assert cg.callees(c) == set()
        assert cg.callees(ext) == set() and cg.callers(ext) == set()

    def test_transitive(self, module):
        kern, a, b, c = build_chain(module)
        cg = CallGraph(module)
        assert cg.transitive_callees(kern) == {a, b}
        assert cg.transitive_callees(b) == set()

    def test_direct_recursion(self, module):
        f, fb = make_function(module, "rec", ret=VOID, params=())
        fb.call(f, [])
        fb.ret()
        cg = CallGraph(module)
        assert cg.is_recursive(f)
        # The source is never its own transitive callee.
        assert cg.transitive_callees(f) == set()

    def test_mutual_recursion(self, module):
        f = module.add_function(Function("f", FunctionType(VOID, ())))
        g = module.add_function(Function("g", FunctionType(VOID, ())))

        fb = IRBuilder(module, f.add_block("entry"))
        fb.call(g, [])
        fb.ret()
        gb = IRBuilder(module, g.add_block("entry"))
        gb.call(f, [])
        gb.ret()
        cg = CallGraph(module)
        assert cg.is_recursive(f) and cg.is_recursive(g)

    def test_three_cycle(self, module):
        fs = build_calls(module, {"f": ["g"], "g": ["h"], "h": ["f"], "top": ["f"]})
        cg = CallGraph(module)
        assert all(cg.is_recursive(fs[n]) for n in "fgh")
        assert not cg.is_recursive(fs["top"])
        assert cg.transitive_callees(fs["f"]) == {fs["g"], fs["h"]}
        assert cg.transitive_callees(fs["top"]) == {fs["f"], fs["g"], fs["h"]}

    def test_non_recursive(self, module):
        kern, a, b, c = build_chain(module)
        # A diamond reaches one callee along two paths without a cycle.
        fs = build_calls(module, {"top": ["l", "r"], "l": ["bot"], "r": ["bot"], "bot": []})
        cg = CallGraph(module)
        assert not cg.is_recursive(a)
        assert not any(cg.is_recursive(f) for f in fs.values())
        assert cg.transitive_callees(fs["top"]) == {fs["l"], fs["r"], fs["bot"]}

    def test_address_taken_via_call_argument(self, module):
        body, bb = make_function(module, "body", ret=VOID, params=())
        bb.ret()
        runtime = module.declare("rt_loop", FunctionType(VOID, (PTR,)))
        kern, kb = make_kernel(module, params=())
        kb.call(runtime, [body])
        kb.ret()
        cg = CallGraph(module)
        assert body in cg.address_taken
        assert runtime not in cg.address_taken

    def test_address_taken_via_cast_and_store(self, module):
        cast_body, cb = make_function(module, "cast_body", ret=VOID, params=())
        cb.ret()
        stored_body, sb = make_function(module, "stored_body", ret=VOID, params=())
        sb.ret()
        called, calb = make_function(module, "called", ret=VOID, params=())
        calb.ret()
        kern, kb = make_kernel(module, params=())
        kb.cast("ptrtoint", cast_body, I64)
        kb.store(stored_body, kb.alloca(PTR))
        kb.call(called, [])
        kb.ret()
        cg = CallGraph(module)
        assert cg.address_taken == {cast_body, stored_body}

    def test_call_sites(self, module):
        kern, a, b, c = build_chain(module)
        d, db = make_function(module, "d", ret=VOID, params=())
        db.call(b, [])
        db.call(b, [])
        db.ret()
        cg = CallGraph(module)
        assert len(cg.call_sites(kern, a)) == 1
        assert len(cg.call_sites(d, b)) == 2
        assert len(cg.all_call_sites_of(b)) == 3
        assert cg.callers(b) == {a, d}
