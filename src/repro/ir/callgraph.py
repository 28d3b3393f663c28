"""Call graph construction over a module.

The graph holds the direct call edges of every function (declarations
included, with no callees) and the *address-taken* functions: those
that appear as an operand of any instruction other than as a direct
call's own callee — passed as a call argument (the outlined loop
bodies handed to the worksharing runtime calls, Fig. 5), cast, stored
or otherwise escaping into data.  An indirect call may reach any of
them.

It is built from each function's own use list, not by scanning every
operand of every instruction.  Only uses by instructions in a block of
a function of this module count: operand 0 of a ``call`` is a call
edge, any other use takes the address.  A detached instruction that
still references a function is ignored.  The call sites of one edge
are listed in use-list order.

The inter-procedural passes ask it for direct callees and call sites
(inlining), recursion (the inliner skips recursive callees) and the
transitive callees (the write summaries of value propagation, §IV-B;
the register and shared-memory accounting of a kernel).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.instructions import Call
from repro.ir.module import Function, Module


class CallGraph:
    """Direct call graph plus address-taken tracking."""

    def __init__(self, module: Module) -> None:
        self.address_taken: Set[Function] = set()
        self._callees: Dict[Function, Set[Function]] = {f: set() for f in module.functions.values()}
        self._callers: Dict[Function, Set[Function]] = {f: set() for f in module.functions.values()}
        self._call_sites: Dict[Tuple[Function, Function], List[Call]] = {}
        #: Memoized :meth:`_reach` per function.
        self._reached: Dict[Function, Set[Function]] = {}
        for callee in module.functions.values():
            for use in callee.uses:
                user = use.user
                block = user.parent
                caller = block.parent if block is not None else None
                if caller is None or caller.parent is not module:
                    continue
                if use.index == 0 and type(user) is Call:
                    self._callees[caller].add(callee)
                    self._callers[callee].add(caller)
                    self._call_sites.setdefault((caller, callee), []).append(user)
                else:
                    self.address_taken.add(callee)

    def _reach(self, func: Function) -> Set[Function]:
        """Functions reachable from *func* over one or more call edges
        (*func* itself only if it lies on a cycle)."""
        reached = self._reached.get(func)
        if reached is None:
            reached = set()
            work = list(self._callees[func])
            while work:
                callee = work.pop()
                if callee not in reached:
                    reached.add(callee)
                    work.extend(self._callees[callee])
            self._reached[func] = reached
        return reached

    # -- queries -------------------------------------------------------------

    def callees(self, func: Function) -> Set[Function]:
        return set(self._callees[func])

    def callers(self, func: Function) -> Set[Function]:
        return set(self._callers[func])

    def call_sites(self, caller: Function, callee: Function) -> List[Call]:
        return list(self._call_sites.get((caller, callee), []))

    def all_call_sites_of(self, callee: Function) -> List[Call]:
        sites: List[Call] = []
        for caller in self._callers[callee]:
            sites.extend(self._call_sites[(caller, callee)])
        return sites

    def is_recursive(self, func: Function) -> bool:
        """True if *func* participates in a call-graph cycle."""
        return func in self._reach(func)

    def transitive_callees(self, func: Function) -> Set[Function]:
        """Every function *func* reaches through calls, *func* itself
        excluded even when it is recursive."""
        return self._reach(func) - {func}
