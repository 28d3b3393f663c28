"""Inter-procedural conditional value propagation (paper §IV-B).

Built on the field-sensitive access analysis (§IV-B1, in
:mod:`repro.passes.memobjects`), this pass tracks the content of
analyzable memory bin-by-bin through a flow-sensitive dataflow that
implements the paper's remaining ingredients:

* reachability/dominance-style filtering of non-interfering accesses
  (§IV-B2) — realized as the flow-sensitive propagation itself (a
  write only affects the loads it can reach, and an overwritten write
  is naturally forgotten);
* assumed memory content (§IV-B3) — ``llvm.assume(load(bin) == C)``
  re-establishes a known value after the broadcast barriers where the
  conditional-pointer writes (Fig. 7b) made it unknown;
* invariant value propagation (§IV-B4) — stored values that are launch
  invariants (grid geometry intrinsics, function addresses) or plain
  SSA values are forwarded, not just literal constants;
* the zero-initialized-region deduction — an object whose writes all
  store zero still reads as zero at *unknown* offsets, which is what
  folds the thread-state pointer array lookups.

Each ingredient has a pipeline flag so the ablation study (Fig. 13)
can remove them one at a time; disabling the base field-sensitive
analysis disables everything here, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.memory.addrspace import AddressSpace
from repro.memory.memmodel import scalar_size
from repro.ir.callgraph import CallGraph
from repro.ir.cfg import DominatorTree, predecessors, reverse_post_order
from repro.ir.instructions import (
    AtomicRMW,
    Call,
    Cast,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Select,
    Store,
)
from repro.ir.intrinsics import declare_intrinsic, intrinsic_info
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import FloatType, IntType, PointerType
from repro.ir.values import Argument, Constant, Value
from repro.passes.cleanup import resolve_pointer_base
from repro.passes.exec_context import (
    block_is_thread_divergent,
    compute_block_guards,
)
from repro.passes.memobjects import (
    AccessKind,
    MemoryObject,
    discover_objects,
)
from repro.passes.pass_manager import PassContext

# A lattice value: ("c", scalar) constants, ("inv", intrinsic_name),
# ("fnaddr", function_name), ("ssa", id, Value).  None is bottom.
LatticeValue = Optional[Tuple]

BinKey = Tuple[int, int, int]  # (object id, offset, size)


def _value_key(value: Value, enable_invariant: bool) -> LatticeValue:
    if isinstance(value, Constant):
        return ("c", value.value)
    # Plain SSA store-to-load forwarding ("follows values communicated
    # via memory") is part of the base §IV-B machinery; the *invariant*
    # extension (§IV-B4) additionally recognizes values recomputable
    # from launch-invariant intrinsics and function addresses.
    if isinstance(value, Call):
        callee = value.callee
        if callee is not None and not value.args and enable_invariant:
            info = intrinsic_info(callee.name)
            if info is not None and info.readnone and info.invariance == "grid":
                return ("inv", callee.name)
        return None
    if isinstance(value, Cast) and value.opcode == "ptrtoint" and isinstance(
        value.source, Function
    ):
        return ("fnaddr", value.source.name) if enable_invariant else None
    if isinstance(value, (Argument, Instruction)):
        # Dominance of the forwarded value is validated at rewrite time.
        return ("ssa", id(value), value)
    return None


def _resolve_all_bases(
    ptr: Value, depth: int = 0
) -> Optional[List[Tuple[Value, Optional[int]]]]:
    """All (base, offset) pairs a pointer may refer to, through
    select/phi; None when some leaf is not resolvable."""
    if depth > 12:
        return None
    if isinstance(ptr, Select):
        lhs = _resolve_all_bases(ptr.true_value, depth + 1)
        rhs = _resolve_all_bases(ptr.false_value, depth + 1)
        if lhs is None or rhs is None:
            return None
        return lhs + rhs
    if isinstance(ptr, Phi):
        out: List[Tuple[Value, Optional[int]]] = []
        for op in ptr.operands:
            if op is ptr:
                continue
            sub = _resolve_all_bases(op, depth + 1)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if isinstance(ptr, PtrAdd):
        inner = _resolve_all_bases(ptr.pointer, depth + 1)
        if inner is None:
            return None
        if isinstance(ptr.offset, Constant):
            ty = ptr.offset.type
            assert isinstance(ty, IntType)
            delta = ty.to_signed(int(ptr.offset.value))
            return [(b, o + delta if o is not None else None) for b, o in inner]
        return [(b, None) for b, _ in inner]
    if isinstance(ptr, Cast) and ptr.opcode in ("bitcast", "inttoptr"):
        if ptr.opcode == "inttoptr":
            src = ptr.source
            if isinstance(src, Cast) and src.opcode == "ptrtoint":
                return _resolve_all_bases(src.source, depth + 1)
            return None
        return _resolve_all_bases(ptr.source, depth + 1)
    return [(ptr, 0)]


class _FunctionState:
    """Dataflow driver for one function."""

    def __init__(
        self,
        func: Function,
        tracked: Dict[int, MemoryObject],
        bins: Set[BinKey],
        write_summary: Dict[Function, Set[int]],
        address_taken_writes: Set[int],
        ctx: PassContext,
    ) -> None:
        self.func = func
        self.tracked = tracked
        self.bins = bins
        self.write_summary = write_summary
        self.address_taken_writes = address_taken_writes
        self.config = ctx.config
        self.guards = compute_block_guards(func)
        self.obj_bins: Dict[int, List[BinKey]] = {}
        for key in bins:
            self.obj_bins.setdefault(key[0], []).append(key)

    # -- lattice helpers -------------------------------------------------------

    def entry_state(self) -> Dict[BinKey, LatticeValue]:
        state: Dict[BinKey, LatticeValue] = {k: None for k in self.bins}
        if self.func.is_kernel:
            # Shared memory is freshly zero-initialized per team at
            # kernel entry (zeroinitializer globals).
            for key in self.bins:
                obj = self.tracked[key[0]]
                if (
                    obj.zero_initialized
                    and obj.addrspace is AddressSpace.SHARED
                ):
                    state[key] = ("c", 0)
        return state

    @staticmethod
    def meet(a: Dict[BinKey, LatticeValue], b: Dict[BinKey, LatticeValue]) -> Dict[BinKey, LatticeValue]:
        return {k: (a[k] if a[k] == b[k] else None) for k in a}

    # -- conditionality -----------------------------------------------------------

    def _store_is_conditional(self, inst: Instruction, obj: MemoryObject, multi_target: bool) -> bool:
        if multi_target:
            return True
        if obj.addrspace is AddressSpace.LOCAL or isinstance(obj.base, Instruction):
            # Thread-private storage: divergence is irrelevant.
            return False
        if not self.config.enable_aligned_exec:
            return True  # cannot reason about who executes the store
        assert inst.parent is not None
        return block_is_thread_divergent(inst.parent, self.guards)

    # -- transfer -----------------------------------------------------------------

    def transfer(
        self,
        inst: Instruction,
        state: Dict[BinKey, LatticeValue],
        folds: Optional[List[Tuple[Load, LatticeValue]]] = None,
    ) -> None:
        kind = type(inst)
        if kind is Load:
            if folds is None or inst.is_volatile:
                return
            key = self._bin_of(inst.pointer, inst)
            if key is not None and state.get(key) is not None:
                folds.append((inst, state[key]))
            return

        if kind is Store:
            self._transfer_write(inst, inst.pointer, inst.value, state)
            return

        if kind is AtomicRMW:
            self._kill_pointer(inst.pointer, state)
            return

        if kind is Call:
            callee = inst.callee
            name = callee.name if callee is not None else None
            if name == "llvm.assume":
                self._apply_assume(inst, state)
                return
            info = intrinsic_info(name) if name else None
            if info is not None:
                if info.is_barrier and not self.config.enable_aligned_exec:
                    self._kill_shared(state)
                if name == "llvm.memset" or name == "llvm.memcpy":
                    self._kill_pointer(inst.args[0], state)
                return
            if callee is not None and not callee.is_declaration:
                for obj_id in self.write_summary.get(callee, set()):
                    for key in self.obj_bins.get(obj_id, ()):
                        state[key] = None
                return
            if callee is None:
                # Indirect call: anything address-taken may run.
                for obj_id in self.address_taken_writes:
                    for key in self.obj_bins.get(obj_id, ()):
                        state[key] = None
            return

    def _bin_of(self, ptr: Value, access_inst: Instruction) -> Optional[BinKey]:
        base, offset = resolve_pointer_base(ptr)
        if base is None or offset is None or id(base) not in self.tracked:
            return None
        size = _access_size(access_inst)
        if size is None:
            return None
        key = (id(base), offset, size)
        return key if key in self.bins else None

    def _transfer_write(
        self,
        inst: Instruction,
        ptr: Value,
        value: Value,
        state: Dict[BinKey, LatticeValue],
    ) -> None:
        bases = _resolve_all_bases(ptr)
        if bases is None:
            # A store through an unresolvable pointer may hit anything.
            for key in state:
                state[key] = None
            return
        tracked_targets = [
            (b, off) for b, off in bases if id(b) in self.tracked
        ]
        if not tracked_targets:
            return
        multi = len(bases) > 1
        vkey = _value_key(value, self.config.enable_invariant_prop)
        size = _store_size(inst)
        for base, offset in tracked_targets:
            obj = self.tracked[id(base)]
            conditional = self._store_is_conditional(inst, obj, multi)
            for key in self.obj_bins.get(id(base), ()):
                _, bin_off, bin_size = key
                if offset is None:
                    overlap = True
                    exact = False
                else:
                    if size is None:
                        overlap = True
                        exact = False
                    else:
                        overlap = not (
                            offset + size <= bin_off or bin_off + bin_size <= offset
                        )
                        exact = offset == bin_off and size == bin_size
                if not overlap:
                    continue
                if exact and not conditional:
                    state[key] = vkey
                elif state[key] is not None and state[key] == vkey and (exact or offset is None):
                    pass  # re-storing the known value changes nothing
                else:
                    state[key] = None

    def _kill_pointer(self, ptr: Value, state: Dict[BinKey, LatticeValue]) -> None:
        bases = _resolve_all_bases(ptr)
        if bases is None:
            for key in state:
                state[key] = None
            return
        for base, _ in bases:
            for key in self.obj_bins.get(id(base), ()):
                state[key] = None

    def _kill_shared(self, state: Dict[BinKey, LatticeValue]) -> None:
        for key in list(state):
            obj = self.tracked[key[0]]
            if obj.addrspace is AddressSpace.SHARED:
                state[key] = None

    def _apply_assume(self, inst: Call, state: Dict[BinKey, LatticeValue]) -> None:
        if not self.config.enable_assumed_content:
            return
        cond = inst.args[0]
        if not isinstance(cond, ICmp) or cond.predicate != "eq":
            return
        for load_side, other in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            if not isinstance(load_side, Load):
                continue
            key = self._bin_of(load_side.pointer, load_side)
            if key is None:
                continue
            fact = _value_key(other, self.config.enable_invariant_prop)
            if fact is not None and fact[0] == "ssa":
                # Pin dynamic equalities only for invariant expressions.
                fact = None
            if fact is not None:
                state[key] = fact
            return

    # -- fixpoint -------------------------------------------------------------------

    def run(self) -> List[Tuple[Load, LatticeValue]]:
        func = self.func
        rpo = reverse_post_order(func)
        preds = predecessors(func)
        entry = self.entry_state()
        block_in: Dict[BasicBlock, Optional[Dict[BinKey, LatticeValue]]] = {
            b: None for b in rpo
        }
        block_in[func.entry] = entry

        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            if guard > 100:  # pragma: no cover - fixpoint safety valve
                break
            for block in rpo:
                if block is func.entry:
                    in_state = dict(entry)
                else:
                    acc: Optional[Dict[BinKey, LatticeValue]] = None
                    for pred in preds[block]:
                        pred_in = block_in.get(pred)
                        if pred_in is None:
                            continue
                        out = dict(pred_in)
                        for inst in pred.instructions:
                            self.transfer(inst, out)
                        acc = out if acc is None else self.meet(acc, out)
                    if acc is None:
                        continue
                    in_state = acc
                if block_in[block] != in_state:
                    block_in[block] = in_state
                    changed = True

        folds: List[Tuple[Load, LatticeValue]] = []
        for block in rpo:
            in_state = block_in.get(block)
            if in_state is None:
                continue
            state = dict(in_state)
            for inst in block.instructions:
                self.transfer(inst, state, folds)
        return folds


def _access_size(inst: Instruction) -> Optional[int]:
    if isinstance(inst, Load):
        try:
            return scalar_size(inst.type)
        except TypeError:
            return None
    return None


def _store_size(inst: Instruction) -> Optional[int]:
    if isinstance(inst, Store):
        try:
            return scalar_size(inst.value.type)
        except TypeError:
            return None
    return None


def _collect_bins(objects: List[MemoryObject]) -> Set[BinKey]:
    bins: Set[BinKey] = set()
    for obj in objects:
        if not obj.analyzable:
            continue
        for access in obj.accesses:
            if access.offset is not None and access.size is not None:
                bins.add((id(obj.base), access.offset, access.size))
    return bins


def _build_write_summaries(
    module: Module, objects: List[MemoryObject]
) -> Tuple[Dict[Function, Set[int]], Set[int]]:
    direct: Dict[Function, Set[int]] = {}
    for obj in objects:
        for access in obj.accesses:
            if not access.is_write:
                continue
            func = access.inst.function
            if func is not None:
                direct.setdefault(func, set()).add(id(obj.base))
    cg = CallGraph(module)
    summary: Dict[Function, Set[int]] = {}
    for func in module.functions.values():
        writes = set(direct.get(func, set()))
        for callee in cg.transitive_callees(func):
            writes |= direct.get(callee, set())
        summary[func] = writes
    address_taken_writes: Set[int] = set()
    for func in cg.address_taken:
        address_taken_writes |= summary.get(func, set())
    return summary, address_taken_writes


def _zero_page_folds(objects: List[MemoryObject]) -> List[Tuple[Load, Constant]]:
    """The all-zero-region deduction of §IV-B1."""
    folds: List[Tuple[Load, Constant]] = []
    for obj in objects:
        if not obj.analyzable or not obj.zero_initialized:
            continue
        if any(a.kind is AccessKind.ATOMIC for a in obj.accesses):
            continue
        ok = True
        for access in obj.writes():
            if access.kind is AccessKind.MEM_INTRINSIC:
                inst = access.inst
                if (
                    isinstance(inst, Call)
                    and inst.callee is not None
                    and inst.callee.name == "llvm.memset"
                    and isinstance(inst.args[1], Constant)
                    and inst.args[1].value == 0
                ):
                    continue
                ok = False
                break
            sv = access.stored_value
            if not (isinstance(sv, Constant) and sv.value == 0):
                ok = False
                break
        if not ok:
            continue
        for access in obj.loads():
            if access.conditional or not isinstance(access.inst, Load):
                continue
            load = access.inst
            if isinstance(load.type, (IntType, PointerType)):
                folds.append((load, Constant(load.type, 0)))
            elif isinstance(load.type, FloatType):
                folds.append((load, Constant(load.type, 0.0)))
    return folds


def _materialize(
    lattice: LatticeValue, load: Load, module: Module
) -> Optional[Value]:
    assert lattice is not None
    kind = lattice[0]
    if kind == "c":
        try:
            return Constant(load.type, lattice[1])
        except (TypeError, ValueError):
            return None
    if kind == "inv":
        func = declare_intrinsic(module, lattice[1])
        call = Call(func, [], func.return_type, "inv")
        assert load.parent is not None
        load.parent.insert_before(load, call)
        if call.type != load.type:
            cast = Cast("zext" if _bits(call.type) < _bits(load.type) else "trunc", call, load.type)
            load.parent.insert_before(load, cast)
            return cast
        return call
    if kind == "fnaddr":
        target = module.functions.get(lattice[1])
        if target is None:
            return None
        cast = Cast("ptrtoint", target, load.type)
        assert load.parent is not None
        load.parent.insert_before(load, cast)
        return cast
    if kind == "ssa":
        value = lattice[2]
        if value.type != load.type:
            return None
        if isinstance(value, Argument):
            return value if value.parent is load.function else None
        assert isinstance(value, Instruction)
        if value.function is not load.function or value.parent is None:
            return None
        dom = DominatorTree(load.function)
        return value if dom.dominates(value, load) else None
    return None  # pragma: no cover


def _bits(ty) -> int:
    return getattr(ty, "bits", 64)


class ValuePropagationPass:
    """§IV-B: fold runtime-state loads to constants/invariants."""

    name = "openmp-opt-value-prop"

    def run(self, module: Module, ctx: PassContext) -> bool:
        if not ctx.config.enable_value_prop:
            return False
        objects = [o for o in discover_objects(module) if o.analyzable]
        changed = False

        # Zero-page folding works module-wide, no flow needed.
        for load, const in _zero_page_folds(objects):
            if load.parent is None:
                continue
            load.replace_all_uses_with(const)
            load.erase_from_parent()
            changed = True
        if changed:
            objects = [o for o in discover_objects(module) if o.analyzable]

        tracked = {id(o.base): o for o in objects}
        bins = _collect_bins(objects)
        if not bins:
            return changed
        summaries, at_writes = _build_write_summaries(module, objects)

        if not ctx.config.enable_reach_dom:
            changed |= self._flow_insensitive(module, objects, ctx)
            return changed

        for func in list(module.defined_functions()):
            state = _FunctionState(func, tracked, bins, summaries, at_writes, ctx)
            folds = state.run()
            for load, lattice in folds:
                if load.parent is None or lattice is None:
                    continue
                replacement = _materialize(lattice, load, module)
                if replacement is None:
                    continue
                load.replace_all_uses_with(replacement)
                load.erase_from_parent()
                ctx.remarks.passed(
                    self.name, func.name, f"folded state load to {lattice[0]}"
                )
                changed = True
        return changed

    def _flow_insensitive(
        self, module: Module, objects: List[MemoryObject], ctx: PassContext
    ) -> bool:
        """Degraded mode without §IV-B2: a fact holds only for bins that
        are never written at all."""
        if not ctx.config.enable_assumed_content:
            return False
        changed = False
        for obj in objects:
            if obj.writes():
                ctx.remarks.missed(
                    self.name,
                    "<module>",
                    f"{obj.name}: interfering writes without reach/dom filtering",
                )
                continue
            # Read-only object: propagate assume facts globally.
            facts: Dict[Tuple[int, int], Constant] = {}
            for access in obj.loads():
                inst = access.inst
                if not isinstance(inst, Load) or access.offset is None:
                    continue
                for use in inst.uses:
                    user = use.user
                    if (
                        isinstance(user, ICmp)
                        and user.predicate == "eq"
                        and user.uses
                        and all(
                            isinstance(u.user, Call)
                            and u.user.callee is not None
                            and u.user.callee.name == "llvm.assume"
                            for u in user.uses
                        )
                    ):
                        other = user.rhs if user.lhs is inst else user.lhs
                        if isinstance(other, Constant):
                            facts[(access.offset, access.size or 0)] = other
            for access in obj.loads():
                inst = access.inst
                if not isinstance(inst, Load) or inst.parent is None:
                    continue
                fact = facts.get((access.offset or -1, access.size or 0))
                if fact is not None and fact.type == inst.type and inst.uses:
                    non_assume_uses = [
                        u for u in inst.uses
                        if not _feeds_assume(u.user)
                    ]
                    if non_assume_uses:
                        inst.replace_all_uses_with(fact)
                        changed = True
        return changed


def _feeds_assume(user: Instruction) -> bool:
    if isinstance(user, Call):
        callee = user.callee
        return callee is not None and callee.name == "llvm.assume"
    if isinstance(user, ICmp):
        return all(_feeds_assume(u.user) for u in user.uses)
    return False


class DeadStateStoreElimination:
    """Remove stores to analyzable objects nobody reads, then let
    cleanup drop the objects themselves (the SMem → 0 step)."""

    name = "openmp-opt-dse"

    def run(self, module: Module, ctx: PassContext) -> bool:
        if not ctx.config.enable_value_prop:
            return False
        changed = False
        rounds = 0
        while rounds < 8:
            rounds += 1
            objects = [o for o in discover_objects(module) if o.analyzable]
            readable: Set[int] = set()
            known: Set[int] = set()
            for obj in objects:
                known.add(id(obj.base))
                if any(
                    a.kind in (AccessKind.LOAD, AccessKind.ATOMIC)
                    for a in obj.accesses
                ):
                    readable.add(id(obj.base))

            def store_removable(ptr: Value) -> bool:
                bases = _resolve_all_bases(ptr)
                if bases is None:
                    return False
                for base, _ in bases:
                    if id(base) not in known or id(base) in readable:
                        return False
                return True

            local_change = False
            for obj in objects:
                if id(obj.base) in readable:
                    continue
                for access in list(obj.writes()):
                    inst = access.inst
                    if inst.parent is None:
                        continue
                    if isinstance(inst, Store) and store_removable(inst.pointer):
                        inst.erase_from_parent()
                        local_change = True
                    elif (
                        isinstance(inst, Call)
                        and inst.callee is not None
                        and inst.callee.name in ("llvm.memset", "llvm.memcpy")
                        and not inst.uses
                        and store_removable(inst.args[0])
                    ):
                        inst.erase_from_parent()
                        local_change = True
            changed |= local_change
            if not local_change:
                break
        return changed
