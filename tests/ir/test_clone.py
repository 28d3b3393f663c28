"""``clone_instruction`` per instruction kind, against constructor-built
twins, and ``is_terminator`` per class.

The clone is built field by field, not through the constructor, so
each of the 16 kinds is checked for the same type, opcode, operands,
use entries and extra slots as the constructor gives over the
mapped operands, and for the same ``TypeError``/``ValueError``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.ir import (
    Alloca,
    AtomicRMW,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    F32,
    F64,
    FCmp,
    Function,
    FunctionType,
    I1,
    I32,
    I64,
    ICmp,
    Instruction,
    Load,
    Phi,
    PTR,
    PTR_LOCAL,
    PtrAdd,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir import instructions
from repro.ir.instructions import clone_instruction
from repro.ir.module import BasicBlock
from repro.ir.values import Argument

B1, B2 = BasicBlock("b1"), BasicBlock("b2")
CALLEE = Function("callee", FunctionType(I32, (PTR,)))


def _values(int_ty, float_ty, ptr_ty, tag):
    """Stand-in operands (arguments) of the given types."""
    types = {"x": int_ty, "y": int_ty, "f": float_ty, "g": float_ty,
             "p": ptr_ty, "c": I1, "bad_int": I64 if int_ty == I32 else I32}
    return SimpleNamespace(**{n: Argument(t, i, f"{tag}{n}") for i, (n, t) in enumerate(types.items())})


#: Kind -> builder over a namespace of operands.  Cloning the first
#: namespace's instruction through a map onto the second must equal the
#: second's instruction: ints widen to i64, floats to f32 and the generic
#: pointer becomes a private ``ptr addrspace(5)`` (legal where a generic
#: ``ptr`` is expected, as when an alloca is passed to a callee).
KINDS = {
    "binop": lambda v: BinOp("add", v.x, v.y, "s"),
    "icmp": lambda v: ICmp("slt", v.x, v.y, "lt"),
    "fcmp": lambda v: FCmp("olt", v.f, v.g, "flt"),
    "select": lambda v: Select(v.c, v.x, v.y, "sel"),
    "cast": lambda v: Cast("sext", v.x, I64, "wide"),
    "alloca": lambda v: Alloca(I32, "slot"),
    "load": lambda v: Load(I32, v.p, "ld", volatile=True),
    "store": lambda v: Store(v.x, v.p, volatile=True),
    "ptradd": lambda v: PtrAdd(v.p, v.y, "addr"),
    "phi": lambda v: Phi(I32, "merge"),
    "br": lambda v: Br(B1),
    "condbr": lambda v: CondBr(v.c, B1, B2),
    "ret": lambda v: Ret(v.x),
    "unreachable": lambda v: Unreachable(),
    "call": lambda v: Call(CALLEE, [v.p], I32, "r"),
    "atomicrmw": lambda v: AtomicRMW("max", v.p, v.x, "old"),
}


def _pair():
    old = _values(I32, F64, PTR, "a.")
    new = _values(I64, F32, PTR_LOCAL, "b.")
    mapping = {getattr(old, n): getattr(new, n) for n in vars(old)}
    return old, new, mapping


def _uses_of(inst):
    return [(op, [u.index for u in op.uses if u.user is inst]) for op in inst.operands]


def _slots(inst):
    return {s: getattr(inst, s) for s in type(inst).__slots__}


def test_every_instruction_class_has_a_kind():
    classes = {type(build(_values(I32, F64, PTR, ""))) for build in KINDS.values()}
    assert len(KINDS) == 16
    defined = {c for c in vars(instructions).values()
               if isinstance(c, type) and issubclass(c, Instruction) and c is not Instruction}
    assert classes == defined


@pytest.mark.parametrize("kind", KINDS)
def test_clone_equals_constructor_twin(kind):
    old, new, mapping = _pair()
    original = KINDS[kind](old)
    twin = KINDS[kind](new)
    clone = clone_instruction(original, mapping)
    assert type(clone) is type(twin)
    assert clone.type == twin.type and clone.opcode == twin.opcode and clone.name == twin.name
    assert all(a is b for a, b in zip(clone.operands, twin.operands))
    assert len(clone.operands) == len(twin.operands)
    assert [i for _, i in _uses_of(clone)] == [i for _, i in _uses_of(twin)]
    assert not [u for op in original.operands if op in mapping for u in op.uses if u.user is clone]
    assert _slots(clone) == _slots(twin)
    assert clone.parent is None and clone.uses == []


def test_phi_clone_starts_without_incomings():
    phi = Phi(I32, "m")
    phi.add_incoming(_values(I32, F64, PTR, "").x, B1)
    clone = clone_instruction(phi, {})
    assert clone.operands == [] and clone.incoming_blocks == []
    assert clone.incoming_blocks is not phi.incoming_blocks


def _mutate(attr, value):
    def apply(inst):
        setattr(inst, attr, value)
    return apply


#: (kind, name) -> (builder of a valid instruction, its field mutation or
#: None, operand renames, constructor call that must raise the same).
INVALID = {
    "binop-unknown-op": ("binop", _mutate("opcode", "frobnicate"), {},
                         lambda v: BinOp("frobnicate", v.x, v.y, "s")),
    "binop-type-mismatch": ("binop", None, {"y": "bad_int"},
                            lambda v: BinOp("add", v.x, v.bad_int, "s")),
    "icmp-unknown-predicate": ("icmp", _mutate("predicate", "wat"), {},
                               lambda v: ICmp("wat", v.x, v.y)),
    "icmp-type-mismatch": ("icmp", None, {"y": "bad_int"}, lambda v: ICmp("slt", v.x, v.bad_int)),
    "fcmp-unknown-predicate": ("fcmp", _mutate("predicate", "ult"), {},
                               lambda v: FCmp("ult", v.f, v.g)),
    "fcmp-type-mismatch": ("fcmp", None, {"g": "x"}, lambda v: FCmp("olt", v.f, v.x)),
    "select-condition-not-i1": ("select", None, {"c": "x"}, lambda v: Select(v.x, v.x, v.y)),
    "select-arm-mismatch": ("select", None, {"y": "bad_int"},
                            lambda v: Select(v.c, v.x, v.bad_int)),
    "cast-unknown-op": ("cast", _mutate("opcode", "reinterpret"), {},
                        lambda v: Cast("reinterpret", v.x, I64)),
    "load-not-pointer": ("load", None, {"p": "x"}, lambda v: Load(I32, v.x)),
    "store-not-pointer": ("store", None, {"p": "y"}, lambda v: Store(v.x, v.y)),
    "ptradd-base-not-pointer": ("ptradd", None, {"p": "x"}, lambda v: PtrAdd(v.x, v.y)),
    "ptradd-offset-not-int": ("ptradd", None, {"y": "f"}, lambda v: PtrAdd(v.p, v.f)),
    "condbr-condition-not-i1": ("condbr", None, {"c": "x"}, lambda v: CondBr(v.x, B1, B2)),
    "atomicrmw-unknown-op": ("atomicrmw", _mutate("operation", "nand"), {},
                             lambda v: AtomicRMW("nand", v.p, v.x)),
    "atomicrmw-not-pointer": ("atomicrmw", None, {"p": "y"},
                              lambda v: AtomicRMW("max", v.y, v.x)),
}


@pytest.mark.parametrize("case", INVALID)
def test_constructor_errors_fire_through_the_clone(case):
    kind, mutate, renames, twin = INVALID[case]
    v = _values(I32, F64, PTR, "")
    inst = KINDS[kind](v)
    if mutate is not None:
        mutate(inst)
    mapping = {getattr(v, a): getattr(v, b) for a, b in renames.items()}
    with pytest.raises((TypeError, ValueError)) as expected:
        twin(v)
    uses_before = {n: list(op.uses) for n, op in vars(v).items()}
    with pytest.raises(expected.type) as got:
        clone_instruction(inst, mapping)
    assert str(got.value) == str(expected.value)
    # A rejected clone registers no use of any operand.
    assert {n: list(op.uses) for n, op in vars(v).items()} == uses_before


@pytest.mark.parametrize("kind", KINDS)
def test_is_terminator_matches_the_class(kind):
    inst = KINDS[kind](_values(I32, F64, PTR, ""))
    assert inst.is_terminator == isinstance(inst, (Br, CondBr, Ret, Unreachable))
    assert type(inst).is_terminator == inst.is_terminator
    assert Instruction.is_terminator is False
