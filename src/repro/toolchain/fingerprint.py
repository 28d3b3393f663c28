"""Content addressing for the compile cache.

A compilation is fully determined by ``(Program AST, CompileOptions)``
— the pipeline is deterministic and takes no other input — so the pair
can be fingerprinted and the result memoized (cf. Bercea et al.,
"Implementing implicit OpenMP data sharing on GPUs").

The canonical serialization is structural, never ``id()``- or
insertion-order-dependent:

* DSL programs and options are walked field-by-field as dataclasses
  (types render through their stable ``str()``, enums by name).  One
  pass writes the canonical text directly, through an emitter per
  class that is built on the class's first sighting (its field names
  and literal text precomputed); the text is the ``repr`` of the
  nested-tuple form the emitters document, so digests — and with them
  every on-disk cache key — do not depend on how it is built;
* lowered modules go through the canonical mode of
  :func:`repro.ir.printer.print_module`, which numbers SSA values in
  first-use order and ignores name hints.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

from repro.frontend import ast as A
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.types import Type

#: Bump when anything compiled results embed changes shape (the IR
#: classes' ``__slots__`` are pinned against it by the tests), so a
#: stale on-disk cache entry can never be returned: it is part of each
#: entry's file name.  Digests do not include it, so cache keys stay
#: stable across layout changes.
CACHE_FORMAT_VERSION = 2

#: Prefix of every digest; fixed, because digests are persistent.
_DIGEST_TAG = b"repro-cache-v1"


@contextmanager
def deep_recursion(limit: int = 100_000) -> Iterator[None]:
    """Temporarily raise the recursion limit.

    Lowered modules are dense object graphs (instructions referencing
    values referencing instructions); walking, pickling or deep-copying
    them overflows the default limit for the larger proxy apps.
    """
    old = sys.getrecursionlimit()
    if old < limit:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


#: Class -> the emitter that appends an instance's canonical text to a
#: list of parts (see :func:`_canonical_text`).
_EMITTERS: Dict[type, Callable[[Any, List[str]], None]] = {}


def _emitter(cls: type) -> Callable[[Any, List[str]], None]:
    emit = _EMITTERS.get(cls)
    if emit is None:
        emit = _EMITTERS[cls] = _make_emitter(cls)
    return emit


def _emit_type(obj: Type, out: List[str]) -> None:
    out.append(f"('Type', {str(obj)!r})")


def _emit_sequence(obj, out: List[str]) -> None:
    if not obj:
        out.append("()")
        return
    sep = "("
    for x in obj:
        out.append(sep)
        sep = ", "
        _emitter(type(x))(x, out)
    out.append(",)" if len(obj) == 1 else ")")


def _emit_dict(obj: dict, out: List[str]) -> None:
    # Keys whose str() collide are ordered by their values' text.
    items = sorted((str(k), _canonical_text(v)) for k, v in obj.items())
    out.append(_tuple_text([f"({k!r}, {v})" for k, v in items]))


def _emit_set(obj, out: List[str]) -> None:
    out.append(_tuple_text([repr(t) for t in sorted(map(_canonical_text, obj))]))


def _tuple_text(items: List[str]) -> str:
    """The text of a tuple whose elements have the texts *items*."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _emit_primitive(obj, out: List[str]) -> None:
    out.append(f"({type(obj).__name__!r}, {obj!r})")


def _emit_other(obj, out: List[str]) -> None:
    # DSL Expr/Stmt base classes without dataclass decoration would end
    # up here; repr is the best stable rendering we have.
    out.append(f"({type(obj).__name__!r}, {repr(obj)!r})")


def _make_emitter(cls: type) -> Callable[[Any, List[str]], None]:
    """The emitter of *cls*'s instances: their canonical form is
    ``("Type", str)`` for IR types, ``("Enum", class, member)``,
    ``(class, ((field, value), ...))`` for dataclasses, a tuple for
    lists and tuples, sorted ``(str(key), value)`` pairs for dicts,
    the sorted text of each member for sets, ``(type, value)`` for
    scalars and ``(type, repr)`` for anything else."""
    if issubclass(cls, Type):
        return _emit_type
    if issubclass(cls, enum.Enum):
        prefix = f"('Enum', {cls.__name__!r}, "
        return lambda obj, out: out.append(f"{prefix}{obj.name!r})")
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_emitter(cls)
    if issubclass(cls, (list, tuple)):
        return _emit_sequence
    if issubclass(cls, dict):
        return _emit_dict
    if issubclass(cls, (set, frozenset)):
        return _emit_set
    if issubclass(cls, (str, bytes, int, float, bool, type(None))):
        return _emit_primitive
    return _emit_other


def _dataclass_emitter(cls: type) -> Callable[[Any, List[str]], None]:
    names = tuple(f.name for f in dataclasses.fields(cls))
    head = f"({cls.__name__!r}, ("
    if not names:
        return lambda obj, out: out.append(head + "))")
    # One label before each field value, then the closing text.
    labels = [f"({name!r}, " for name in names]
    labels = [head + labels[0]] + ["), " + label for label in labels[1:]]
    fields = tuple(zip(labels, names))
    tail = "),))" if len(names) == 1 else ")))"

    def emit(obj, out: List[str]) -> None:
        for label, name in fields:
            out.append(label)
            value = getattr(obj, name)
            _emitter(type(value))(value, out)
        out.append(tail)

    return emit


def _canonical_text(obj: Any) -> str:
    """Deterministic structural text of *obj*: the ``repr`` of its
    canonical form (see :func:`_make_emitter`), built in one pass."""
    out: List[str] = []
    _emitter(type(obj))(obj, out)
    return "".join(out)


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    h.update(_DIGEST_TAG)
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


def fingerprint_program(program: A.Program) -> str:
    """Stable fingerprint of a DSL program's structure."""
    with deep_recursion():
        return _digest("program", _canonical_text(program))


def fingerprint_options(options: Any) -> str:
    """Stable fingerprint of a :class:`CompileOptions` (dataclass walk
    over target, pipeline, runtime_config and verify)."""
    return _digest("options", _canonical_text(options))


def compile_fingerprint(program: A.Program, options: Any) -> str:
    """The compile-cache key for ``compile_program(program, options)``."""
    with deep_recursion():
        return _digest(
            "compile", _canonical_text(program), _canonical_text(options)
        )


def module_fingerprint(module: Module) -> str:
    """Fingerprint of a lowered module via the canonical printer.

    Two modules with identical structure produce identical fingerprints
    regardless of how their SSA values were named — used by the tests
    to assert that cache- and pool-restored results match fresh ones.
    """
    with deep_recursion():
        return _digest("module", print_module(module, canonical=True))
