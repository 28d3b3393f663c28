"""Content addressing for the compile cache.

A compilation is fully determined by ``(Program AST, CompileOptions)``
— the pipeline is deterministic and takes no other input — so the pair
can be fingerprinted and the result memoized (cf. Bercea et al.,
"Implementing implicit OpenMP data sharing on GPUs").

The canonical serialization is structural, never ``id()``- or
insertion-order-dependent:

* DSL programs and options are walked field-by-field as dataclasses
  (types render through their stable ``str()``, enums by name);
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
from typing import Any, Dict, Iterator, Tuple

from repro.frontend import ast as A
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.types import Type

#: Bump when the serialization (or anything compiled results embed)
#: changes shape, so stale on-disk cache entries can never be returned.
CACHE_FORMAT_VERSION = 1


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


#: Dataclass -> its field names, in declaration order.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _canonical(obj: Any) -> Any:
    """Reduce *obj* to a hashable, deterministic structure."""
    if isinstance(obj, Type):
        return ("Type", str(obj))
    if isinstance(obj, enum.Enum):
        return ("Enum", type(obj).__name__, obj.name)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(
                f.name for f in dataclasses.fields(cls))
        return (
            cls.__name__,
            tuple((name, _canonical(getattr(obj, name))) for name in names),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((str(k), _canonical(v)) for k, v in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(str(_canonical(x)) for x in obj))
    if isinstance(obj, (str, bytes, int, float, bool)) or obj is None:
        return (type(obj).__name__, obj)
    # DSL Expr/Stmt base classes without dataclass decoration would end
    # up here; repr is the best stable rendering we have.
    return (type(obj).__name__, repr(obj))


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    h.update(f"repro-cache-v{CACHE_FORMAT_VERSION}".encode())
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


def fingerprint_program(program: A.Program) -> str:
    """Stable fingerprint of a DSL program's structure."""
    with deep_recursion():
        return _digest("program", repr(_canonical(program)))


def fingerprint_options(options: Any) -> str:
    """Stable fingerprint of a :class:`CompileOptions` (dataclass walk
    over target, pipeline, runtime_config and verify)."""
    return _digest("options", repr(_canonical(options)))


def compile_fingerprint(program: A.Program, options: Any) -> str:
    """The compile-cache key for ``compile_program(program, options)``."""
    with deep_recursion():
        return _digest(
            "compile", repr(_canonical(program)), repr(_canonical(options))
        )


def module_fingerprint(module: Module) -> str:
    """Fingerprint of a lowered module via the canonical printer.

    Two modules with identical structure produce identical fingerprints
    regardless of how their SSA values were named — used by the tests
    to assert that cache- and pool-restored results match fresh ones.
    """
    with deep_recursion():
        return _digest("module", print_module(module, canonical=True))
