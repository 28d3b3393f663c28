"""No module of ``src/`` imports a name it never reads.

No linter ships with the toolchain, so this AST scan stands in for one:
every name a module-level import binds in a non-package module must be
read somewhere in that module.  Package ``__init__`` modules re-export
their names and are skipped.  Names read only by source a module
compiles with ``exec`` at import time are listed in
:data:`GENERATED_CODE_NAMES`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Module-level imports that only the module's exec'd handler source reads.
GENERATED_CODE_NAMES = {
    "repro/vgpu/warp.py": {"_INF", "_NINF", "_NAN", "_fmod"},
    "repro/vgpu/decode.py": {"division_by_zero_error"},
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def _imported(tree):
    """``(bound name, line)`` for every module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_unused_module_level_imports():
    unused = []
    for rel, tree in _modules():
        read = _read_names(tree) | GENERATED_CODE_NAMES.get(rel, set())
        unused += [f"{rel}:{line}: {name}" for name, line in _imported(tree)
                   if name not in read]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_generated_code_names_are_imported_and_read_only_by_strings():
    """Each allowlisted name is still imported, read by no code of its
    module, and named in some handler template (a string constant; the
    warp engine compiles templates from the decoder's table)."""
    modules = dict(_modules())
    strings = " ".join(node.value for tree in modules.values() for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str))
    for rel, names in GENERATED_CODE_NAMES.items():
        tree = modules[rel]
        imported = {name for name, _ in _imported(tree)}
        for name in names:
            assert name in imported, f"{rel}: {name} is no longer imported"
            assert name not in _read_names(tree), f"{rel}: {name} is read directly"
            assert name in strings, f"no handler template reads {name}"
