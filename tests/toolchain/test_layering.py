"""Layering guard: the toolchain compiles and caches; it never runs apps.

``repro.toolchain`` sits below ``repro.apps`` (which runs one cell),
``repro.bench`` (which fans cells out) and ``repro.serve`` (which serves
launches).  An import of any of them from a toolchain module, at module
level or deferred inside a function, turns that order upside down.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.toolchain

FORBIDDEN = ("repro.bench", "repro.apps", "repro.serve")
TOOLCHAIN_DIR = Path(repro.toolchain.__file__).parent
SRC_DIR = TOOLCHAIN_DIR.parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def _is_forbidden(name: str) -> bool:
    return any(name == f or name.startswith(f + ".") for f in FORBIDDEN)


def test_toolchain_imports_no_layer_above_it():
    sources = sorted(TOOLCHAIN_DIR.rglob("*.py"))
    assert sources, TOOLCHAIN_DIR
    offenders = [
        f"{path.relative_to(TOOLCHAIN_DIR)}:{lineno} imports {name}"
        for path in sources
        for lineno, name in _imported_modules(ast.parse(path.read_text()))
        if _is_forbidden(name)
    ]
    assert offenders == []


def test_one_src_site_prepares_app_inputs():
    """``repro.apps.common.prepare_launch`` is the only caller of an app
    module's ``prepare``: ``run_app``, ``submit_app`` and the trace CLI
    all reach the app's inputs through it."""
    sites = [
        f"{path.relative_to(SRC_DIR)}:{node.lineno}"
        for path in sorted(SRC_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "prepare"
    ]
    assert len(sites) == 1, sites
    assert sites[0].startswith("apps/common.py:"), sites
