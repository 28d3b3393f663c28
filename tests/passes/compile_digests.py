"""The compile cells whose pipeline output ``compile_digests.json`` pins.

Every cell compiles one app's default-size program with
``compile_program_uncached``: the 24 build-matrix cells
(``repro.bench.builds.build_options``) and, per app, the six §IV
ablation builds (``ablation_configs`` minus ``full``, on the New RT
target).  Its digest is the sha256 of the printed post-pipeline module
followed by the remark lines, so any change to what the pipeline emits
or reports shows up as a differing cell.

Rewrite the JSON with ``PYTHONPATH=src python tests/regen_compile_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

DIGESTS_PATH = Path(__file__).with_name("compile_digests.json")


def cells() -> List[Tuple[str, str, object]]:
    """``(cell name, app, CompileOptions)`` for every pinned compile."""
    from repro.bench.builds import BUILD_ORDER, CUDA, ablation_configs, build_options
    from repro.bench.harness import APPS, SKIP_CUDA
    from repro.frontend.driver import CompileOptions, Target

    matrix = build_options()
    ablations = {label: cfg for label, cfg in ablation_configs().items() if label != "full"}
    out: List[Tuple[str, str, object]] = []
    for app in sorted(APPS):
        for build in BUILD_ORDER:
            if not (app in SKIP_CUDA and build == CUDA):
                out.append((f"{app} / {build}", app, matrix[build]))
        for label, cfg in ablations.items():
            out.append((f"{app} / {label}", app, CompileOptions(Target.OPENMP_NEW, pipeline=cfg)))
    return out


def digest(compiled) -> str:
    """sha256 of the printed module plus the joined remark lines."""
    from repro.ir.printer import print_module

    text = print_module(compiled.module) + "\n".join(str(r) for r in compiled.remarks.remarks)
    return hashlib.sha256(text.encode()).hexdigest()


def compile_cells() -> Dict[str, Tuple[str, object]]:
    """``{cell name: (app, CompiledProgram)}``, every cell compiled
    uncached.  Tier-1 builds this once per session (the
    ``pinned_compiles`` fixture) for the compile and the run digests."""
    from repro.bench.harness import APPS
    from repro.frontend.driver import compile_program_uncached

    programs: Dict[str, object] = {}
    out: Dict[str, Tuple[str, object]] = {}
    for name, app, options in cells():
        if app not in programs:
            programs[app] = APPS[app].build_program(APPS[app].default_size())
        out[name] = (app, compile_program_uncached(programs[app], options))
    return out


def compute(compiled: Dict[str, Tuple[str, object]]) -> Iterator[Tuple[str, str]]:
    """``(cell name, digest)`` for every cell of :func:`compile_cells`."""
    for name, (_, program) in compiled.items():
        yield name, digest(program)


def load() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def write(digests: Dict[str, str]) -> None:
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
