"""The lowered modules that ``lowered_digests.json`` pins.

Every cell lowers one program without running the pipeline: each app's
default-size program on each of the three targets plus its ``with_debug()``
New RT build, and the microbenchmark program on the three targets.  Its
digest is the sha256 of the printed lowered module followed by the
parameter attributes and the repr of the kernel ABIs, so any change to
what the frontend emits shows up as a differing cell (the compile
digests pin post-pipeline output only).

Rewrite the JSON with ``PYTHONPATH=src python tests/regen_lowered_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

DIGESTS_PATH = Path(__file__).with_name("lowered_digests.json")

TARGET_LABELS = {"OPENMP_NEW": "openmp-new", "OPENMP_OLD": "openmp-old", "CUDA": "cuda"}


def cells() -> List[Tuple[str, object, object]]:
    """``(cell name, program, CompileOptions)`` for every pinned lowering."""
    from repro.bench.harness import APPS
    from repro.bench.micro import WORKLOADS, build_micro_program
    from repro.frontend.driver import CompileOptions, Target

    programs = {app: APPS[app].build_program(APPS[app].default_size())
                for app in sorted(APPS)}
    out: List[Tuple[str, object, object]] = []
    for app, program in programs.items():
        for target in Target:
            out.append((f"{app} / {TARGET_LABELS[target.name]}", program,
                        CompileOptions(target)))
        out.append((f"{app} / openmp-new debug", program,
                    CompileOptions(Target.OPENMP_NEW).with_debug()))
    micro = build_micro_program(WORKLOADS)
    for target in Target:
        out.append((f"micro / {TARGET_LABELS[target.name]}", micro,
                    CompileOptions(target)))
    return out


def lower(program, options):
    """The driver's frontend step alone: ``(module, abis)``."""
    from repro.frontend.cuda import lower_program_cuda
    from repro.frontend.driver import Target
    from repro.frontend.lower import lower_program_openmp

    if options.target is Target.CUDA:
        return lower_program_cuda(program)
    return lower_program_openmp(program, options.target.runtime,
                                options.runtime_config)


def digest(module, abis) -> str:
    """sha256 of the printed module, the parameter attributes (which the
    printer omits) and the repr of the kernel ABIs."""
    from repro.ir.printer import print_module

    param_attrs = [(f.name, sorted((i, sorted(a)) for i, a in f.param_attrs.items()))
                   for f in module.functions.values() if f.param_attrs]
    text = print_module(module) + "\n" + repr(param_attrs) + "\n" + repr(abis)
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> Iterator[Tuple[str, str]]:
    """``(cell name, digest)`` for every cell of :func:`cells`."""
    for name, program, options in cells():
        yield name, digest(*lower(program, options))


def load() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def write(digests: Dict[str, str]) -> None:
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
