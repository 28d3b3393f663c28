"""The launches whose modeled results ``run_digests.json`` pins.

Every compile cell of :mod:`tests.passes.compile_digests` (the 24
build-matrix cells and the six §IV ablation builds per app) runs its
app once at the default size on the decoded engine.  A launch's digest
is the sha256 of its ``KernelProfile.to_dict()`` JSON: cycles,
instructions, registers, SMem and the §III counters, so a change to
any modeled number shows up as a differing launch.  The ``untraced``
pass is the plain launch; the ``traced`` pass reruns every launch
with a trace collector, which adds ``function_cycles``.

Rewrite the JSON with ``PYTHONPATH=src python tests/regen_run_digests.py``,
and only for a change that is meant to move a modeled number.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

DIGESTS_PATH = Path(__file__).with_name("run_digests.json")

#: The two passes over the launches, in the JSON's key order.
PASSES = ("untraced", "traced")


def launch(app_name: str, compiled, traced: bool = False):
    """Run *app_name*'s kernel from *compiled* at the default size on a
    fresh decoded device; returns the verified :class:`KernelProfile`."""
    from repro.bench.harness import APPS
    from repro.trace import TraceCollector
    from repro.vgpu import ENGINE_DECODED, GPUConfig, LaunchSpec, VirtualGPU

    app = APPS[app_name]
    gpu = VirtualGPU(compiled.module, config=GPUConfig(), engine=ENGINE_DECODED,
                     trace=TraceCollector() if traced else None)
    host_args, verify = app.prepare(gpu, app.default_size())
    profile = gpu.run(LaunchSpec(
        kernel=app.KERNEL, num_teams=app.TEAMS, threads_per_team=app.THREADS,
        args=tuple(compiled.abi(app.KERNEL).marshal(gpu, host_args)))).profile
    error = verify(gpu, host_args)
    if not error < 1e-9:
        raise AssertionError(f"{app_name}: verify() max error {error!r}")
    return profile


def digest(profile) -> str:
    """sha256 of the profile's sorted ``to_dict()`` JSON."""
    text = json.dumps(profile.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def compute(compiled: Dict[str, Tuple[str, object]],
            traced: bool = False) -> Iterator[Tuple[str, str]]:
    """``(cell name, digest)`` of one pass over every compiled cell."""
    for name, (app, program) in compiled.items():
        yield name, digest(launch(app, program, traced=traced))


def load() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def write(digests: Dict[str, Dict[str, str]]) -> None:
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
