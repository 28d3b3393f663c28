"""TestSNAP proxy — SNAP force kernel with reference-output checking.

Miniature of the LAMMPS SNAP force proxy: for every atom the kernel
walks its neighbour list, evaluates a switched radial polynomial (the
bispectrum stand-in) and accumulates a three-component force, which the
harness checks against reference data and summarizes as an RMS error —
matching TestSNAP's own reporting (grind time + RMS force error).

The paper could not map the Kokkos-based CUDA TestSNAP kernels onto the
OpenMP ones one-to-one; the benchmark harness therefore reports the
OpenMP builds only (a CUDA lowering still exists for completeness).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.frontend import ast as A
from repro.ir.types import F64, I64, PTR
from repro.apps.common import AppRunResult, PreparedInputs

KERNEL = "compute_force"
TEAMS = 8
THREADS = 32


def default_size() -> Dict[str, int]:
    return {"n_atoms": TEAMS * THREADS, "n_neighbors": 8}


def build_program(size: Dict[str, int]) -> A.Program:
    iv = A.Var("iv")
    nn = A.Arg("n_neighbors")
    body = [
        A.Let("xi", A.Index(A.Arg("pos"), iv * 3 + 0), F64),
        A.Let("yi", A.Index(A.Arg("pos"), iv * 3 + 1), F64),
        A.Let("zi", A.Index(A.Arg("pos"), iv * 3 + 2), F64),
        A.Let("fx", A.Const(0.0, F64), F64),
        A.Let("fy", A.Const(0.0, F64), F64),
        A.Let("fz", A.Const(0.0, F64), F64),
        A.ForRange("j", 0, nn, [
            A.Let("nbr", A.Index(A.Arg("neighbors"), iv * nn + A.Var("j"), I64), I64),
            A.Let("dx", A.Index(A.Arg("pos"), A.Var("nbr") * 3 + 0) - A.Var("xi"), F64),
            A.Let("dy", A.Index(A.Arg("pos"), A.Var("nbr") * 3 + 1) - A.Var("yi"), F64),
            A.Let("dz", A.Index(A.Arg("pos"), A.Var("nbr") * 3 + 2) - A.Var("zi"), F64),
            A.Let("r2", A.Var("dx") * A.Var("dx") + A.Var("dy") * A.Var("dy")
                  + A.Var("dz") * A.Var("dz") + 0.01, F64),
            A.Let("r", A.MathCall("sqrt", A.Var("r2")), F64),
            # Switched radial polynomial (the bispectrum stand-in).
            A.Let("sw", 1.0 / (1.0 + A.Var("r2") * A.Var("r2")), F64),
            A.Let("coeff", A.Var("sw")
                  * (A.Arg("c0") + A.Var("r") * (A.Arg("c1") + A.Var("r") * A.Arg("c2")))
                  / A.Var("r2"), F64),
            A.Assign("fx", A.Var("fx") + A.Var("coeff") * A.Var("dx")),
            A.Assign("fy", A.Var("fy") + A.Var("coeff") * A.Var("dy")),
            A.Assign("fz", A.Var("fz") + A.Var("coeff") * A.Var("dz")),
        ]),
        A.StoreIdx(A.Arg("force"), iv * 3 + 0, A.Var("fx")),
        A.StoreIdx(A.Arg("force"), iv * 3 + 1, A.Var("fy")),
        A.StoreIdx(A.Arg("force"), iv * 3 + 2, A.Var("fz")),
    ]
    kernel = A.KernelDef(
        KERNEL,
        params=[
            A.Param("pos", PTR),
            A.Param("neighbors", PTR),
            A.Param("force", PTR),
            A.Param("n_atoms", I64),
            A.Param("n_neighbors", I64),
            A.Param("c0", F64),
            A.Param("c1", F64),
            A.Param("c2", F64),
        ],
        trip_count=A.Arg("n_atoms"),
        body=body,
    )
    return A.Program("testsnap", kernels=[kernel])


COEFFS = (1.2, -0.7, 0.31)


def make_inputs(size: Dict[str, int], seed: int = 20220602):
    rng = np.random.default_rng(seed)
    n, nn = size["n_atoms"], size["n_neighbors"]
    pos = rng.random((n, 3)) * 4.0
    neighbors = np.empty((n, nn), dtype=np.int64)
    for j in range(nn):
        neighbors[:, j] = (np.arange(n) + j + 1) % n
    return pos, neighbors


def reference(size, pos, neighbors) -> np.ndarray:
    c0, c1, c2 = COEFFS
    n, nn = size["n_atoms"], size["n_neighbors"]
    force = np.zeros((n, 3))
    for j in range(nn):
        d = pos[neighbors[:, j]] - pos
        r2 = np.sum(d * d, axis=1) + 0.01
        r = np.sqrt(r2)
        sw = 1.0 / (1.0 + r2 * r2)
        coeff = sw * (c0 + r * (c1 + r * c2)) / r2
        force += coeff[:, None] * d
    return force


def prepare(gpu, size: Dict[str, int]) -> PreparedInputs:
    pos, neighbors = make_inputs(size)
    expected = reference(size, pos, neighbors)
    n = size["n_atoms"]
    host_args = {
        "pos": gpu.alloc_array(pos),
        "neighbors": gpu.alloc_array(neighbors),
        "force": gpu.alloc_array(np.zeros(n * 3)),
        "n_atoms": n,
        "n_neighbors": size["n_neighbors"],
        "c0": COEFFS[0],
        "c1": COEFFS[1],
        "c2": COEFFS[2],
    }

    def verify(gpu_, args) -> float:
        got = gpu_.read_array(args["force"], np.float64, n * 3).reshape(n, 3)
        return float(np.max(np.abs(got - expected)))

    return host_args, verify


def rms_force_error(result: AppRunResult) -> float:
    """TestSNAP-style summary statistic (eV/A analogue)."""
    return result.max_error
