"""RSBench proxy — compute-bound multipole cross-section lookup.

The multipole alternative to XSBench (§V-A): each lookup evaluates a
resonance sum over the poles of every constituent nuclide with heavy
transcendental math (Doppler-broadening-style sin/cos/exp/sqrt terms)
and only a handful of loads per pole.  Runtime overhead is therefore a
small fraction of kernel time for *every* build — the paper's Fig. 10b
shows near-parity across Old RT, the co-designed runtime, and CUDA.

All simulation parameters are scalars (no aggregate), matching the
RSBench port; the verification reduction is hoisted to the host.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.frontend import ast as A
from repro.ir.types import F64, I64, PTR
from repro.apps.common import (
    PreparedInputs,
    lcg_rand01_function,
    lcg_rand01_host,
)

KERNEL = "rs_lookup"
TEAMS = 8
THREADS = 32


def default_size() -> Dict[str, int]:
    return {
        "n_lookups": TEAMS * THREADS,
        "n_nuclides": 8,
        "n_poles": 8,
        "n_mats": 4,
        "nucs_per_mat": 3,
    }


def build_program(size: Dict[str, int]) -> A.Program:
    iv = A.Var("iv")
    e = A.Var("e")
    np_ = A.Arg("n_poles")

    pole_idx = A.Var("nuc") * np_ + A.Var("p")
    pole_body = [
        A.Let("pe", A.Index(A.Arg("pole_e"), pole_idx), F64),
        A.Let("mp_re", A.Index(A.Arg("pole_re"), pole_idx), F64),
        A.Let("mp_im", A.Index(A.Arg("pole_im"), pole_idx), F64),
        # Faddeeva-flavoured broadened resonance term: denominators from
        # the pole energy, phases from the evaluation energy.
        A.Let("de", e - A.Var("pe"), F64),
        A.Let("denom", A.Var("de") * A.Var("de") + 0.0025, F64),
        A.Let("phase", A.Var("de") * A.Var("inv_dop"), F64),
        A.Let("s", A.MathCall("sin", A.Var("phase")), F64),
        A.Let("c", A.MathCall("cos", A.Var("phase")), F64),
        A.Let("damp", A.MathCall("exp", 0.0 - A.Var("de") * A.Var("de")), F64),
        A.Let("w_re", (A.Var("c") * A.Var("damp")) / A.Var("denom"), F64),
        A.Let("w_im", (A.Var("s") * A.Var("damp")) / A.Var("denom"), F64),
        A.Assign("sig_t", A.Var("sig_t")
                 + A.Var("conc") * (A.Var("mp_re") * A.Var("w_re")
                                    - A.Var("mp_im") * A.Var("w_im"))),
        A.Assign("sig_a", A.Var("sig_a")
                 + A.Var("conc") * (A.Var("mp_re") * A.Var("w_im")
                                    + A.Var("mp_im") * A.Var("w_re"))),
    ]

    body = [
        A.Let("e", A.FuncCall("rand01", iv) + 0.1, F64),
        A.Let("inv_dop", 1.0 / A.MathCall("sqrt", e), F64),
        A.Let("mat", iv % A.Arg("n_mats"), I64),
        A.Let("sig_t", A.Const(0.0, F64), F64),
        A.Let("sig_a", A.Const(0.0, F64), F64),
        A.ForRange("j", 0, A.Arg("nucs_per_mat"), [
            A.Let("nuc", A.Index(A.Arg("mats"),
                                 A.Var("mat") * A.Arg("nucs_per_mat") + A.Var("j"), I64), I64),
            A.Let("conc", A.Index(A.Arg("concs"),
                                  A.Var("mat") * A.Arg("nucs_per_mat") + A.Var("j")), F64),
            A.ForRange("p", 0, np_, pole_body),
        ]),
        A.StoreIdx(A.Arg("out"), iv * 2, A.Var("sig_t")),
        A.StoreIdx(A.Arg("out"), iv * 2 + 1, A.Var("sig_a")),
    ]

    kernel = A.KernelDef(
        KERNEL,
        params=[
            A.Param("pole_e", PTR),
            A.Param("pole_re", PTR),
            A.Param("pole_im", PTR),
            A.Param("mats", PTR),
            A.Param("concs", PTR),
            A.Param("out", PTR),
            A.Param("n_lookups", I64),
            A.Param("n_poles", I64),
            A.Param("n_mats", I64),
            A.Param("nucs_per_mat", I64),
        ],
        trip_count=A.Arg("n_lookups"),
        body=body,
    )
    return A.Program("rsbench", kernels=[kernel],
                     device_functions=[lcg_rand01_function()])


def make_inputs(size: Dict[str, int], seed: int = 20220531):
    rng = np.random.default_rng(seed)
    nn, npo = size["n_nuclides"], size["n_poles"]
    pole_e = rng.random((nn, npo)) + 0.05
    pole_re = rng.standard_normal((nn, npo))
    pole_im = rng.standard_normal((nn, npo))
    mats = rng.integers(0, nn, size=(size["n_mats"], size["nucs_per_mat"]), dtype=np.int64)
    concs = rng.random((size["n_mats"], size["nucs_per_mat"]))
    return pole_e, pole_re, pole_im, mats, concs


def reference(size, pole_e, pole_re, pole_im, mats, concs) -> np.ndarray:
    """NumPy reference reproducing the device arithmetic exactly: every
    lookup at once, summing nuclides and poles in the device's order."""
    n = size["n_lookups"]
    e = lcg_rand01_host(np.arange(n, dtype=np.int64)) + 0.1
    inv_dop = 1.0 / np.sqrt(e)
    mat = np.arange(n) % size["n_mats"]
    sig_t = np.zeros(n)
    sig_a = np.zeros(n)
    for j in range(size["nucs_per_mat"]):
        nuc = mats[mat, j]
        conc = concs[mat, j]
        for p in range(size["n_poles"]):
            de = e - pole_e[nuc, p]
            denom = de * de + 0.0025
            phase = de * inv_dop
            damp = np.exp(0.0 - de * de)
            w_re = (np.cos(phase) * damp) / denom
            w_im = (np.sin(phase) * damp) / denom
            re, im = pole_re[nuc, p], pole_im[nuc, p]
            sig_t += conc * (re * w_re - im * w_im)
            sig_a += conc * (re * w_im + im * w_re)
    return np.stack([sig_t, sig_a], axis=1)


def prepare(gpu, size: Dict[str, int]) -> PreparedInputs:
    pole_e, pole_re, pole_im, mats, concs = make_inputs(size)
    expected = reference(size, pole_e, pole_re, pole_im, mats, concs)
    n = size["n_lookups"]
    host_args = {
        "pole_e": gpu.alloc_array(pole_e),
        "pole_re": gpu.alloc_array(pole_re),
        "pole_im": gpu.alloc_array(pole_im),
        "mats": gpu.alloc_array(mats),
        "concs": gpu.alloc_array(concs),
        "out": gpu.alloc_array(np.zeros(n * 2)),
        "n_lookups": n,
        "n_poles": size["n_poles"],
        "n_mats": size["n_mats"],
        "nucs_per_mat": size["nucs_per_mat"],
    }

    def verify(gpu_, args) -> float:
        got = gpu_.read_array(args["out"], np.float64, n * 2).reshape(n, 2)
        return float(np.max(np.abs(got - expected)))

    return host_args, verify
