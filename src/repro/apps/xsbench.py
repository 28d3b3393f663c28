"""XSBench proxy — memory-bound macroscopic cross-section lookup.

Miniature of the OpenMC XSBench proxy app: every lookup draws a
pseudo-random energy and material, binary-searches each constituent
nuclide's energy grid, linearly interpolates five cross sections and
accumulates them weighted by concentration.  The access pattern is
dominated by dependent global-memory reads — the memory-bound proxy of
the paper's evaluation (§V-A).

As in the paper (§VII), the lookup configuration travels in an
aggregate: OpenMP passes it by reference (field reads are global
loads in the hot loop), CUDA receives the fields by value.  The
verification reduction is hoisted out of the timed kernel, matching
the paper's methodology note.
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

KERNEL = "xs_lookup"
N_XS = 5  # total, elastic, absorption, fission, nu-fission

#: Launch geometry: exact coverage (one lookup per hardware thread),
#: the same grid the CUDA port would launch.
TEAMS = 8
THREADS = 32


def default_size() -> Dict[str, int]:
    return {
        "n_lookups": TEAMS * THREADS,
        "n_nuclides": 12,
        "n_gridpoints": 64,
        "n_mats": 4,
        "nucs_per_mat": 4,
    }


def build_program(size: Dict[str, int]) -> A.Program:
    iv = A.Var("iv")
    conf = A.StructParam(
        "conf",
        (
            ("n_gridpoints", I64),
            ("n_mats", I64),
            ("nucs_per_mat", I64),
        ),
    )
    ng = A.Field("conf", "n_gridpoints")
    e = A.Var("e")

    body = [
        A.Let("e", A.FuncCall("rand01", iv), F64),
        A.Let("mat", iv % A.Field("conf", "n_mats"), I64),
    ]
    body += [A.Let(f"xs{k}", A.Const(0.0, F64), F64) for k in range(N_XS)]

    nuc_base = A.Var("nuc") * ng
    search = [
        A.Let("nuc", A.Index(A.Arg("mats"),
                             A.Var("mat") * A.Field("conf", "nucs_per_mat") + A.Var("j"),
                             I64), I64),
        A.Let("conc", A.Index(A.Arg("concs"),
                              A.Var("mat") * A.Field("conf", "nucs_per_mat") + A.Var("j")),
              F64),
        # Binary search of this nuclide's sorted energy grid.
        A.Let("lo", A.Const(0, I64), I64),
        A.Let("hi", A.Var("max_idx"), I64),
        A.While(A.Cmp(">", A.Var("hi") - A.Var("lo"), 1), [
            A.Let("mid", (A.Var("lo") + A.Var("hi")) / 2, I64),
            A.If(A.Cmp(">", A.Index(A.Arg("egrids"), nuc_base + A.Var("mid")), e),
                 [A.Assign("hi", A.Var("mid"))],
                 [A.Assign("lo", A.Var("mid"))]),
        ]),
        A.Let("e_lo", A.Index(A.Arg("egrids"), nuc_base + A.Var("lo")), F64),
        A.Let("e_hi", A.Index(A.Arg("egrids"), nuc_base + A.Var("lo") + 1), F64),
        A.Let("f", (e - A.Var("e_lo")) / (A.Var("e_hi") - A.Var("e_lo")), F64),
    ]
    for k in range(N_XS):
        lo_idx = (nuc_base + A.Var("lo")) * N_XS + k
        hi_idx = (nuc_base + A.Var("lo") + 1) * N_XS + k
        search += [
            A.Let(f"lo_xs{k}", A.Index(A.Arg("xs_data"), lo_idx), F64),
            A.Let(f"hi_xs{k}", A.Index(A.Arg("xs_data"), hi_idx), F64),
            A.Assign(
                f"xs{k}",
                A.Var(f"xs{k}")
                + A.Var("conc")
                * (A.Var(f"lo_xs{k}") + A.Var("f") * (A.Var(f"hi_xs{k}") - A.Var(f"lo_xs{k}"))),
            ),
        ]
    body.append(A.ForRange("j", 0, A.Field("conf", "nucs_per_mat"), search))
    body += [
        A.StoreIdx(A.Arg("out"), iv * N_XS + k, A.Var(f"xs{k}"))
        for k in range(N_XS)
    ]

    # Sequential setup before the parallel loop: XSBench computes its
    # grid bounds once per kernel.  The preamble forces generic-mode
    # lowering, so this kernel exercises SPMDzation (§IV-A3) and the
    # full `parallel` path whose state the §IV-B3 assumptions fold.
    preamble = [A.Let("max_idx", A.Field("conf", "n_gridpoints") - 1, I64)]

    kernel = A.KernelDef(
        KERNEL,
        params=[
            A.Param("egrids", PTR),
            A.Param("xs_data", PTR),
            A.Param("mats", PTR),
            A.Param("concs", PTR),
            A.Param("out", PTR),
            A.Param("n_lookups", I64),
            conf,
        ],
        trip_count=A.Arg("n_lookups"),
        body=body,
        preamble=preamble,
    )
    return A.Program("xsbench", kernels=[kernel],
                     device_functions=[lcg_rand01_function()])


def make_inputs(size: Dict[str, int], seed: int = 20220530):
    rng = np.random.default_rng(seed)
    nn, ng = size["n_nuclides"], size["n_gridpoints"]
    egrids = np.sort(rng.random((nn, ng)), axis=1)
    egrids[:, 0] = 0.0
    egrids[:, -1] = 1.0
    xs_data = rng.random((nn, ng, N_XS))
    mats = rng.integers(0, nn, size=(size["n_mats"], size["nucs_per_mat"]), dtype=np.int64)
    concs = rng.random((size["n_mats"], size["nucs_per_mat"]))
    return egrids, xs_data, mats, concs


def reference(size: Dict[str, int], egrids, xs_data, mats, concs) -> np.ndarray:
    """NumPy reference reproducing the device arithmetic exactly: every
    lookup at once, in the device's nuclide and cross-section order."""
    n = size["n_lookups"]
    out = np.zeros((n, N_XS))
    e = lcg_rand01_host(np.arange(n, dtype=np.int64))
    mat = np.arange(n) % size["n_mats"]
    for j in range(size["nucs_per_mat"]):
        nuc = mats[mat, j]
        conc = concs[mat, j]
        # The device's binary search, one step for every lane still
        # searching (no searchsorted: ties must split the same way).
        lo = np.zeros(n, np.int64)
        hi = np.full(n, size["n_gridpoints"] - 1, np.int64)
        searching = hi - lo > 1
        while searching.any():
            mid = (lo + hi) // 2
            above = egrids[nuc, mid] > e
            hi = np.where(searching & above, mid, hi)
            lo = np.where(searching & ~above, mid, lo)
            searching = hi - lo > 1
        g_lo = egrids[nuc, lo]
        f = (e - g_lo) / (egrids[nuc, lo + 1] - g_lo)
        for k in range(N_XS):
            lo_xs = xs_data[nuc, lo, k]
            hi_xs = xs_data[nuc, lo + 1, k]
            out[:, k] += conc * (lo_xs + f * (hi_xs - lo_xs))
    return out


def prepare(gpu, size: Dict[str, int]) -> PreparedInputs:
    egrids, xs_data, mats, concs = make_inputs(size)
    expected = reference(size, egrids, xs_data, mats, concs)
    n = size["n_lookups"]
    host_args = {
        "egrids": gpu.alloc_array(egrids),
        "xs_data": gpu.alloc_array(xs_data),
        "mats": gpu.alloc_array(mats),
        "concs": gpu.alloc_array(concs),
        "out": gpu.alloc_array(np.zeros(n * N_XS)),
        "n_lookups": n,
        "conf": {
            "n_gridpoints": size["n_gridpoints"],
            "n_mats": size["n_mats"],
            "nucs_per_mat": size["nucs_per_mat"],
        },
    }

    def verify(gpu_, args) -> float:
        got = gpu_.read_array(args["out"], np.float64, n * N_XS).reshape(n, N_XS)
        return float(np.max(np.abs(got - expected)))

    return host_args, verify
