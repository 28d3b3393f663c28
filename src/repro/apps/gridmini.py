"""GridMini proxy — lattice QCD SU(2)-flavoured stencil, reported in GFlops.

A reduced Grid benchmark: each team stages its sites' spinors into
shared memory (the classic stencil tiling), synchronizes, then applies
a 2x2 complex link matrix per direction to each neighbour spinor —
reading team-local neighbours from the shared tile and remote ones from
global memory.  The harness reports floating-point throughput (Fig. 12
GFlops); the flop count is identical across builds by construction, so
throughput differences are pure runtime overhead.

This kernel exercises exactly the §IV-C machinery: ICV queries and a
user barrier inside the loop body.  With aligned-execution analysis
disabled, the barrier invalidates the assumed team state, the query
loads stay in the binary, and with them some shared state — the
GridMini ablation bars of Fig. 13.

As the paper notes in §VII, the loop bound is passed *by value* (the
authors modified GridMini the same way to match the CUDA version).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.frontend import ast as A
from repro.ir.types import F64, I64, PTR
from repro.apps.common import PreparedInputs

KERNEL = "dslash"
NDIR = 4  # stencil directions
TEAMS = 8
THREADS = 32


def default_size() -> Dict[str, int]:
    return {"n_sites": TEAMS * THREADS}


def _cmul_re(a_re, a_im, b_re, b_im):
    return a_re * b_re - a_im * b_im


def _cmul_im(a_re, a_im, b_re, b_im):
    return a_re * b_im + a_im * b_re


def build_program(size: Dict[str, int]) -> A.Program:
    iv = A.Var("iv")
    body = [
        A.Let("nt", A.CastTo(A.OmpCall("num_threads"), I64), I64),
        A.Let("team", A.CastTo(A.OmpCall("team_num"), I64), I64),
        A.Let("lane", iv % A.Var("nt"), I64),
    ]
    # Stage this site's spinor into the team tile.
    for c in range(4):
        body.append(A.StoreIdx(A.SharedRef("tile"), A.Var("lane") * 4 + c,
                               A.Index(A.Arg("psi"), iv * 4 + c)))
    body.append(A.BarrierStmt())
    body += [
        A.Let("acc0_re", A.Const(0.0, F64), F64),
        A.Let("acc0_im", A.Const(0.0, F64), F64),
        A.Let("acc1_re", A.Const(0.0, F64), F64),
        A.Let("acc1_im", A.Const(0.0, F64), F64),
    ]
    for mu in range(NDIR):
        nbr = A.Var(f"nbr{mu}")
        body.append(A.Let(f"nbr{mu}",
                          A.Index(A.Arg("neighbors"), iv * NDIR + mu, I64), I64))
        # Neighbour spinor: from the shared tile when the neighbour is
        # handled by this team, from global memory otherwise.
        in_team = A.Cmp("==", nbr / A.Var("nt"), A.Var("team"))
        for c in range(2):
            for part, off in (("re", 2 * c), ("im", 2 * c + 1)):
                body.append(A.Let(f"p{c}_{part}", A.SelectExpr(
                    in_team,
                    A.Index(A.SharedRef("tile"), (nbr % A.Var("nt")) * 4 + off),
                    A.Index(A.Arg("psi"), nbr * 4 + off),
                ), F64))
        # Load the 2x2 complex link matrix for this site/direction.
        link_base = (iv * NDIR + mu) * 8
        for r in range(2):
            for c in range(2):
                k = (r * 2 + c) * 2
                body += [
                    A.Let(f"u{r}{c}_re", A.Index(A.Arg("links"), link_base + k), F64),
                    A.Let(f"u{r}{c}_im", A.Index(A.Arg("links"), link_base + k + 1), F64),
                ]
        # acc_r += sum_c U[r,c] * p[c]
        for r in range(2):
            for c in range(2):
                u_re, u_im = A.Var(f"u{r}{c}_re"), A.Var(f"u{r}{c}_im")
                p_re, p_im = A.Var(f"p{c}_re"), A.Var(f"p{c}_im")
                body += [
                    A.Assign(f"acc{r}_re",
                             A.Var(f"acc{r}_re") + _cmul_re(u_re, u_im, p_re, p_im)),
                    A.Assign(f"acc{r}_im",
                             A.Var(f"acc{r}_im") + _cmul_im(u_re, u_im, p_re, p_im)),
                ]
    for r in range(2):
        body += [
            A.StoreIdx(A.Arg("out"), iv * 4 + (2 * r), A.Var(f"acc{r}_re")),
            A.StoreIdx(A.Arg("out"), iv * 4 + (2 * r + 1), A.Var(f"acc{r}_im")),
        ]

    kernel = A.KernelDef(
        KERNEL,
        params=[
            A.Param("links", PTR),
            A.Param("psi", PTR),
            A.Param("neighbors", PTR),
            A.Param("out", PTR),
            A.Param("n_sites", I64),  # loop bound passed by value (§VII)
        ],
        trip_count=A.Arg("n_sites"),
        body=body,
        shared=[A.SharedArray("tile", F64, THREADS * 4)],
    )
    return A.Program("gridmini", kernels=[kernel])


def make_inputs(size: Dict[str, int], seed: int = 20220601):
    rng = np.random.default_rng(seed)
    n = size["n_sites"]
    links = rng.standard_normal((n, NDIR, 2, 2, 2))  # [site, mu, r, c, re/im]
    psi = rng.standard_normal((n, 2, 2))  # [site, comp, re/im]
    neighbors = np.empty((n, NDIR), dtype=np.int64)
    for mu in range(NDIR):
        neighbors[:, mu] = (np.arange(n) + (mu + 1)) % n
    return links, psi, neighbors


def reference(size, links, psi, neighbors) -> np.ndarray:
    n = size["n_sites"]
    out = np.zeros((n, 2, 2))
    pc = psi[..., 0] + 1j * psi[..., 1]  # [site, comp]
    uc = links[..., 0] + 1j * links[..., 1]  # [site, mu, r, c]
    for mu in range(NDIR):
        nbr = neighbors[:, mu]
        out[..., 0] += np.real(np.einsum("src,sc->sr", uc[:, mu], pc[nbr]))
        out[..., 1] += np.imag(np.einsum("src,sc->sr", uc[:, mu], pc[nbr]))
    return out


def prepare(gpu, size: Dict[str, int]) -> PreparedInputs:
    links, psi, neighbors = make_inputs(size)
    expected = reference(size, links, psi, neighbors)
    n = size["n_sites"]
    host_args = {
        "links": gpu.alloc_array(links),
        "psi": gpu.alloc_array(psi),
        "neighbors": gpu.alloc_array(neighbors),
        "out": gpu.alloc_array(np.zeros(n * 4)),
        "n_sites": n,
    }

    def verify(gpu_, args) -> float:
        got = gpu_.read_array(args["out"], np.float64, n * 4).reshape(n, 2, 2)
        return float(np.max(np.abs(got - expected)))

    return host_args, verify
