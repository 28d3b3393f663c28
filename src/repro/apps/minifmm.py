"""MiniFMM proxy — fast-multipole dual-tree traversal.

The University of Bristol FMM proxy (§V-A): a recursive traversal of a
spatial tree evaluating potentials, with a multipole acceptance check
(far field), direct particle sums at the leaves (near field), and a
per-team shared staging buffer indexed through the OpenMP thread id.

The traversal is a *recursive device function*, which the inliner must
leave alone — so the ICV lookups inside it (thread id, team size) can
never be folded against the kernel's initialization assumptions.  That
is precisely why the paper's MiniFMM improves 1.85x over the old
runtime yet still trails CUDA by about 2x, and why some shared state
survives in its binary (Fig. 11).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

import numpy as np

from repro.frontend import ast as A
from repro.frontend.driver import CompileOptions
from repro.ir.types import F64, I64, PTR, VOID
from repro.apps.common import PreparedInputs

KERNEL = "fmm_eval"
TEAMS = 8
THREADS = 32
EPS = 0.05  # softening to keep self-interaction finite


def default_size() -> Dict[str, int]:
    return {"n_targets": TEAMS * THREADS, "depth": 4, "points_per_leaf": 4,
            "theta_x1000": 500}


def build_program(size: Dict[str, int]) -> A.Program:
    nv = A.Var  # brevity

    def recurse(child_expr, slot):
        return A.CallStmt(A.FuncCall(
            "traverse", child_expr, A.Arg("tx"),
            A.Arg("centers"), A.Arg("halves"), A.Arg("moments"),
            A.Arg("px"), A.Arg("pm"), A.Arg("nleaves"),
            A.Arg("ppl"), A.Arg("theta"), A.LocalRef("cbuf"), slot))

    # The traversal writes its result into a caller-provided buffer; the
    # per-call child buffer's address escapes into the recursive calls,
    # so OpenMP globalizes it through the shared-memory stack and the
    # optimizer cannot demote it (the paper's MiniFMM residual overhead).
    traverse = A.DeviceFunction(
        "traverse",
        params=[
            A.Param("node", I64),
            A.Param("tx", F64),
            A.Param("centers", PTR),
            A.Param("halves", PTR),
            A.Param("moments", PTR),
            A.Param("px", PTR),
            A.Param("pm", PTR),
            A.Param("nleaves", I64),
            A.Param("ppl", I64),
            A.Param("theta", F64),
            A.Param("out", PTR),
            A.Param("slot", I64),
        ],
        ret_ty=VOID,
        body=[
            A.Let("c", A.Index(A.Arg("centers"), A.Arg("node")), F64),
            A.Let("h", A.Index(A.Arg("halves"), A.Arg("node")), F64),
            A.Let("dist", A.MathCall("fabs", nv("c") - A.Arg("tx")) + EPS, F64),
            # Multipole acceptance criterion: well-separated cells are
            # approximated by their aggregate moment.
            A.If(A.Cmp("<", nv("h"), A.Arg("theta") * nv("dist")), [
                A.StoreIdx(A.Arg("out"), A.Arg("slot"),
                           A.Index(A.Arg("moments"), A.Arg("node")) / nv("dist")),
                A.ReturnStmt(),
            ]),
            A.If(A.Cmp(">=", A.Arg("node"), A.Arg("nleaves") - 1), [
                # Leaf: direct particle-particle sum, staged through the
                # team-shared scratch slot of this OpenMP thread.
                A.Let("tidx", A.CastTo(A.OmpCall("thread_num"), I64), I64),
                A.Let("nt", A.CastTo(A.OmpCall("num_threads"), I64), I64),
                A.Let("sslot", nv("tidx") % nv("nt"), I64),
                A.Let("start", (A.Arg("node") - (A.Arg("nleaves") - 1)) * A.Arg("ppl"), I64),
                A.Let("acc", A.Const(0.0, F64), F64),
                A.ForRange("k", 0, A.Arg("ppl"), [
                    A.Let("d", A.MathCall(
                        "fabs",
                        A.Index(A.Arg("px"), nv("start") + nv("k")) - A.Arg("tx")) + EPS,
                        F64),
                    A.Assign("acc", nv("acc")
                             + A.Index(A.Arg("pm"), nv("start") + nv("k")) / nv("d")),
                ]),
                A.StoreIdx(A.SharedRef("scratch"), nv("sslot"), nv("acc")),
                A.StoreIdx(A.Arg("out"), A.Arg("slot"),
                           A.Index(A.SharedRef("scratch"), nv("sslot"))),
                A.ReturnStmt(),
            ]),
            # Internal node: dual recursion into both children through a
            # child-result buffer whose address escapes (globalized).
            A.DeclLocalArray("cbuf", F64, 2),
            recurse(A.Arg("node") * 2 + 1, 0),
            recurse(A.Arg("node") * 2 + 2, 1),
            A.StoreIdx(A.Arg("out"), A.Arg("slot"),
                       A.Index(A.LocalRef("cbuf"), 0) + A.Index(A.LocalRef("cbuf"), 1)),
            A.ReturnStmt(),
        ],
    )

    iv = A.Var("iv")
    kernel = A.KernelDef(
        KERNEL,
        params=[
            A.Param("targets", PTR),
            A.Param("centers", PTR),
            A.Param("halves", PTR),
            A.Param("moments", PTR),
            A.Param("px", PTR),
            A.Param("pm", PTR),
            A.Param("out", PTR),
            A.Param("n_targets", I64),
            A.Param("nleaves", I64),
            A.Param("ppl", I64),
            A.Param("theta", F64),
        ],
        trip_count=A.Arg("n_targets"),
        body=[
            A.Let("tx", A.Index(A.Arg("targets"), iv), F64),
            A.DeclLocalArray("rbuf", F64, 1),
            A.CallStmt(A.FuncCall(
                "traverse", 0, A.Var("tx"),
                A.Arg("centers"), A.Arg("halves"), A.Arg("moments"),
                A.Arg("px"), A.Arg("pm"), A.Arg("nleaves"),
                A.Arg("ppl"), A.Arg("theta"), A.LocalRef("rbuf"), 0)),
            A.StoreIdx(A.Arg("out"), iv, A.Index(A.LocalRef("rbuf"), 0)),
        ],
        shared=[A.SharedArray("scratch", F64, THREADS)],
    )
    return A.Program("minifmm", kernels=[kernel], device_functions=[traverse])


def build_tree(size: Dict[str, int], seed: int = 20220603):
    depth = size["depth"]
    nleaves = 1 << depth
    nnodes = 2 * nleaves - 1
    ppl = size["points_per_leaf"]
    rng = np.random.default_rng(seed)
    # Leaf l covers [l, l+1) on a [0, nleaves) line; points sorted by leaf.
    px = np.concatenate([
        np.sort(rng.random(ppl)) + l for l in range(nleaves)
    ])
    pm = rng.random(nleaves * ppl) + 0.5
    centers = np.zeros(nnodes)
    halves = np.zeros(nnodes)
    moments = np.zeros(nnodes)
    for node in reversed(range(nnodes)):
        if node >= nleaves - 1:
            leaf = node - (nleaves - 1)
            centers[node] = leaf + 0.5
            halves[node] = 0.5
            moments[node] = pm[leaf * ppl:(leaf + 1) * ppl].sum()
        else:
            l, r = 2 * node + 1, 2 * node + 2
            centers[node] = 0.5 * (centers[l] + centers[r])
            halves[node] = centers[r] + halves[r] - centers[node]
            moments[node] = moments[l] + moments[r]
    targets = rng.random(size["n_targets"]) * nleaves
    return targets, centers, halves, moments, px, pm, nleaves, ppl


def reference(size, targets, centers, halves, moments, px, pm, nleaves, ppl) -> np.ndarray:
    theta = size["theta_x1000"] / 1000.0

    def traverse(node: int, tx: float) -> float:
        dist = abs(centers[node] - tx) + EPS
        if halves[node] < theta * dist:
            return moments[node] / dist
        if node >= nleaves - 1:
            start = (node - (nleaves - 1)) * ppl
            acc = 0.0
            for k in range(ppl):
                acc += pm[start + k] / (abs(px[start + k] - tx) + EPS)
            return acc
        return traverse(2 * node + 1, tx) + traverse(2 * node + 2, tx)

    return np.array([traverse(0, t) for t in targets])


def prepare(gpu, size: Dict[str, int]) -> PreparedInputs:
    targets, centers, halves, moments, px, pm, nleaves, ppl = build_tree(size)
    expected = reference(size, targets, centers, halves, moments, px, pm, nleaves, ppl)
    n = size["n_targets"]
    host_args = {
        "targets": gpu.alloc_array(targets),
        "centers": gpu.alloc_array(centers),
        "halves": gpu.alloc_array(halves),
        "moments": gpu.alloc_array(moments),
        "px": gpu.alloc_array(px),
        "pm": gpu.alloc_array(pm),
        "out": gpu.alloc_array(np.zeros(n)),
        "n_targets": n,
        "nleaves": nleaves,
        "ppl": ppl,
        "theta": size["theta_x1000"] / 1000.0,
    }

    def verify(gpu_, args) -> float:
        got = gpu_.read_array(args["out"], np.float64, n)
        return float(np.max(np.abs(got - expected)))

    return host_args, verify


def tune_options(options: CompileOptions) -> CompileOptions:
    """*options* as MiniFMM is built with them.

    MiniFMM is built with a smaller device stack (the app needs only
    tiny per-call frames), which is what its ~3KB SMem row in Fig. 11
    reflects; deep recursion spills to the global-memory fallback
    (§III-D).
    """
    if not options.target.is_openmp:
        return options
    return replace(
        options,
        runtime_config=replace(
            options.runtime_config, smem_stack_size=2048, max_threads=32
        ),
    )
