"""Per-lookup loop versions of the rsbench and xsbench host references.

They follow the device kernels line by line, one lookup at a time, and
are the oracle for the vectorized ``reference`` functions the apps use.
"""

import numpy as np

from repro.apps.common import lcg_rand01_host
from repro.apps.xsbench import N_XS


def rsbench_reference(size, pole_e, pole_re, pole_im, mats, concs) -> np.ndarray:
    n = size["n_lookups"]
    out = np.zeros((n, 2))
    energies = lcg_rand01_host(np.arange(n, dtype=np.int64)) + 0.1
    for iv in range(n):
        e = energies[iv]
        inv_dop = 1.0 / np.sqrt(e)
        mat = iv % size["n_mats"]
        sig_t = sig_a = 0.0
        for j in range(size["nucs_per_mat"]):
            nuc = int(mats[mat, j])
            conc = concs[mat, j]
            for p in range(size["n_poles"]):
                pe = pole_e[nuc, p]
                de = e - pe
                denom = de * de + 0.0025
                phase = de * inv_dop
                s, c = np.sin(phase), np.cos(phase)
                damp = np.exp(0.0 - de * de)
                w_re = (c * damp) / denom
                w_im = (s * damp) / denom
                sig_t += conc * (pole_re[nuc, p] * w_re - pole_im[nuc, p] * w_im)
                sig_a += conc * (pole_re[nuc, p] * w_im + pole_im[nuc, p] * w_re)
        out[iv] = (sig_t, sig_a)
    return out


def xsbench_reference(size, egrids, xs_data, mats, concs) -> np.ndarray:
    n = size["n_lookups"]
    out = np.zeros((n, N_XS))
    energies = lcg_rand01_host(np.arange(n, dtype=np.int64))
    for iv in range(n):
        e = energies[iv]
        mat = iv % size["n_mats"]
        for j in range(size["nucs_per_mat"]):
            nuc = int(mats[mat, j])
            conc = concs[mat, j]
            grid = egrids[nuc]
            lo, hi = 0, size["n_gridpoints"] - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if grid[mid] > e:
                    hi = mid
                else:
                    lo = mid
            f = (e - grid[lo]) / (grid[lo + 1] - grid[lo])
            for k in range(N_XS):
                lo_xs = xs_data[nuc, lo, k]
                hi_xs = xs_data[nuc, lo + 1, k]
                out[iv, k] += conc * (lo_xs + f * (hi_xs - lo_xs))
    return out
