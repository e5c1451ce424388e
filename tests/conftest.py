"""Shared helpers: independent brute-force oracles for the numerical tests."""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from atomscreen.bsplines import KnotBasis, QuadratureRule, eval_bspline
from atomscreen.operators import OperatorPair


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """Expand symmetric upper-banded storage to a full dense matrix."""
    rows, n = band.shape
    bw = rows - 1
    dense = np.zeros((n, n))
    for d in range(bw + 1):
        diag = band[bw - d, d:]
        idx = np.arange(n - d)
        dense[idx, idx + d] = diag
        dense[idx + d, idx] = diag
    return dense


def refined_dense_eigenvalues(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """All eigenvalues of the dense pencil (h, s), each refined past float64.

    ``scipy.linalg.eigh`` alone errs by up to ~1e-11 relative on small,
    ill-scaled pencils. Each of its pairs is refined by inverse iteration
    c <- c - (h - sigma s)^-1 r, shifted at its own eigenvalue sigma, with the
    residual r = h c - rho s c and the Rayleigh quotient rho in long double.
    """
    values, vectors = sla.eigh(h, s)
    h_ext, s_ext = h.astype(np.longdouble), s.astype(np.longdouble)
    refined = np.empty(len(values), dtype=np.longdouble)
    for j, sigma in enumerate(values):
        factors = sla.lu_factor(h - sigma * s)
        c = vectors[:, j].astype(np.longdouble)
        for _ in range(3):
            c /= np.sqrt(c @ s_ext @ c)
            residual = h_ext @ c - (c @ h_ext @ c) * (s_ext @ c)
            c -= sla.lu_solve(factors, residual.astype(np.float64))
        c /= np.sqrt(c @ s_ext @ c)
        refined[j] = c @ h_ext @ c
    return refined


class CountingSeeds:
    """Stands in for ``eigensolve._sturm_seeds``, recording the dimension of
    each pencil it seeds; each call makes one dsbgvx call at that n."""

    def __init__(self, routine):
        self._routine = routine
        self.dimensions = []

    def __call__(self, pair, count):
        self.dimensions.append(pair.dimension)
        return self._routine(pair, count)


def dense_to_band(dense: np.ndarray, bandwidth: int) -> np.ndarray:
    """Pack a symmetric dense matrix into upper-banded storage."""
    n = dense.shape[0]
    band = np.zeros((bandwidth + 1, n))
    for d in range(bandwidth + 1):
        band[bandwidth - d, d:] = np.diag(dense, d)
    return band


def random_banded_pair(rng: np.random.Generator, dim: int, bandwidth: int) -> OperatorPair:
    """Random symmetric banded H and banded SPD S (via banded Cholesky factor)."""
    h_dense = rng.standard_normal((dim, dim))
    h_dense = h_dense + h_dense.T
    h_dense = np.triu(np.tril(h_dense, bandwidth), -bandwidth)
    factor = np.tril(rng.standard_normal((dim, dim)), 0)
    factor = np.triu(factor, -bandwidth)
    factor[np.arange(dim), np.arange(dim)] = rng.uniform(1.0, 2.0, dim)
    s_dense = factor @ factor.T
    return OperatorPair(
        h_band=dense_to_band(h_dense, bandwidth),
        s_band=dense_to_band(s_dense, bandwidth),
    )


def brute_force_matrix(
    basis: KnotBasis, quad: QuadratureRule, weight_of_r, derivative: bool = False
) -> np.ndarray:
    """Dense Galerkin matrix built point by point from eval_bspline.

    Deliberately slow and independent of the design-table assembly path:
    every value comes from a separate de Boor evaluation at each node.
    """
    n_active = basis.n_active
    order = 1 if derivative else 0
    radii = quad.nodes.ravel()
    weights = quad.weights.ravel() * weight_of_r(radii)
    table = np.zeros((len(radii), n_active))
    for j, global_index in enumerate(basis.active_range):
        table[:, j] = [eval_bspline(basis, global_index, r, order) for r in radii]
    return table.T @ (weights[:, None] * table)
