"""Galerkin assembly of the radial Hamiltonian/overlap pair for one channel.

The reduced radial problem for angular momentum l is

    H[i,j] = 1/2 * int B_i' B_j' dr + int B_i B_j (l(l+1)/(2 r^2) + V(r)) dr
    S[i,j] = int B_i B_j dr

with the kinetic term integrated by parts (boundary terms vanish because the
boundary splines are trimmed). Matrices are stored in symmetric upper-banded
layout, ``band[bw - d, j] = A[j - d, j]`` with bandwidth bw = order_k - 1,
the same convention scipy's banded routines use.

A pair restricted to a coarser spline space (``_seed_pair``) seeds the
eigensolver at a fraction of the cost of seeding on the pair itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bsplines import Workspace, _seed_space
from .model import AtomSpec, Pseudopotential, potential_value

__all__ = [
    "OperatorPair",
    "assemble",
    "band_to_general",
    "band_matvec",
]


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Banded Hamiltonian and overlap for one (atom, l, model) channel."""

    h_band: np.ndarray
    s_band: np.ndarray

    @property
    def dimension(self) -> int:
        return self.s_band.shape[1]


def _band_sum(local: np.ndarray, dim: int) -> np.ndarray:
    """Sum per-interval blocks of shape (n_intervals, k, k) into the upper band.

    Local block (iv, a, b) couples global splines iv+a and iv+b; active
    (trimmed) indices are the global ones shifted down by one, with the
    first and last spline discarded. The loop runs over a, then the offset
    d = b - a, so each band cell sums its terms in ascending a.
    """
    n_iv, k = local.shape[:2]
    band = np.zeros((k, dim))
    for a in range(k):
        first = max(0, 1 - a)
        for d in range(k - a):
            b = a + d
            last = min(n_iv, dim + 1 - b)
            band[k - 1 - d, first + b - 1 : last + b - 1] += local[first:last, a, b]
    return band


@dataclass(frozen=True, eq=False)
class _GridBands:
    """Channel-independent bands for one workspace.

    ``s_band``, ``t_band`` (1/2 <B'|B'>) and ``r2_band`` (<B|1/r^2|B>) are
    shared by every channel on the grid and therefore read-only.
    """

    s_band: np.ndarray
    t_band: np.ndarray
    r2_band: np.ndarray


def _gram(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-interval blocks sum_q weights[iv, q] table[iv, q, a] table[iv, q, b]."""
    return np.matmul(table.transpose(0, 2, 1) * weights[:, None, :], table)


@lru_cache(maxsize=16)
def _grid_bands(ws: Workspace) -> _GridBands:
    """Build (and memoise) the grid-only bands; the workspace hashes by identity."""
    def shared(local: np.ndarray) -> np.ndarray:
        band = _band_sum(local, ws.basis.n_active)
        band.setflags(write=False)
        return band

    tables = ws.tables
    w, r = ws.quad.weights, ws.quad.nodes
    return _GridBands(
        s_band=shared(_gram(w, tables.values)),
        t_band=shared(_gram(0.5 * w, tables.derivs)),
        r2_band=shared(_gram(w / (r * r), tables.values)),
    )


def assemble(
    ws: Workspace, atom: AtomSpec, l: int, model: Pseudopotential
) -> OperatorPair:
    """Assemble the banded (H, S) pair for one angular-momentum channel.

    H = T + <V> + l(l+1)/2 R2: only the potential term is integrated per
    channel; S, T and R2 are built once per workspace and shared (read-only).
    """
    if l < 0:
        raise ValueError("l must be non-negative")

    grid = _grid_bands(ws)
    wv = ws.quad.weights * potential_value(model, ws.quad.nodes, atom, l)
    h_band = grid.t_band + _band_sum(_gram(wv, ws.tables.values), ws.basis.n_active)
    if l > 0:
        h_band += 0.5 * l * (l + 1) * grid.r2_band
    return OperatorPair(h_band=h_band, s_band=grid.s_band)


@dataclass(frozen=True, eq=False)
class _SeedRestriction:
    """Galerkin restriction A -> P^T A P onto the seed space of one workspace.

    P holds the active seed splines' coefficients in the active splines
    (bsplines._seed_space): row i is ``values[i]`` in columns first[i] + a,
    a < k. first starts at 0 and rises by 0 or 1 from row to row, as each
    seed knot is a knot of the basis, so rows i - bw .. i + bw of P lie in
    columns first[i] - reach .. first[i] + reach + k - 1.
    ``spread[i, bw + d, c]`` is P[i + d, first[i] - reach + c], which makes
    (A P)[i, first[i] - reach + c] = sum_d A[i, i + d] spread[i, bw + d, c]
    one small matrix product per row. ``starts`` are the first rows of the
    runs of equal first[i]; run r has first[i] = r. Seed indices count all
    seed splines; the two boundary ones have no coefficients and are
    dropped from the result.
    """

    values: np.ndarray
    spread: np.ndarray
    starts: np.ndarray
    reach: int
    n_seed: int

    def restrict(self, band: np.ndarray) -> np.ndarray:
        """P^T A P in upper-banded layout, for A in upper-banded layout."""
        bw, k = band.shape[0] - 1, self.values.shape[1]
        neighbours = band_to_general(band).T  # [i, bw + d] = A[i, i + d]
        image = np.matmul(neighbours[:, None, :], self.spread)[:, 0, :]
        image = np.pad(image, ((0, 0), (0, bw)))
        windows = sliding_window_view(image, bw + 1, axis=1)[:, self.reach : self.reach + k]
        # [i, a, e] = P[i, j] (A P)[i, j + e] at j = first[i] + a, summed
        # over each run of rows that share first[i]
        runs = np.add.reduceat(self.values[:, :, None] * windows, self.starts)
        rows = np.zeros((self.n_seed, bw + 1))  # [j, e] = (P^T A P)[j, j + e]
        for a in range(k):
            rows[a : a + len(self.starts)] += runs[:, a]
        full = np.zeros((bw + 1, self.n_seed))
        for e in range(bw + 1):
            full[bw - e, e:] = rows[: self.n_seed - e, e]
        return full[:, 1:-1].copy()


@lru_cache(maxsize=16)
def _seed_restriction(ws: Workspace) -> _SeedRestriction:
    """Build (and memoise) the restriction onto the seed space of ``ws``."""
    first, values, n_seed = _seed_space(ws.basis)
    first, values = first[1:-1], values[1:-1]  # the active splines
    k = values.shape[1]
    columns = first[:, None] + np.arange(k)
    values = np.where((columns >= 1) & (columns <= n_seed - 2), values, 0.0)
    n, bw = values.shape[0], k - 1

    reach = int(np.max(first[bw:] - first[:-bw]))
    spread = np.zeros((n, 2 * bw + 1, 2 * reach + k))
    for d in range(-bw, bw + 1):
        rows = np.arange(max(0, -d), min(n, n - d))
        window = (reach + first[rows + d] - first[rows])[:, None] + np.arange(k)
        spread[rows[:, None], bw + d, window] = values[rows + d]
    starts = np.flatnonzero(np.diff(first, prepend=-1))
    for shared in (values, spread, starts):
        shared.setflags(write=False)
    return _SeedRestriction(values=values, spread=spread, starts=starts, reach=reach,
                            n_seed=n_seed)


@lru_cache(maxsize=16)
def _seed_overlap(ws: Workspace) -> np.ndarray:
    """The overlap restricted to the seed space, shared (read-only) like S."""
    band = _seed_restriction(ws).restrict(_grid_bands(ws).s_band)
    band.setflags(write=False)
    return band


def _seed_pair(ws: Workspace, pair: OperatorPair) -> OperatorPair:
    """``pair``, assembled on ``ws``, restricted to the seed space: the same
    channel on the splines of every bsplines._SEED_STRIDE-th breakpoint,
    without a second assembly. Its eigenvalues are upper bounds of the
    pair's (Courant-Fischer) and seed its solve (eigensolve, step 1)."""
    return OperatorPair(h_band=_seed_restriction(ws).restrict(pair.h_band),
                        s_band=_seed_overlap(ws))


def band_to_general(band: np.ndarray) -> np.ndarray:
    """Both triangles of a symmetric upper band, ``rows[bw + d, j] = A[j + d, j]``
    for d in [-bw, bw]: LAPACK's general band layout with kl = ku = bw."""
    bw, n = band.shape[0] - 1, band.shape[1]
    rows = np.zeros((2 * bw + 1, n), dtype=band.dtype)
    for d in range(bw + 1):
        rows[bw - d, d:] = band[bw - d, d:]
        rows[bw + d, : n - d] = band[bw - d, d:]
    return rows


def band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply a symmetric upper-banded matrix by a vector, or by each row
    of a stack of vectors, in the precision of ``x``."""
    bw, n = band.shape[0] - 1, band.shape[1]
    padded = np.zeros(x.shape[:-1] + (n + 2 * bw,), dtype=np.result_type(band, x))
    padded[..., bw : bw + n] = x
    windows = sliding_window_view(padded, 2 * bw + 1, axis=-1)  # [..., i, o] = x[i + o - bw]
    return np.einsum("...io,oi->...i", windows, band_to_general(band))
