"""Galerkin assembly of the radial Hamiltonian/overlap pair for one channel.

The reduced radial problem for angular momentum l is

    H[i,j] = 1/2 * int B_i' B_j' dr + int B_i B_j (l(l+1)/(2 r^2) + V(r)) dr
    S[i,j] = int B_i B_j dr

with the kinetic term integrated by parts (boundary terms vanish because the
boundary splines are trimmed). Matrices are stored in symmetric upper-banded
layout, ``band[bw - d, j] = A[j - d, j]`` with bandwidth bw = order_k - 1,
the same convention scipy's banded routines use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bsplines import Workspace
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
