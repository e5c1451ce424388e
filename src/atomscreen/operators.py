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

from .bsplines import KnotBasis, Workspace
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


@dataclass(frozen=True, eq=False)
class _BandScatter:
    """Precomputed map from per-interval k-by-k blocks to the trimmed band.

    Local block (iv, a, b) couples global splines iv+a and iv+b; active
    (trimmed) indices are the global ones shifted down by one, with the
    first and last spline discarded. Entries run over a, then the offset
    d = b - a, then iv, so each band cell sums its terms in ascending a.
    """

    band_index: np.ndarray
    local_index: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def for_basis(cls, basis: KnotBasis) -> "_BandScatter":
        k, n_iv = basis.order_k, basis.n_intervals
        dim, bw = basis.n_active, basis.order_k - 1
        band_index, local_index = [], []
        for a in range(k):
            for d in range(k - a):
                b = a + d
                iv = np.arange(max(0, 1 - a), min(n_iv - 1, basis.n_splines - 2 - b) + 1)
                band_index.append((bw - d) * dim + iv + b - 1)
                local_index.append((iv * k + a) * k + b)
        return cls(np.concatenate(band_index), np.concatenate(local_index), (k, dim))

    def __call__(self, local: np.ndarray) -> np.ndarray:
        """Accumulate blocks of shape (n_intervals, k, k) into the upper band."""
        band = np.bincount(
            self.band_index,
            weights=local.ravel()[self.local_index],
            minlength=self.shape[0] * self.shape[1],
        )
        return band.reshape(self.shape)


@dataclass(frozen=True, eq=False)
class _GridBands:
    """Channel-independent parts of the pair for one workspace.

    ``s_band``, ``t_band`` (1/2 <B'|B'>) and ``r2_band`` (<B|1/r^2|B>) are
    shared by every channel on the grid and therefore read-only.
    """

    scatter: _BandScatter
    s_band: np.ndarray
    t_band: np.ndarray
    r2_band: np.ndarray


def _gram(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-interval blocks sum_q weights[iv, q] table[iv, q, a] table[iv, q, b]."""
    return np.matmul(table.transpose(0, 2, 1) * weights[:, None, :], table)


@lru_cache(maxsize=16)
def _grid_bands(ws: Workspace) -> _GridBands:
    """Build (and memoise) the grid-only bands; the workspace hashes by identity."""
    scatter = _BandScatter.for_basis(ws.basis)

    def shared(local: np.ndarray) -> np.ndarray:
        band = scatter(local)
        band.setflags(write=False)
        return band

    tables = ws.tables
    w, r = ws.quad.weights, ws.quad.nodes
    return _GridBands(
        scatter=scatter,
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
    h_band = grid.t_band + grid.scatter(_gram(wv, ws.tables.values))
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
