"""Galerkin assembly of the radial Hamiltonian/overlap pair for one channel.

The reduced radial problem for angular momentum l is

    H[i,j] = 1/2 * int B_i' B_j' dr + int B_i B_j (l(l+1)/(2 r^2) + V(r)) dr
    S[i,j] = int B_i B_j dr

with the kinetic term integrated by parts (boundary terms vanish because the
boundary splines are trimmed). Every model potential is V(r) = -q/r +
a f_Z(r)/r (model.potential_terms), so H is a sum of grid bands,

    H = T + l(l+1)/2 R2 - q R1 + a W_Z,

with T = 1/2 <B'|B'>, R2 = <B|1/r^2|B>, R1 = <B|1/r|B>, W_Z = <B|f_Z/r|B>
and f_Z = model.screening_factor. No channel integrates anything. Each band
is built on first use, memoised and shared read-only:

* per workspace: S, T, R2 and R1 (``_grid_bands``);
* per workspace and Z: W_Z (``_screening_band``).

The seed pair (``_seed_pair``) is the same band sum over the bands of the
seed workspace (bsplines._seed_workspace), the channel on every fourth
breakpoint; it seeds the eigensolver at a fraction of the cost of seeding
on the pair itself.

Every band is stored in LAPACK's general band layout with kl = ku = bw,
``band[bw + d, j] = A[j + d, j]`` for d in [-bw, bw] and bandwidth
bw = order_k - 1: 2 bw + 1 rows, the lower bw mirroring the upper bw.
``_band_sum`` writes both triangles once per memoised band, so every
LU, band product and inertia count of the eigensolver reads the bands as
they are. The top bw + 1 rows are scipy's (and dsbgvx's) upper banded
form. ``general_matvec`` multiplies in this layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bsplines import Workspace, _seed_workspace
from .model import AtomSpec, Pseudopotential, potential_terms, screening_factor

__all__ = [
    "OperatorPair",
    "assemble",
    "general_matvec",
]


@dataclass(frozen=True)
class _Terms:
    """Coefficients of H = T + centrifugal R2 - charge R1 + screening W_z."""

    centrifugal: float
    charge: float
    screening: float
    z: int


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Banded Hamiltonian and overlap for one (atom, l, model) channel.

    Both bands are in general band layout (module docstring); a pair
    refuses bands of different shapes, an even row count or lower rows
    that do not mirror the upper ones. ``terms`` are the coefficients of H
    in the grid bands when the pair was assembled, and None for a pair
    built directly from its bands.
    """

    h_band: np.ndarray
    s_band: np.ndarray
    terms: _Terms | None = None

    def __post_init__(self):
        if self.h_band.shape != self.s_band.shape:
            raise ValueError("h_band and s_band must have the same banded shape")
        if self.h_band.shape[0] % 2 == 0:
            raise ValueError("a general band has an odd number of rows, 2 bw + 1")
        bw, n = self.bandwidth, self.dimension
        for band in (self.h_band, self.s_band):
            for d in range(1, min(bw + 1, n)):
                if not np.array_equal(band[bw + d, : n - d], band[bw - d, d:]):
                    raise ValueError("the lower band rows must mirror the upper ones")

    @property
    def bandwidth(self) -> int:
        return (self.s_band.shape[0] - 1) // 2

    @property
    def dimension(self) -> int:
        return self.s_band.shape[1]


def _band_sum(local: np.ndarray, dim: int) -> np.ndarray:
    """Sum per-interval blocks of shape (n_intervals, k, k) into a general band.

    Local block (iv, a, b) couples global splines iv+a and iv+b; active
    (trimmed) indices are the global ones shifted down by one, with the
    first and last spline discarded. The loop runs over a, then the offset
    d = b - a, so each upper band cell sums its terms in ascending a; the
    lower rows are then copied from the upper ones.
    """
    n_iv, k = local.shape[:2]
    bw = k - 1
    band = np.zeros((2 * bw + 1, dim))
    for a in range(k):
        first = max(0, 1 - a)
        for d in range(k - a):
            b = a + d
            last = min(n_iv, dim + 1 - b)
            band[bw - d, first + b - 1 : last + b - 1] += local[first:last, a, b]
    for d in range(1, k):
        band[bw + d, : dim - d] = band[bw - d, d:]
    return band


@dataclass(frozen=True, eq=False)
class _GridBands:
    """Channel-independent bands for one workspace.

    ``s_band``, ``t_band`` (1/2 <B'|B'>), ``r2_band`` (<B|1/r^2|B>) and
    ``r1_band`` (<B|1/r|B>) are shared by every channel on the grid and
    therefore read-only.
    """

    s_band: np.ndarray
    t_band: np.ndarray
    r2_band: np.ndarray
    r1_band: np.ndarray


def _gram(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-interval blocks sum_q weights[iv, q] table[iv, q, a] table[iv, q, b]."""
    return np.matmul(table.transpose(0, 2, 1) * weights[:, None, :], table)


def _shared(band: np.ndarray) -> np.ndarray:
    band.setflags(write=False)
    return band


@lru_cache(maxsize=32)
def _grid_bands(ws: Workspace) -> _GridBands:
    """Build (and memoise) the grid-only bands of ``ws``; the workspace
    hashes by identity."""
    tables, n = ws.tables, ws.basis.n_active
    w, r = ws.quad.weights, ws.quad.nodes
    return _GridBands(
        s_band=_shared(_band_sum(_gram(w, tables.values), n)),
        t_band=_shared(_band_sum(_gram(0.5 * w, tables.derivs), n)),
        r2_band=_shared(_band_sum(_gram(w / (r * r), tables.values), n)),
        r1_band=_shared(_band_sum(_gram(w / r, tables.values), n)),
    )


@lru_cache(maxsize=128)
def _screening_band(ws: Workspace, z: int) -> np.ndarray:
    """W_z = <B|f_z(r)/r|B> with f_z = model.screening_factor, memoised per
    workspace and charge like ``_grid_bands``."""
    w, r = ws.quad.weights, ws.quad.nodes
    local = _gram(w * screening_factor(r, z) / r, ws.tables.values)
    return _shared(_band_sum(local, ws.basis.n_active))


def _hamiltonian(ws: Workspace, terms: _Terms) -> np.ndarray:
    """H summed from the grid bands of ``ws``."""
    bands = _grid_bands(ws)
    h_band = bands.t_band - terms.charge * bands.r1_band
    if terms.screening:
        h_band += terms.screening * _screening_band(ws, terms.z)
    if terms.centrifugal:
        h_band += terms.centrifugal * bands.r2_band
    return h_band


def assemble(
    ws: Workspace, atom: AtomSpec, l: int, model: Pseudopotential
) -> OperatorPair:
    """Assemble the banded (H, S) pair for one angular-momentum channel.

    H = T + l(l+1)/2 R2 - q R1 + a W_Z: a sum of memoised grid bands
    (module docstring); S is shared (read-only).
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    charge, screening = potential_terms(model, atom, l)
    terms = _Terms(centrifugal=0.5 * l * (l + 1), charge=charge, screening=screening, z=atom.Z)
    return OperatorPair(h_band=_hamiltonian(ws, terms), s_band=_grid_bands(ws).s_band,
                        terms=terms)


def _seed_pair(ws: Workspace, pair: OperatorPair) -> OperatorPair:
    """``pair``, assembled on ``ws``, as the same band sum on its seed
    workspace (bsplines._seed_workspace). Its eigenvalues are upper bounds
    of the pair's (Courant-Fischer) and seed its solve (eigensolve, step 1)."""
    if pair.terms is None:
        raise ValueError("only an assembled pair has a seed pair")
    seed = _seed_workspace(ws)
    return OperatorPair(h_band=_hamiltonian(seed, pair.terms), s_band=_grid_bands(seed).s_band)


def general_matvec(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply a symmetric matrix in general band layout (module docstring)
    by a vector, or by each row of a stack of vectors, in their common
    precision. Column j of ``rows`` is read as row j of the matrix, which
    is column j only because the matrix is symmetric."""
    bw, n = (rows.shape[0] - 1) // 2, rows.shape[1]
    padded = np.zeros(x.shape[:-1] + (n + 2 * bw,), dtype=np.result_type(rows, x))
    padded[..., bw : bw + n] = x
    windows = sliding_window_view(padded, 2 * bw + 1, axis=-1)  # [..., i, o] = x[i + o - bw]
    return np.einsum("...io,oi->...i", windows, rows)
