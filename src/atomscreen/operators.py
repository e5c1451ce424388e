"""Galerkin assembly of the radial Hamiltonian/overlap pair for one channel.

The reduced radial problem for angular momentum l is

    H[i,j] = 1/2 * int B_i' B_j' dr + int B_i B_j (l(l+1)/(2 r^2) + V(r)) dr
    S[i,j] = int B_i B_j dr

with the kinetic term integrated by parts (boundary terms vanish because the
boundary splines are trimmed). Every model potential is V(r) = -q/r +
a f_Z(r)/r (model.potential_terms), and f_Z = model.screening_factor tends
to 1, so H is the Coulomb H of the asymptotic charge q - a plus a core band,

    H = T + l(l+1)/2 R2 - (q - a) R1 + a D_Z,

with T = 1/2 <B'|B'>, R2 = <B|1/r^2|B>, R1 = <B|1/r|B> and D_Z =
<B|(f_Z - 1)/r|B>. No channel integrates anything: every band is built and
held by the workspace (bsplines.Workspace), the grid-only S, T, R2 and R1
with it and each D_Z on first use (Workspace.screening_band), so this
module keeps no state. The workspace keeps D_Z only up to its last column
that reads an interval where f_Z is not 1.0; every later column is 0.0.

One band sum (``_channel_pair``) serves any workspace. ``assemble`` runs it
on the channel's workspace; the seed pair, the same band sum on the seed
workspace (bsplines.Workspace.seed), the channel on every fourth
breakpoint integrated by that grid's own Gauss rule, seeds the eigensolver
at a fraction of the cost of seeding on the pair itself (spectra._seeds). It calls ``_channel_pair`` directly, so
a channel solve calls ``assemble`` once.

Every band is in LAPACK's general band layout, both triangles written
(bsplines._grid_band), so every LU, band product and inertia count of the
eigensolver reads the bands as they are. ``general_matvec`` multiplies in
this layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bsplines import Workspace
from .model import AtomSpec, Pseudopotential, potential_terms

__all__ = [
    "OperatorPair",
    "assemble",
    "general_matvec",
]


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Banded Hamiltonian and overlap (H, S) of one channel, or of any
    pencil given by its bands.

    Both bands are in general band layout (bsplines._grid_band); a pair
    refuses bands of different shapes, an even row count or lower rows
    that do not mirror the upper ones.
    """

    h_band: np.ndarray
    s_band: np.ndarray

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


def _channel_pair(ws: Workspace, atom: AtomSpec, l: int, model: Pseudopotential) -> OperatorPair:
    """The channel's H = T + l(l+1)/2 R2 - (q - a) R1 + a D_Z, summed from
    the bands of ``ws``, with the shared S of ``ws``.

    a D_Z is added only into H's leading columns, those of its head
    (bsplines.Workspace.screening_band), since its later columns are 0.0.
    An unscreened channel (a = 0) sums T - q R1, as q - 0.0 is q."""
    charge, screening = potential_terms(model, atom, l)
    centrifugal = 0.5 * l * (l + 1)
    h_band = ws.t_band - (charge - screening) * ws.r1_band
    if screening:
        head = ws.screening_band(atom.Z)
        h_band[:, : head.shape[1]] += screening * head
    if centrifugal:
        h_band += centrifugal * ws.r2_band
    return OperatorPair(h_band=h_band, s_band=ws.s_band)


def assemble(
    ws: Workspace, atom: AtomSpec, l: int, model: Pseudopotential
) -> OperatorPair:
    """Assemble the banded (H, S) pair for one angular-momentum channel.

    H = T + l(l+1)/2 R2 - (q - a) R1 + a D_Z: a sum of the workspace's bands
    (module docstring); S is shared (read-only).
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    return _channel_pair(ws, atom, l, model)


def general_matvec(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply a symmetric matrix in general band layout (bsplines._grid_band)
    by a vector, or by each row of a stack of vectors, in their common
    precision. Column j of ``rows`` is read as row j of the matrix, which
    is column j only because the matrix is symmetric."""
    bw, n = (rows.shape[0] - 1) // 2, rows.shape[1]
    padded = np.zeros(x.shape[:-1] + (n + 2 * bw,), dtype=np.result_type(rows, x))
    padded[..., bw : bw + n] = x
    windows = as_strided(  # [..., i, o] = x[i + o - bw]
        padded, x.shape[:-1] + (n, 2 * bw + 1), padded.strides + padded.strides[-1:],
        writeable=False,
    )
    return np.einsum("...io,oi->...i", windows, rows)
