"""Lowest eigenpairs of the symmetric-definite banded pencil H c = eps S c.

Method: banded Cholesky S = R^T R, banded triangular solves to form the
standard matrix C = R^-T H R^-1, tridiagonal reduction with bisection and
inverse iteration for the lowest k eigenpairs (LAPACK evx path), then
back-substitution to recover S-orthonormal vectors.

The transformed problem carries the full spectral range of the pencil, which
for radial grids with very small first intervals reaches ~1e8 hartree; the
dense solver's absolute eigenvalue error scales with that range. Each
returned eigenvalue is therefore replaced by the Rayleigh quotient of its
vector evaluated directly on the banded pair, which restores accuracy near
machine precision for the low states (verified against the analytic Coulomb
spectrum in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .operators import OperatorPair, band_matvec, band_to_dense

__all__ = [
    "EigensolverError",
    "DegenerateSpectrumError",
    "EigenSolution",
    "solve_lowest",
    "RESIDUAL_TOL",
    "DEGENERACY_TOL",
]

#: Acceptance threshold on ||H c - eps S c|| / ||H||_1 per eigenpair.
RESIDUAL_TOL = 1e-10
#: Two eigenvalues closer than this signal an unexpected degeneracy.
DEGENERACY_TOL = 1e-12


class EigensolverError(RuntimeError):
    """Factorization or convergence failure in the generalized eigensolve."""


class DegenerateSpectrumError(EigensolverError):
    """Two eigenvalues coincide within DEGENERACY_TOL; radial channels
    should have simple spectra, so this flags a broken operator pair."""


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Converged lowest eigenpairs, ascending, S-orthonormal vectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    count: int


def solve_lowest(pair: OperatorPair, k_states: int) -> EigenSolution:
    """Compute the k_states algebraically smallest eigenpairs of (H, S)."""
    dim = pair.dimension
    if not 1 <= k_states <= dim:
        raise ValueError(f"k_states must lie in [1, {dim}]")

    try:
        chol = sla.cholesky_banded(pair.s_band, lower=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"overlap matrix is not positive definite: {exc}") from exc

    h_dense = band_to_dense(pair.h_band)
    half, info = lapack.dtbtrs(chol, h_dense, uplo="U", trans="T")
    if info != 0:
        raise EigensolverError(f"triangular solve failed (info={info})")
    c_std, info = lapack.dtbtrs(chol, np.asfortranarray(half.T), uplo="U", trans="T")
    if info != 0:
        raise EigensolverError(f"triangular solve failed (info={info})")
    c_std = 0.5 * (c_std + c_std.T)

    raw_vals, raw_vecs = sla.eigh(c_std, subset_by_index=(0, k_states - 1), driver="evx")
    vectors, info = lapack.dtbtrs(chol, raw_vecs, uplo="U", trans="N")
    if info != 0:
        raise EigensolverError(f"back substitution failed (info={info})")

    h_norm1 = np.abs(h_dense).sum(axis=0).max()
    eigenvalues = np.empty(k_states)
    residuals = np.empty(k_states)
    for j in range(k_states):
        c = vectors[:, j]
        sc = band_matvec(pair.s_band, c)
        norm = np.sqrt(c @ sc)
        c /= norm
        sc /= norm
        hc = band_matvec(pair.h_band, c)
        eigenvalues[j] = c @ hc
        residuals[j] = np.linalg.norm(hc - eigenvalues[j] * sc) / h_norm1

    if k_states > 1:
        min_gap = np.diff(eigenvalues).min()
        if min_gap < DEGENERACY_TOL:
            raise DegenerateSpectrumError(
                f"eigenvalues not simple/ascending: min gap {min_gap:.3e}"
            )
    worst = residuals.max()
    if worst > RESIDUAL_TOL:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {RESIDUAL_TOL:.1e}"
        )
    return EigenSolution(
        eigenvalues=eigenvalues,
        vectors=vectors,
        residual_norms=residuals,
        count=k_states,
    )
