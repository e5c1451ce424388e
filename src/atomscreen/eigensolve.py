"""Lowest eigenpairs of the symmetric-definite banded pencil H c = eps S c.

The pencil is never densified: memory is O(n bw) per state. The pair
holds H and S in LAPACK's general band layout (bsplines._grid_band), which
every LU (H - sigma S formed as a difference of the two bands), band
product and inertia count reads as it is; dsbgvx, and the count's banded
Cholesky, read the top bw + 1 rows, the upper banded form. Step 4 makes a
long-double copy of both bands.

1. Seeds. The caller may supply ``seeds``, k + 1 estimates of the lowest
   eigenvalues from anywhere: spectra passes the closed-form Coulomb
   levels for unscreened channels, and for screened ones the ``dsbgvx``
   eigenvalues of the seed pair, the channel's band sum on the seed
   workspace (Workspace.seed), the splines of every fourth breakpoint
   with their own Gauss rule (operators._channel_pair on ws.seed), whose
   band reduction costs O(n_c^2 bw) instead of the O(n^2 bw) of one on
   (H, S). Without them,
   or if they fail below, LAPACK ``dsbgvx`` (split-Cholesky band
   reduction, reduction to tridiagonal form, bisection) gives the k + 1
   lowest eigenvalues of (H, S) itself; they carry the reduction's
   absolute error, which grows with the spectral range: ~1e-6 hartree on
   the paper grid.
2. Vectors. Inverse iteration per seed at the fixed shift sigma = seed,
   on H - sigma S LU-factored once per seed in general band storage, from
   the all-ones vector, whose S-product is formed once for every seed.
   The k factors are slots of one zeroed (k, n, 3 bw + 1) array per solve,
   each factored in place: glibc keeps one block of that size in its heap
   from solve to solve, while k separate bands (134 KB each on the paper
   grid) are trimmed and their pages faulted in again on every solve.
3. Rayleigh-Ritz on the k vectors makes them S-orthonormal.
4. Refinement, one extended-precision pass. H c and S c are formed once in
   long double, and the residuals r = H c - eps S c once for the whole
   stack; the Rayleigh quotient eps and the step are scale-invariant, so c
   is S-normalised only at the end. One step c <- c - d, with
   d = (H - sigma_seed S)^-1 r, then updates c, H c and S c: S d is one
   double-precision product, and H d = r + sigma_seed S d comes from the
   correction's own equation. d is small, so working precision suffices
   for both (mixed-precision iterative refinement). The returned
   eigenvalues and residual norms are the extended-precision Rayleigh
   quotients and residuals read from the updated products, which restores
   accuracy near machine precision for the low states (verified against
   the analytic Coulomb spectrum in the test suite); the returned double
   pairs match these norms only to one double eps (see EigenSolution). d
   is solved on step 2's factors, kept in their one array until now, so
   each seed shift is factored once per solve.
5. Guards and the "k lowest" certificate. Each eigenvalue must lie nearest
   its own seed, the spectrum must be simple and every residual small.
   Seeds from dsbgvx on (H, S) come with its Sturm count, so they are the
   k + 1 lowest; a failed guard then raises. Supplied seeds carry no count
   on (H, S), whatever their source: one inertia count of H - sigma S
   (Sylvester's law), at sigma halfway from the k-th eigenvalue to the
   (k + 1)-th seed, must find exactly k eigenvalues below sigma. The count
   runs a banded Cholesky (dpbtrf) from the top and one from the bottom
   over the runs where H - sigma S is positive definite, and a block
   LDL^T from the last block of the one run to the first block of the
   other, each of these two end blocks entering by the same rule, as the
   Gram of its block of the run's factor: on the paper grid a median 13
   of its 67 blocks. If that count, or any guard, fails on supplied seeds,
   the solve is redone from dsbgvx seeds of (H, S).

scipy exports ``dsbgvx`` only through ``scipy.linalg.cython_lapack``; it is
bound once, with ctypes, from the function pointer in that module's capsule
table.

Every product here is an ``np.einsum`` with explicit subscripts, not ``@``
or ``np.linalg.norm``: numpy's wheel bundles an OpenBLAS of its own, which
those would page in beside scipy's, the library of the LAPACK calls above
(bsplines builds the quadrature and the bands without it too). Once the
LAPACK calls move to numpy's copy (ROADMAP direction 4), ``@`` would use
the one library again.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_lapack, lapack

from .operators import OperatorPair, general_matvec

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

#: Inverse-iteration steps per seed, at most.
_MAX_STEPS = 8
#: Inverse iteration stops once ||H c - rho S c|| / ||H||_1 falls below this,
#: about 50 eps: the rounding floor of a double-precision residual.
_STEP_TOL = 1e-14
#: An inertia count is refused once a Schur complement update outgrows its
#: block of H - sigma S by this factor: the elimination would then amplify
#: rounding enough to flip a pivot's sign. Over 400 channel-scan draws on
#: the paper grid the largest growth was 4e2, the median 1.9.
_PIVOT_GROWTH_LIMIT = 1e6


class EigensolverError(RuntimeError):
    """Factorization or convergence failure in the generalized eigensolve."""


class DegenerateSpectrumError(EigensolverError):
    """Two eigenvalues coincide within DEGENERACY_TOL; radial channels
    should have simple spectra, so this flags a broken operator pair."""


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Converged lowest eigenpairs: ``eigenvalues`` ascending, and column i
    of ``vectors`` the S-orthonormal vector of eigenvalue i.

    ``residual_norms`` are those of the extended-precision iterate (step 4);
    the returned double pairs match them only to one double eps (1.1e-24
    reported, 1.8e-20 recomputed: Na central p, k = 12). Do not report them
    as the returned pairs' residuals.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray


def _bind_dsbgvx():
    """ctypes binding of the dsbgvx pointer exported by scipy's cython_lapack.

    The prototype lets ctypes convert the arguments: each array argument is
    checked for its dtype and Fortran order and passed by its data pointer,
    a ``c_int`` or ``c_double`` object by reference, and a flag as bytes.
    """
    capsule = cython_lapack.__pyx_capi__["dsbgvx"]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    char, int_, real = (ctypes.POINTER(t) for t in (ctypes.c_char, ctypes.c_int, ctypes.c_double))
    reals, ints = (np.ctypeslib.ndpointer(t, flags="F_CONTIGUOUS") for t in (np.float64, np.intc))
    signature = ctypes.CFUNCTYPE(
        None,
        char, char, char,  # jobz, range, uplo
        int_, int_, int_,  # n, ka, kb
        reals, int_, reals, int_, reals, int_,  # ab, ldab, bb, ldbb, q, ldq
        real, real, int_, int_, real,  # vl, vu, il, iu, abstol
        int_, reals, reals, int_,  # m, w, z, ldz
        reals, ints, ints, int_,  # work, iwork, ifail, info
    )
    return signature(get_pointer(capsule, get_name(capsule)))


_dsbgvx = _bind_dsbgvx()


def _sturm_seeds(pair: OperatorPair, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of the pencil, ascending (dsbgvx).

    dsbgvx reads the upper banded form, the top bw + 1 rows of each band.
    They are copied to Fortran order because dsbgvx overwrites both (and
    ``s_band`` is shared and read-only).
    """
    bw, n = pair.bandwidth, pair.dimension
    ab = np.array(pair.h_band[: bw + 1], dtype=np.float64, order="F")
    bb = np.array(pair.s_band[: bw + 1], dtype=np.float64, order="F")
    w = np.zeros(n)
    work = np.zeros(7 * n)
    iwork = np.zeros(5 * n, dtype=np.intc)
    ifail = np.zeros(n, dtype=np.intc)
    unused = np.zeros(1)  # Q and Z, not referenced when only eigenvalues are wanted
    m, info = ctypes.c_int(0), ctypes.c_int(0)
    integer, real = ctypes.c_int, ctypes.c_double
    _dsbgvx(
        b"N", b"I", b"U", integer(n), integer(bw), integer(bw),
        ab, integer(bw + 1), bb, integer(bw + 1), unused, integer(1),
        real(0.0), real(0.0), integer(1), integer(count), real(2 * np.finfo(np.float64).tiny),
        m, w, unused, integer(1), work, iwork, ifail, info,
    )
    if info.value > n:
        raise EigensolverError(
            f"overlap matrix is not positive definite (dsbgvx info={info.value})"
        )
    if info.value != 0 or m.value != count:
        raise EigensolverError(
            f"banded eigenvalue bisection failed (dsbgvx info={info.value}, m={m.value})"
        )
    return np.sort(w[:count])


def _shifted_lu(
    pair: OperatorPair, shift: float, slot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """LU factors of H - shift S in LAPACK general band storage (kl = ku = bw),
    made in ``slot``, a zeroed Fortran-ordered (3 bw + 1, n) array whose top
    bw rows take the fill-in: the slot and the pivot indices.

    An exactly zero pivot (the shift is an eigenvalue to the last bit) is
    replaced by a tiny one, as inverse iteration only needs the direction.
    """
    bw = pair.bandwidth
    shifted = slot[bw:]
    np.multiply(pair.s_band, -shift, out=shifted)
    shifted += pair.h_band  # H - shift S, with no band-sized temporary
    lu, piv, info = lapack.dgbtrf(slot, bw, bw, overwrite_ab=1)
    if info < 0:
        raise EigensolverError(f"banded LU failed (dgbtrf info={info})")
    if info > 0:
        pivots = lu[2 * bw]
        scale = np.abs(pair.h_band - shift * pair.s_band).max()
        pivots[pivots == 0.0] = np.finfo(np.float64).eps * scale
    return lu, piv


def _band_solve(pair: OperatorPair, factors, rhs: np.ndarray) -> np.ndarray:
    bw = pair.bandwidth
    x, info = lapack.dgbtrs(factors[0], bw, bw, rhs, factors[1])
    if info != 0:
        raise EigensolverError(f"banded solve failed (dgbtrs info={info})")
    return x


def _inverse_iteration(
    pair: OperatorPair, factors, s_ones: np.ndarray, h_norm1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector at the seed that ``factors`` (of H - seed S) were made at,
    and its S-product, S-normalised, double precision.

    The start vector is all ones, whose S-product ``s_ones`` every state
    shares. With (H - seed S) y = S x and y^T S y = 1, the Rayleigh quotient
    is seed + y^T S x and the residual is S x - (rho - seed) S y, so a step
    costs one banded solve and one product with S.
    """
    sx = s_ones
    for _ in range(_MAX_STEPS):
        y = _band_solve(pair, factors, sx)
        sy = general_matvec(pair.s_band, y)
        norm = np.sqrt(np.einsum("i,i->", y, sy))
        y /= norm
        sy /= norm
        image = sx / norm  # (H - seed S) y
        theta = np.einsum("i,i->", y, image)
        x, sx = y, sy
        residual = image - theta * sy
        if np.sqrt(np.einsum("i,i->", residual, residual)) <= _STEP_TOL * h_norm1:
            break
    return x, sx


def _gram(factor: np.ndarray, bw: int, p: int) -> np.ndarray:
    """U^T U, with U the diagonal block p (rows and columns p bw to
    p bw + bw - 1) of the upper Cholesky factor that dpbtrf leaves in upper
    band storage, ``factor[bw + i - j, j] = U[i, j]`` for i <= j: the Schur
    complement of block p once the blocks before it are eliminated."""
    offsets = np.arange(bw)
    lag = offsets[:, None] - offsets[None, :]
    block = np.where(lag <= 0, factor[np.minimum(bw + lag, bw), p * bw + offsets], 0.0)
    return np.einsum("ia,ib->ab", block, block)


def _count_below(pair: OperatorPair, sigma: float) -> int | None:
    """Number of eigenvalues of the pencil below ``sigma``; None if untrusted.

    By Sylvester's law of inertia this is the number of negative eigenvalues
    of A = H - sigma S, as S is positive definite; any congruent
    factorization gives it. In blocks of bw rows (A padded with identity
    rows to whole blocks) A is block tridiagonal.

    * Head and tail. A banded Cholesky (dpbtrf) of A from the top, and of
      its reversal from the bottom, runs until a leading (trailing)
      principal submatrix stops being positive definite. If either factors
      all of A, the count is 0. Otherwise the whole blocks that either run
      has factored add no negative eigenvalue and need no pivoting.
    * Middle. An unpivoted block LDL^T runs from the head's last Cholesky
      block to the tail's first one (over two blocks at least, where A has
      two). Eliminating the blocks before and after these two ends leaves
      each end block a Schur complement pivot, the Gram of its block of
      the factor: U^T U from the head, and R^T R with rows and columns
      reversed from the tail (Haynsworth's inertia additivity holds in
      either order of elimination). The count is the sum of the inertias
      of the pivots, each factored by Bunch-Kaufman (dsysv), whose 2 x 2
      blocks always have one negative eigenvalue.

    A non-finite entry, a singular pivot, or a Schur update (an end block's
    pivot minus its Gram included) that grows past _PIVOT_GROWTH_LIMIT
    times its block makes the count untrusted.
    """
    bw, n = pair.bandwidth, pair.dimension
    n_blocks = -(-n // bw)
    general = np.zeros((2 * bw + 1, n_blocks * bw))
    general[:, :n] = pair.h_band - sigma * pair.s_band
    general[bw, n:] = 1.0  # identity padding adds no negative eigenvalue
    if not np.isfinite(general).all():  # dpbtrf would take a NaN pivot as positive
        return None
    head, info = lapack.dpbtrf(general[: bw + 1])  # the upper band form
    if info == 0:
        return 0
    # rows before the failing one are factored, also by the blocked dpbtrf
    # of bandwidths past 64; the reversal of a general band is band[::-1, ::-1]
    tail, tail_info = lapack.dpbtrf(general[::-1, ::-1][: bw + 1])
    if info < 0 or tail_info < 0:
        raise EigensolverError(f"banded Cholesky failed (dpbtrf info={min(info, tail_info)})")
    head_blocks = (info - 1) // bw
    tail_blocks = n_blocks if tail_info == 0 else (tail_info - 1) // bw
    first = max(head_blocks - 1, 0)
    last = min(max(n_blocks - tail_blocks, first + 1), n_blocks - 1)

    offsets = np.arange(bw)
    lag = offsets[:, None] - offsets[None, :]
    columns = bw * np.arange(first, last + 1)[:, None, None] + offsets
    size = last - first + 1
    pivots = general[bw + lag, columns]  # [i, a, e] = A[p bw + a, p bw + e], p = first + i
    couplings = np.zeros_like(pivots)  # [i, a, e] = A[p bw + a, (p + 1) bw + e]
    couplings[:-1] = np.where(lag >= 0, general[lag.clip(0), columns[1:]], 0.0)
    limits = _PIVOT_GROWTH_LIMIT * np.abs(pivots).max(axis=(1, 2))
    # updates[i] is pivot i's Schur update, the head's pivot minus its Gram
    # at i = 0; the extra last slot holds the tail's, held to the last
    # block's limit
    updates = np.zeros((size + 1, bw, bw))
    limits = np.append(limits, limits[-1])
    if head_blocks:
        gram = _gram(head, bw, first)
        updates[0] = pivots[0] - gram
        pivots[0] = gram
    if last >= n_blocks - tail_blocks:
        gram = _gram(tail, bw, n_blocks - 1 - last)[::-1, ::-1]
        updates[-1] = pivots[-1] - gram
        pivots[-1] = gram

    diagonals = np.empty((size, bw))
    interchanges = np.empty((size, bw), dtype=np.int64)
    schur = pivots[0]
    for i in range(size):
        if i:
            updates[i] = np.einsum("ia,ib->ab", couplings[i - 1], solved)
            schur = pivots[i] - updates[i]
        factor, interchanges[i], solved, info = lapack.dsysv(schur, couplings[i])
        if info != 0:
            return None
        diagonals[i] = factor.diagonal()
    if not np.all(np.abs(updates).max(axis=(1, 2)) <= limits):  # also refuses NaN
        return None
    # dsysv marks each 2 x 2 block by two negative interchange entries
    ones = interchanges > 0
    return int(np.count_nonzero(ones & (diagonals < 0)) + np.count_nonzero(~ones) // 2)


def _require_simple(values: np.ndarray, gap: str) -> None:
    """Refuse ``values`` unless they ascend by DEGENERACY_TOL or more."""
    if len(values) > 1:
        min_gap = np.diff(values).min()
        if min_gap < DEGENERACY_TOL:
            raise DegenerateSpectrumError(f"eigenvalues not simple/ascending: {gap} {min_gap:.3e}")


def _refined_pairs(pair: OperatorPair, k_states: int, seeds: np.ndarray) -> EigenSolution:
    """Steps 2-5 from ``seeds``: k_states + 1 estimates of the lowest
    eigenvalues, or all n of them when k_states = n."""
    shifts = seeds[:k_states]
    _require_simple(shifts, "min seed gap")

    h_norm1 = np.abs(pair.h_band).sum(axis=0).max()  # column sums: the 1-norm
    s_ones = pair.s_band.sum(axis=0)  # S 1, as S is symmetric
    # one block for the k factors, kept until step 4 (module docstring, step 2)
    stack = np.zeros((k_states, pair.dimension, 3 * pair.bandwidth + 1))
    slots = stack.transpose(0, 2, 1)  # slot j is (3 bw + 1, n), Fortran-ordered
    factors = [_shifted_lu(pair, seed, slot) for seed, slot in zip(shifts, slots)]
    rows = [_inverse_iteration(pair, lu, s_ones, h_norm1) for lu in factors]
    vectors = np.array([row[0] for row in rows])
    s_vectors = np.array([row[1] for row in rows])
    h_vectors = general_matvec(pair.h_band, vectors)
    h_ritz = np.einsum("in,jn->ij", vectors, h_vectors)
    s_ritz = np.einsum("in,jn->ij", vectors, s_vectors)
    try:
        _, rotation = sla.eigh(0.5 * (h_ritz + h_ritz.T), 0.5 * (s_ritz + s_ritz.T))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"Rayleigh-Ritz step failed: {exc}") from exc
    vectors = np.einsum("ji,jn->in", rotation, vectors)

    # Rayleigh quotients and corrections are scale-invariant, so the rows
    # are S-normalised once, after the correction.
    vectors = vectors.astype(np.longdouble)
    hc = general_matvec(pair.h_band.astype(np.longdouble), vectors)
    sc = general_matvec(pair.s_band.astype(np.longdouble), vectors)
    values = np.einsum("ij,ij->i", vectors, hc) / np.einsum("ij,ij->i", vectors, sc)
    rhs = (hc - values[:, None] * sc).astype(np.float64)  # the residuals r
    # The corrections reuse step 2's factors, so the solve holds k (3 bw + 1) n
    # doubles of them: 1.6 MB on the paper grid at k = 12. The CLI refuses a
    # k above the channel's count of negative levels (on the paper grid 12
    # for bare H s, 43 for bare Mg s, 127 for bare Z = 100 s), which keeps a
    # request far below the ~80 MB that k = n = 598 would hold.
    corrections = np.array([_band_solve(pair, lu, r) for lu, r in zip(factors, rhs)])
    s_corrections = general_matvec(pair.s_band, corrections)
    vectors -= corrections
    hc -= rhs + shifts[:, None] * s_corrections  # H d, as (H - shift S) d = r
    sc -= s_corrections
    squared_norms = np.einsum("ij,ij->i", vectors, sc)
    values = np.einsum("ij,ij->i", vectors, hc) / squared_norms
    residual = hc
    residual -= values[:, None] * sc
    norms = np.sqrt(squared_norms)
    vectors /= norms[:, None]
    eigenvalues = values.astype(np.float64)
    residuals = np.sqrt(np.einsum("ij,ij->i", residual, residual)) / (norms * h_norm1)
    residuals = residuals.astype(np.float64)

    nearest = np.abs(eigenvalues[:, None] - seeds[None, :]).argmin(axis=1)
    strays = np.flatnonzero(nearest != np.arange(k_states))
    if strays.size:
        j = strays[0]
        raise EigensolverError(
            f"state {j} converged to {eigenvalues[j]:.12g}, nearest the seed of state {nearest[j]}"
        )
    _require_simple(eigenvalues, "min gap")
    worst = residuals.max()
    if not worst <= RESIDUAL_TOL:  # also refuses NaN
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {RESIDUAL_TOL:.1e}"
        )
    return EigenSolution(
        eigenvalues=eigenvalues,
        vectors=np.ascontiguousarray(vectors.T, dtype=np.float64),
        residual_norms=residuals,
    )


def solve_lowest(
    pair: OperatorPair, k_states: int, seeds: np.ndarray | None = None
) -> EigenSolution:
    """Compute the k_states algebraically smallest eigenpairs of (H, S).

    ``seeds`` are k_states + 1 ascending estimates of the lowest
    eigenvalues of (H, S), from any source, such as a coarser nested spline
    space or a closed form. An inertia count on (H, S) certifies the result
    they give (module docstring, step 5). Any other count of seeds is
    refused. Without seeds, or if any check fails, the seeds come from
    (H, S) itself.
    """
    dim = pair.dimension
    if not 1 <= k_states <= dim:
        raise ValueError(f"k_states must lie in [1, {dim}]")

    if seeds is not None:
        if len(seeds) != k_states + 1:
            raise ValueError(f"seeds must hold k_states + 1 = {k_states + 1} values,"
                             f" got {len(seeds)}")
        seeds = np.asarray(seeds, dtype=np.float64)
        try:
            solution = _refined_pairs(pair, k_states, seeds)
        except EigensolverError:
            pass
        else:
            last = solution.eigenvalues[-1]
            if _count_below(pair, last + 0.5 * (seeds[-1] - last)) == k_states:
                return solution
    # one seed past the k-th gives the last state a neighbour in the nearest-seed guard
    return _refined_pairs(pair, k_states, _sturm_seeds(pair, min(k_states + 1, dim)))
