"""A finite-difference reference for the radial levels, independent of the
B-spline discretisation.

It shares nothing with ``bsplines`` or ``operators``: of the package it
reads only the model's potential, V(r) = -q/r + a f_Z(r)/r
(model.potential_terms and model.screening_factor).

With x = ln r and y = r^(1/2) u, the radial equation
-1/2 y'' + (l(l+1)/(2 r^2) + V) y = eps y becomes

    -1/2 u'' + (r^2 V + 1/2 (l + 1/2)^2) u = eps r^2 u,

in which the r^s behaviour of y near the origin, the central model's core
included, is a plain exponential in x. Second-order central differences on
a uniform x grid from r_min to r_max, with u = 0 at both ends, give a
symmetric tridiagonal pencil A - eps M: A = diag(2 beta + c) with -beta
beside the diagonal, beta = 1/(2 h^2), c = r^2 V + 1/2 (l + 1/2)^2, and
M = diag(r^2). Its levels are found by Sturm counts (Sylvester's law on the
LDL^T pivots of A - eps M) and multisection, then extrapolated to h = 0
(Richardson, over h, h/2, h/4, ...).

The pivots are carried as d_i = beta + g_i, with
g_i = e_i + beta g_(i-1) / (g_(i-1) + beta) and e = c - eps r^2. Where the
solution is smooth g is far below beta, and this form keeps it to full
relative precision; the pivots themselves, of order beta, would lose about
log10(beta) digits to cancellation, which floors the extrapolated levels
near 1e-11 hartree instead of 1e-14.

Two more traps: the pencil is never symmetrised to M^-1/2 A M^-1/2, whose
entries span many orders of magnitude near r_min, so a tridiagonal
eigensolver on it loses every digit; and the wall at r_min shifts each
level by about 1/2 y'(0)^2 r_min, which is linear in r_min and invisible to
the extrapolation in h, so r_min is 1e-15.
"""

from __future__ import annotations

import numpy as np

from atomscreen.model import potential_terms, screening_factor

#: Inner wall of the box; its shift of the levels is ~r_min.
R_MIN = 1e-15
#: Shifts per Sturm multisection round, and the rounds.
SHIFTS, ROUNDS = 256, 7


def _pencil(charge: float, screening: float, z: int, l: int, r_max: float, n: int):
    """(c, r^2, beta) of A - eps M on the n - 1 interior points of n uniform
    intervals in x = ln r."""
    x, h = np.linspace(np.log(R_MIN), np.log(r_max), n + 1, retstep=True)
    r = np.exp(x[1:-1])
    r2v = -charge * r
    if screening:
        r2v = r2v + screening * r * screening_factor(r, z)
    return r2v + 0.5 * (l + 0.5) ** 2, r * r, 0.5 / (h * h)


def _count_below(c: np.ndarray, m: np.ndarray, beta: float, shifts: np.ndarray) -> np.ndarray:
    """Levels of the pencil below each shift (any array shape): the pivots
    d = beta + g <= 0 of A - shift M. The first row has no coupling above
    (g = +inf before it); a zero pivot is read as -0, so the next is +inf."""
    count = np.zeros(shifts.shape, dtype=int)
    g = np.full(shifts.shape, np.inf)
    with np.errstate(divide="ignore"):
        for ci, mi in zip(c, m):
            g = (ci - shifts * mi) + beta / (1.0 + beta / g)
            count += g <= -beta
    return count


def _levels(c, m, beta, count: int, lower: float, upper: float) -> np.ndarray:
    """The ``count`` lowest levels, all inside (lower, upper), each
    bracketed by SHIFTS shifts a round; all levels share each recurrence."""
    below_lower, below_upper = _count_below(c, m, beta, np.array([lower, upper]))
    if below_lower > 0 or below_upper < count:
        raise ValueError("the bracket does not hold the levels asked for")
    index = np.arange(count)
    steps = np.arange(1, SHIFTS + 1) / (SHIFTS + 1)
    lo, hi = np.full(count, lower), np.full(count, upper)
    for _ in range(ROUNDS):
        shifts = lo[:, None] + (hi - lo)[:, None] * steps  # row j brackets level j
        # the number of shifts in row j with at most j levels below them
        first = (_count_below(c, m, beta, shifts) <= index[:, None]).sum(axis=1)
        lo = np.where(first > 0, shifts[index, np.maximum(first - 1, 0)], lo)
        hi = np.where(first < SHIFTS, shifts[index, np.minimum(first, SHIFTS - 1)], hi)
    return 0.5 * (lo + hi)


def fd_levels(model, atom, l: int, count: int, r_max: float = 200.0, n0: int = 1000,
              grids: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` lowest levels of one channel (hartree), extrapolated to
    h = 0 from ``grids`` >= 2 nested grids of n0, 2 n0, 4 n0, ... intervals,
    and the size of the last extrapolation step, an estimate of their error."""
    charge, screening = potential_terms(model, atom, l)
    lower = -2.0 * (abs(charge) + abs(screening)) ** 2 - 1.0
    column = [_levels(*_pencil(charge, screening, atom.Z, l, r_max, n0 << g), count, lower, 0.0)
              for g in range(grids)]
    for k in range(1, grids):  # column k of the Richardson tableau drops the h^(2k) term
        factor, previous = 4.0**k, column[-1]
        column = [(factor * fine - coarse) / (factor - 1.0)
                  for coarse, fine in zip(column, column[1:])]
    return column[0], np.abs(column[0] - previous)
