"""B-spline radial basis: knot generation, evaluation, quadrature.

The radial box [0, r_max] is partitioned into breakpoints carrying an
order-k clamped knot sequence. The first and last spline are dropped to
enforce zero boundary values, leaving ``n_splines - 2`` active functions.
Gauss-Legendre nodes on every breakpoint interval stay strictly interior,
so integrands singular at r = 0 are never sampled there. The rule is found
by Newton's iteration on the Legendre series (``_gauss_legendre``), not as
the eigenvalues of a matrix, and every band is an elementwise contraction
(``_grid_band``), so building a workspace calls no BLAS or LAPACK routine.
One Cox-de Boor routine (``_values_and_derivs``) evaluates the splines
everywhere: the design tables of both workspaces, the leading intervals of
each screening band and ``eval_bspline``. Its derivatives are differences of
the quotients of the order k - 1 splines by their knot widths (de Boor); each
width contains the span it is read on, so none is 0.

A workspace (``Workspace``) holds every band of its grid, and this module
builds all of them (``_grid_band``), in LAPACK's general band layout. One
private builder (``_workspace``) builds the basis, the quadrature and the
four grid-only bands S, T, R2 and R1 that every channel on the grid sums
(operators). The tables of ``design_tables`` are read only inside the
build, the derivatives for T and the values for the other three, and are
dropped before the workspace is returned, so a workspace holds no spline
table. The core band D_Z = <B|(f_Z - 1)/r|B> of each Z is built on first
use (``Workspace.screening_band``): its integrand is 0.0 at every node
beyond the last interval where f_Z is not 1.0, so the splines are evaluated
again only up to that interval, and the workspace keeps only the leading
columns that read it, and frees them with itself. A screened channel's
W_Z = <B|f_Z/r|B> is R1 + D_Z (operators).

Each workspace owns its seed workspace (``Workspace.seed``): the same order
on every fourth breakpoint, with the same node count per interval, built
like any workspace by the same builder. Its splines lie in the workspace's
spline space, so the eigenvalues of a channel assembled on it lie close
to the workspace's and seed its solve (eigensolve, step 1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import legendre

from .model import screening_factor

__all__ = [
    "GridSpec",
    "PAPER_GRID",
    "KnotBasis",
    "QuadratureRule",
    "Workspace",
    "make_knots",
    "eval_bspline",
    "make_quadrature",
    "design_tables",
    "build_workspace",
]

#: Fraction of the intervals a pure geometric progression would need to reach
#: r_max; fixes the growth ratio of the exp-linear grid (see make_knots).
_GEOMETRIC_BUDGET_FRACTION = 2.0 / 3.0
#: Largest exponent ln(q**steps) the geometric sum evaluates directly.
_LOG_POWER_LIMIT = 700.0
#: Spline orders the basis supports, inclusive.
_ORDER_RANGE = (2, 15)
#: The seed space keeps every _SEED_STRIDE-th breakpoint of the basis.
_SEED_STRIDE = 4
#: Newton steps the Gauss-Legendre rule takes at most. Up to n = 141 every
#: node settles within 5; from n = 142 the rounding of P_n can keep a node
#: near 0 moving by a few ulp, and the limit ends the iteration.
_NEWTON_STEP_LIMIT = 16


@dataclass(frozen=True)
class GridSpec:
    """Hashable bundle of every numerical-grid parameter.

    ``nodes_per_interval`` is the Gauss-Legendre node count per breakpoint
    interval; None (the default) means ``order_k``. A rule of k nodes is
    exact to degree 2k - 1, so the overlap S (degree 2k - 2) and the
    kinetic band T (degree 2k - 4) are exact at k nodes, and only the
    1/r-type bands are approximate. ``build_workspace`` resolves the value,
    so ``replace(grid, order_k=12)`` of a default grid has 12 nodes, and a
    grid with the default and one naming order_k nodes share one workspace.
    """

    n_splines: int = 600
    order_k: int = 10
    r_max: float = 200.0
    knot_kind: str = "exp-linear"
    r_first: float = 1e-4
    nodes_per_interval: int | None = None


#: Default configuration used by all table reproduction runs.
PAPER_GRID = GridSpec()


@dataclass(frozen=True, eq=False)
class KnotBasis:
    """Clamped order-k B-spline basis on its ``breakpoints``.

    ``breakpoints`` are the distinct radii, strictly increasing from 0 to
    r_max; they and ``order_k`` fix the rest. ``knots`` repeat both
    endpoints order_k times, which gives len(breakpoints) + order_k - 2
    splines. Active basis functions are indices 1 .. n_splines - 2
    (boundary splines trimmed).
    """

    order_k: int
    breakpoints: np.ndarray
    knots: np.ndarray = field(init=False)

    def __post_init__(self):
        k, bp = self.order_k, self.breakpoints
        knots = np.concatenate([np.zeros(k - 1), bp, np.full(k - 1, bp[-1])])
        object.__setattr__(self, "knots", knots)

    @property
    def n_splines(self) -> int:
        return len(self.breakpoints) + self.order_k - 2

    @property
    def r_max(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def n_intervals(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def active_range(self) -> range:
        return range(1, self.n_splines - 1)

    @property
    def n_active(self) -> int:
        return self.n_splines - 2


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Per-interval Gauss-Legendre nodes and weights, shape (n_intervals, nq)."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class Workspace:
    """One fully built grid: its basis and quadrature and the grid bands
    every channel on it sums.

    The bands are ``s_band`` (<B|B>), ``t_band`` (1/2 <B'|B'>), ``r2_band``
    (<B|1/r^2|B>) and ``r1_band`` (<B|1/r|B>), each in general band layout
    (``_grid_band``), and one ``screening_band(z)`` per Z: the leading
    columns of D_z = W_z - R1, whose later columns are 0.0. All of them are
    read-only and shared by every channel on the grid. The workspace keeps
    no spline table: the values and derivatives at the nodes are read while
    it is built, and each D_z evaluates the values again on the intervals
    where f_z is not 1.0.
    """

    basis: KnotBasis
    quad: QuadratureRule
    s_band: np.ndarray
    t_band: np.ndarray
    r2_band: np.ndarray
    r1_band: np.ndarray
    _screening_bands: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def screening_band(self, z: int) -> np.ndarray:
        """The leading columns of D_z = <B|(f_z(r) - 1)/r|B>, f_z =
        model.screening_factor; every later column of D_z is 0.0.

        On the first call for z, f_z is evaluated at every node. Let I be
        the last interval where it is not 1.0 at some node; the integrand is
        0.0 at every later node. Column j of a band sums the intervals j - k
        + 2 to j + 1 of spline j + 1, so the splines are evaluated only on
        the intervals 0 to I and the head is the first min(I + k - 1, n)
        columns they reach, the same bits as in D_z whole: none where f_z is
        1.0 at every node. The head is kept by the workspace, read-only; the
        values are not.
        """
        head = self._screening_bands.get(z)
        if head is None:
            basis, w, r = self.basis, self.quad.weights, self.quad.nodes
            k = basis.order_k
            core = screening_factor(r, z) - 1.0
            off_one = np.flatnonzero(core.any(axis=1))
            read = off_one[-1] + 1 if off_one.size else 0  # intervals 0 .. I
            values = _values_and_derivs(basis.knots, k, k - 1 + np.arange(read), r[:read])[0]
            width = min(read + k - 2, basis.n_active) if read else 0
            head = _grid_band(w[:read] * core[:read] / r[:read], values, width)
            self._screening_bands[z] = head
        return head

    @cached_property
    def seed(self) -> Workspace:
        """This grid on every _SEED_STRIDE-th breakpoint (and the last), with
        as many Gauss-Legendre nodes per interval as this one; built on
        first use and kept by the workspace.

        Its knots are a subset of these, so its splines lie in this spline
        space. Its S and T are the exact restrictions of these to its
        splines; its 1/r-type bands are its own quadrature of the same
        integrals, as this grid's are.
        """
        basis = self.basis
        kept = np.append(np.arange(0, basis.n_intervals, _SEED_STRIDE), basis.n_intervals)
        seed = KnotBasis(basis.order_k, basis.breakpoints[kept])
        return _workspace(seed, make_quadrature(seed, self.quad.nodes.shape[1]))


def _geometric_ratio(r_first: float, r_max: float, steps: int) -> float:
    """Ratio q > 1 with r_first * (q^steps - 1)/(q - 1) = r_max (bisection)."""

    def total(q: float) -> float:
        # q**steps overflows a float once steps * ln q passes ~709; any such
        # sum lies far beyond a real box, so report it as infinite.
        if steps * math.log(q) > _LOG_POWER_LIMIT:
            return math.inf
        return r_first * (q**steps - 1.0) / (q - 1.0)

    # total(q) >= r_first * q**(steps - 1), so the root lies at or below
    # this hi; it is raised only past the rounding of total.
    lo, hi = 1.0 + 1e-12, (r_max / r_first) ** (1.0 / (steps - 1))
    while total(hi) < r_max:
        hi = math.nextafter(hi, math.inf)
    if total(lo) >= r_max:
        raise ValueError(
            "degenerate exp-linear grid: r_first too large for the requested box"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < r_max:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exp_linear_breakpoints(r_max: float, n_intervals: int, r_first: float) -> np.ndarray:
    """Geometric spacing from r_first, switching to a uniform tail.

    Spacings grow by a fixed ratio q until the next geometric step would
    reach the spacing needed to fill the remaining intervals uniformly; the
    grid then continues linearly and lands exactly on r_max. q is set so a
    pure geometric run would use ~2/3 of the intervals, which makes the
    switch-over smooth.
    """
    budget = max(2, int(np.ceil(_GEOMETRIC_BUDGET_FRACTION * n_intervals)))
    q = _geometric_ratio(r_first, r_max, budget)
    points = [0.0, r_first]
    step = r_first
    while len(points) < n_intervals + 1:
        remaining = n_intervals + 1 - len(points)
        uniform = (r_max - points[-1]) / remaining
        if q * step >= uniform or remaining == 1:
            points.extend(np.linspace(points[-1], r_max, remaining + 1)[1:].tolist())
            break
        step *= q
        points.append(points[-1] + step)
    return np.asarray(points)


def make_knots(
    r_max: float,
    n_splines: int,
    order_k: int,
    kind: str = "exp-linear",
    r_first: float = 1e-4,
) -> KnotBasis:
    """Build the clamped knot sequence for the radial box.

    Parameters
    ----------
    r_max : box radius in bohr.
    n_splines : total spline count before boundary trimming.
    order_k : spline order (polynomial degree + 1), within ``_ORDER_RANGE``.
    kind : "exp-linear" (dense near the origin, uniform tail) or "linear".
    r_first : first nonzero breakpoint for the exp-linear grid.
    """
    low, high = _ORDER_RANGE
    if not low <= order_k <= high:
        raise ValueError(f"order_k must lie in [{low}, {high}]")
    if n_splines <= 2 * order_k:
        raise ValueError("n_splines must exceed 2 * order_k")
    if not math.isfinite(r_max):
        raise ValueError("r_max must be finite")
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    n_breakpoints = n_splines - order_k + 2
    n_intervals = n_breakpoints - 1
    if kind == "linear":
        breakpoints = np.linspace(0.0, r_max, n_breakpoints)
    elif kind == "exp-linear":
        if not 0 < r_first < r_max:
            raise ValueError("r_first must lie in (0, r_max)")
        if math.isinf(r_max / r_first):
            raise ValueError("r_first too small: r_max / r_first overflows a float")
        breakpoints = _exp_linear_breakpoints(r_max, n_intervals, r_first)
    else:
        raise ValueError(f"unknown knot kind: {kind!r}")
    if not np.all(np.diff(breakpoints) > 0):
        raise ValueError("degenerate grid: breakpoints are not strictly increasing")
    return KnotBasis(order_k, breakpoints)


def _values_and_derivs(
    t: np.ndarray, k: int, spans: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives of the k splines nonzero on each span.

    Cox-de Boor triangular recursion (k >= 2), vectorised over the spans
    (shape (n,)) and over the points x (shape (n, m), row i inside span
    spans[i]), with one contiguous (n, m) array per spline below the top
    order. Entry [i, q, a] of either table belongs to spline
    spans[i] - k + 1 + a at x[i, q].

    Each knot difference, t[spans + 1 + i] - x or x - t[spans + 1 + i - j],
    is formed where order j reads it, and the top order is written straight
    into the values table, so the only (n, m) arrays held besides the two
    tables are the splines of two adjacent orders.

    The derivatives follow de Boor's formula from the k - 1 splines of order
    k - 1 left in ``lower``: on span s, with q[i] = lower[i] / (t[s + 1 + i]
    - t[s + 2 + i - k]) for i = 0 .. k - 2 and q[-1] = q[k - 1] = 0, column
    a is (k - 1) (q[a - 1] - q[a]). Each width contains the span [t[s],
    t[s + 1]], so it is never 0; it is the width the recursion's last step
    divides by.
    """
    values, derivs = np.empty(x.shape + (k,)), np.empty(x.shape + (k,))
    columns = np.moveaxis(values, -1, 0)  # columns[a] is values[..., a]
    lower = [np.ones(x.shape)]
    for j in range(1, k):  # order j to order j + 1
        upper = columns if j == k - 1 else [None] * (j + 1)
        carry = 0.0
        for i in range(j):
            right = t[spans + 1 + i, None] - x
            left = x - t[spans + 1 + i - j, None]
            term = lower[i] / (right + left)
            upper[i] = carry + right * term
            carry = left * term
        upper[j] = carry
        if j < k - 1:
            lower = upper
    quotients = [0.0, *(lower[i] / (t[spans + 1 + i] - t[spans + 2 + i - k])[:, None]
                        for i in range(k - 1)), 0.0]
    for a in range(k):
        derivs[..., a] = (k - 1) * (quotients[a] - quotients[a + 1])
    return values, derivs


def _find_interval(basis: KnotBasis, r: np.ndarray) -> np.ndarray:
    iv = np.searchsorted(basis.breakpoints, r, side="right") - 1
    return np.clip(iv, 0, basis.n_intervals - 1)


def eval_bspline(basis: KnotBasis, index: int, r, derivative_order: int = 0):
    """Evaluate one basis function (or its first derivative) at radius r.

    ``r`` may be a float, which gives a float, or an array of radii, which
    gives an array of their values; each point is evaluated on its own span.
    """
    if not 0 <= index < basis.n_splines:
        raise ValueError(f"spline index {index} out of range")
    radii = np.asarray(r, dtype=float)
    outside = ~((radii >= 0) & (radii <= basis.r_max))  # also catches NaN
    if outside.any():
        raise ValueError(f"radius {radii[outside].flat[0]} outside [0, {basis.r_max}]")
    if derivative_order not in (0, 1):
        raise ValueError("derivative_order must be 0 or 1")
    k = basis.order_k
    points = radii.ravel()
    spans = k - 1 + _find_interval(basis, points)
    position = index - (spans - k + 1)  # among the k splines nonzero on the span
    inside = (position >= 0) & (position < k)
    rows = _values_and_derivs(basis.knots, k, spans, points[:, None])[derivative_order][:, 0]
    values = np.where(inside, rows[np.arange(points.size), position.clip(0, k - 1)], 0.0)
    if radii.ndim == 0:
        return float(values[0])
    return values.reshape(radii.shape)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    The nodes, the zeros of P_n, are found by Newton's iteration from the
    guesses x_i = -cos(pi (i + 3/4) / (n + 1/2)), with P_n and P_n'
    evaluated elementwise by ``legval`` (Clenshaw), until every step is at
    most 2 ulp. The guesses are computed as sin(pi (2 i + 1 - n) / (2 n + 1)),
    the same numbers, exactly antisymmetric and with the middle one of an
    odd n at 0.0, where P_n is 0.0 and Newton stays. Then comes numpy's
    ``leggauss`` finish: one more Newton step, weights proportional to
    1 / (P_{n-1}(x) P_n'(x)), nodes and weights symmetrised, and the weights
    scaled to sum to 2. So the rule is ``leggauss``'s to the rounding of
    ``legval``, without its eigenvalue solve (Golub and Welsch), which runs
    on the OpenBLAS bundled with numpy. A non-integer n raises TypeError.
    """
    n = operator.index(n)
    series = np.zeros(n + 1)
    series[-1] = 1.0  # P_n
    slope = legendre.legder(series)
    x = np.sin(np.pi * (2 * np.arange(n) + 1 - n) / (2 * n + 1))
    for _ in range(_NEWTON_STEP_LIMIT):
        step = legendre.legval(x, series) / legendre.legval(x, slope)
        x -= step
        if np.all(np.abs(step) <= 2 * np.spacing(np.abs(x))):
            break
    derivative = legendre.legval(x, slope)
    x -= legendre.legval(x, series) / derivative
    lower = legendre.legval(x, series[1:])  # P_{n-1}
    w = 1.0 / (lower / np.abs(lower).max() * (derivative / np.abs(derivative).max()))
    w = 0.5 * (w + w[::-1])
    x = 0.5 * (x - x[::-1])
    return x, w * (2.0 / w.sum())


def make_quadrature(basis: KnotBasis, nodes_per_interval: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped onto every breakpoint interval.

    Refuses a grid whose first breakpoint (r_first) is so small that the
    weighted 1/r^2 integrand of the centrifugal band is not finite at some
    node, or whose r_max is so large that r^2 overflows at some node.
    """
    if nodes_per_interval < 1:
        raise ValueError("nodes_per_interval must be >= 1")
    x, w = _gauss_legendre(nodes_per_interval)
    bp = basis.breakpoints
    mid = 0.5 * (bp[1:] + bp[:-1])
    half = 0.5 * (bp[1:] - bp[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    with np.errstate(all="ignore"):
        square = nodes * nodes
        inverse_square = weights / square
    if not np.isfinite(inverse_square).all():
        raise ValueError(
            f"first breakpoint {bp[1]:g} too small (r_first on an exp-linear grid):"
            " 1/r^2 overflows at the first quadrature nodes"
        )
    if not np.isfinite(square).all():
        raise ValueError(f"r_max {bp[-1]:g} too large: r^2 overflows at the last quadrature nodes")
    return QuadratureRule(nodes=nodes, weights=weights)


def design_tables(basis: KnotBasis, quad: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero splines and their derivatives at every quadrature node,
    as ``(values, derivs)``.

    ``values[iv, q, a]`` is spline ``iv + a`` evaluated at node q of
    interval iv (only order_k splines are nonzero per interval); ``derivs``
    holds the first derivatives in the same layout.
    """
    if quad.nodes.shape[0] != basis.n_intervals:
        raise ValueError("quadrature rule does not match the basis intervals")
    k = basis.order_k
    spans = k - 1 + np.arange(basis.n_intervals)
    return _values_and_derivs(basis.knots, k, spans, quad.nodes)


def _grid_band(weights: np.ndarray, table: np.ndarray, dim: int) -> np.ndarray:
    """The read-only general band of the per-interval blocks
    sum_q weights[iv, q] table[iv, q, a] table[iv, q, b].

    Every band of the package is stored in LAPACK's general band layout
    with kl = ku = bw, ``band[bw + d, j] = A[j + d, j]`` for d in [-bw, bw]
    and bandwidth bw = order_k - 1: 2 bw + 1 rows, the lower bw mirroring
    the upper bw. Both triangles are written here, once per band, so every
    LU, band product and inertia count of the eigensolver reads the bands
    as they are. The top bw + 1 rows are scipy's (and dsbgvx's) upper
    banded form.

    Block (iv, a, b) couples global splines iv+a and iv+b; active (trimmed)
    indices are the global ones shifted down by one, with the first and
    last spline discarded. The table may cover only the leading intervals,
    0 to n_iv - 1, and ``dim`` be less than n: the band is then that of
    weights 0.0 on every later interval, cut after column ``dim`` - 1. For
    each offset d = b - a one elementwise contraction over the nodes gives
    the blocks' entries (iv, a, a + d) for every a, so no (n_intervals, k,
    k) block array is formed and no BLAS product runs (see eigensolve).
    They are added into row bw - d in ascending a, so each upper band cell
    sums its terms in ascending a; the lower rows are then copied from the
    upper ones.
    """
    n_iv, k = table.shape[0], table.shape[2]
    bw = k - 1
    columns = np.moveaxis(table, -1, 0)  # columns[a, iv, q] = table[iv, q, a]
    weighted = columns * weights
    band = np.zeros((2 * bw + 1, dim))
    for d in range(k):
        products = np.einsum("aiq,aiq->ai", weighted[: k - d], columns[d:])
        for a in range(k - d):
            b = a + d
            first = max(0, 1 - a)
            last = min(n_iv, dim + 1 - b)
            band[bw - d, first + b - 1 : last + b - 1] += products[a, first:last]
    for d in range(1, k):
        band[bw + d, : dim - d] = band[bw - d, d:]
    band.setflags(write=False)
    return band


def _workspace(basis: KnotBasis, quad: QuadratureRule) -> Workspace:
    """The workspace of ``basis`` and ``quad``: its grid bands, summed from
    its design tables, which are dropped once the bands are built."""
    values, derivs = design_tables(basis, quad)
    n, w, r = basis.n_active, quad.weights, quad.nodes
    t_band = _grid_band(0.5 * w, derivs, n)
    del derivs
    return Workspace(
        basis=basis,
        quad=quad,
        s_band=_grid_band(w, values, n),
        t_band=t_band,
        r2_band=_grid_band(w / (r * r), values, n),
        r1_band=_grid_band(w / r, values, n),
    )


def build_workspace(grid: GridSpec, /) -> Workspace:
    """The basis, quadrature and grid bands of a grid: one workspace per
    grid value, with unset nodes_per_interval read as order_k."""
    if grid.nodes_per_interval is None:
        grid = replace(grid, nodes_per_interval=grid.order_k)
    return _grid_workspace(grid)


@lru_cache(maxsize=16)
def _grid_workspace(grid: GridSpec) -> Workspace:
    basis = make_knots(
        r_max=grid.r_max,
        n_splines=grid.n_splines,
        order_k=grid.order_k,
        kind=grid.knot_kind,
        r_first=grid.r_first,
    )
    # n Gauss-Legendre nodes integrate the degree-2(k-1) spline products
    # exactly only from n >= k; fewer break the variational bound.
    if grid.nodes_per_interval < grid.order_k:
        raise ValueError("nodes_per_interval must be >= order_k")
    return _workspace(basis, make_quadrature(basis, grid.nodes_per_interval))
