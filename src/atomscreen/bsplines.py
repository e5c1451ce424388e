"""B-spline radial basis: knot generation, evaluation, quadrature.

The radial box [0, r_max] is partitioned into breakpoints carrying an
order-k clamped knot sequence. The first and last spline are dropped to
enforce zero boundary values, leaving ``n_splines - 2`` active functions.
Gauss-Legendre nodes on every breakpoint interval stay strictly interior,
so integrands singular at r = 0 are never sampled there. One Cox-de Boor
routine (``_values_and_derivs``) evaluates the splines everywhere: the
design tables of both workspaces and ``eval_bspline``.

A workspace (``Workspace``) holds every band of its grid, and this module
builds all of them (``_grid_band``), in LAPACK's general band layout
(``_band_sum``). One private builder (``_workspace``) builds the basis, the
quadrature, the spline values at the nodes and the four grid-only bands S,
T, R2 and R1 that every channel on the grid sums (operators). The
derivative table of ``design_tables`` is read only for T, inside the build,
and is dropped before the workspace is returned, so a workspace holds one
table. The screening band W_Z of each Z is built from the values on first
use (``Workspace.screening_band``) and kept in the workspace, so it is
freed with it.

Each workspace owns its seed workspace (``Workspace.seed``): the same order
on every fourth breakpoint, integrated with the same nodes and weights and
built by the same builder. Its splines lie in the workspace's spline
space, so the eigenvalues of a channel assembled on it bound the
workspace's from above and seed its solve (eigensolve, step 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .model import screening_factor

__all__ = [
    "GridSpec",
    "PAPER_GRID",
    "KnotBasis",
    "QuadratureRule",
    "DesignTables",
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


@dataclass(frozen=True)
class GridSpec:
    """Hashable bundle of every numerical-grid parameter."""

    n_splines: int = 600
    order_k: int = 10
    r_max: float = 200.0
    knot_kind: str = "exp-linear"
    r_first: float = 1e-4
    nodes_per_interval: int = 20


#: Default configuration used by all table reproduction runs.
PAPER_GRID = GridSpec()


@dataclass(frozen=True, eq=False)
class KnotBasis:
    """Clamped B-spline basis on [0, r_max].

    ``breakpoints`` are the distinct radii (first 0, last r_max);
    ``knots`` repeat both endpoints order_k times. Active basis functions
    are indices 1 .. n_splines - 2 (boundary splines trimmed).
    """

    order_k: int
    n_splines: int
    r_max: float
    breakpoints: np.ndarray
    knots: np.ndarray

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
class DesignTables:
    """Nonzero spline values/derivatives at every quadrature node.

    ``values[iv, q, a]`` is spline ``iv + a`` evaluated at node q of
    interval iv (only order_k splines are nonzero per interval).
    """

    values: np.ndarray
    derivs: np.ndarray


@dataclass(frozen=True, eq=False)
class Workspace:
    """One fully built grid: its basis and quadrature, the spline values at
    the nodes, and the grid bands every channel on it sums.

    ``values`` is the value table of ``design_tables``, read by the
    screening bands. The bands are ``s_band`` (<B|B>), ``t_band``
    (1/2 <B'|B'>), ``r2_band`` (<B|1/r^2|B>), ``r1_band`` (<B|1/r|B>) and
    one ``screening_band(z)`` per Z, each in general band layout
    (``_band_sum``). All of them and the values are read-only and shared by
    every channel on the grid. The derivative table is read only for T,
    while the workspace is built, and is not kept.
    """

    basis: KnotBasis
    quad: QuadratureRule
    values: np.ndarray
    s_band: np.ndarray
    t_band: np.ndarray
    r2_band: np.ndarray
    r1_band: np.ndarray
    _screening_bands: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def screening_band(self, z: int) -> np.ndarray:
        """W_z = <B|f_z(r)/r|B> with f_z = model.screening_factor, built on
        the first call for z and kept by the workspace."""
        band = self._screening_bands.get(z)
        if band is None:
            w, r = self.quad.weights, self.quad.nodes
            band = _grid_band(w * screening_factor(r, z) / r, self.values, self.basis.n_active)
            self._screening_bands[z] = band
        return band

    @cached_property
    def seed(self) -> Workspace:
        """This grid on every _SEED_STRIDE-th breakpoint (and the last), with
        this quadrature; built on first use and kept by the workspace.

        Its knots are a subset of these, so its splines lie in this spline
        space. Each of its intervals holds the nodes and weights of the
        _SEED_STRIDE intervals here it covers; the last, shorter group is
        padded with zero-weight copies of its last interval's nodes.
        Integrals on it are therefore the Galerkin restrictions of those here
        to its splines.
        """
        basis, quad = self.basis, self.quad
        n_intervals = basis.n_intervals
        kept = np.append(np.arange(0, n_intervals, _SEED_STRIDE), n_intervals)
        seed = _clamped_basis(basis.breakpoints[kept], basis.order_k, basis.r_max)
        pad = -n_intervals % _SEED_STRIDE
        nodes = np.concatenate([quad.nodes, np.repeat(quad.nodes[-1:], pad, axis=0)])
        weights = np.concatenate([quad.weights, np.zeros((pad, quad.weights.shape[1]))])
        shape = (seed.n_intervals, -1)
        regrouped = QuadratureRule(nodes=nodes.reshape(shape), weights=weights.reshape(shape))
        return _workspace(seed, regrouped)


def _geometric_ratio(r_first: float, r_max: float, steps: int) -> float:
    """Ratio q > 1 with r_first * (q^steps - 1)/(q - 1) = r_max (bisection)."""

    def total(q: float) -> float:
        # q**steps overflows a float once steps * ln q passes ~709; any such
        # sum lies far beyond a real box, so report it as infinite.
        if steps * math.log(q) > _LOG_POWER_LIMIT:
            return math.inf
        return r_first * (q**steps - 1.0) / (q - 1.0)

    lo, hi = 1.0 + 1e-12, 2.0
    while total(hi) < r_max:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("geometric knot ratio diverged; r_first too large")
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
        breakpoints = _exp_linear_breakpoints(r_max, n_intervals, r_first)
    else:
        raise ValueError(f"unknown knot kind: {kind!r}")
    if not np.all(np.diff(breakpoints) > 0):
        raise ValueError("degenerate grid: breakpoints are not strictly increasing")
    return _clamped_basis(breakpoints, order_k, r_max)


def _clamped_basis(breakpoints: np.ndarray, order_k: int, r_max: float) -> KnotBasis:
    """The order-k basis on ``breakpoints``, both ends repeated k times."""
    knots = np.concatenate(
        [
            np.zeros(order_k - 1),
            breakpoints,
            np.full(order_k - 1, r_max),
        ]
    )
    return KnotBasis(
        order_k=order_k,
        n_splines=len(breakpoints) + order_k - 2,
        r_max=r_max,
        breakpoints=breakpoints,
        knots=knots,
    )


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
    for a in range(k):  # from the order k - 1 splines left in lower
        p = spans - k + 1 + a
        acc = 0.0
        if a >= 1:
            acc += _divide_where_wide(lower[a - 1], t[p + k - 1] - t[p])
        if a <= k - 2:
            acc -= _divide_where_wide(lower[a], t[p + k] - t[p + 1])
        derivs[..., a] = (k - 1) * acc
    return values, derivs


def _divide_where_wide(column: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """column / width per span, and 0 on spans whose knot width is 0."""
    widths = widths[:, None]
    return np.divide(column, widths, out=np.zeros_like(column), where=widths > 0)


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
    values = np.zeros(points.shape)
    if inside.any():
        spans, x = spans[inside], points[inside, None]
        rows = _values_and_derivs(basis.knots, k, spans, x)[derivative_order]
        values[inside] = rows[np.arange(len(spans)), 0, position[inside]]
    if radii.ndim == 0:
        return float(values[0])
    return values.reshape(radii.shape)


def make_quadrature(basis: KnotBasis, nodes_per_interval: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped onto every breakpoint interval.

    Refuses a grid whose first breakpoint (r_first) is so small that the
    weighted 1/r^2 integrand of the centrifugal band is not finite at some
    node.
    """
    if nodes_per_interval < 1:
        raise ValueError("nodes_per_interval must be >= 1")
    x, w = np.polynomial.legendre.leggauss(nodes_per_interval)
    bp = basis.breakpoints
    mid = 0.5 * (bp[1:] + bp[:-1])
    half = 0.5 * (bp[1:] - bp[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        inverse_square = weights / (nodes * nodes)
    if not np.isfinite(inverse_square).all():
        raise ValueError(
            f"first breakpoint {bp[1]:g} too small (r_first on an exp-linear grid):"
            " 1/r^2 overflows at the first quadrature nodes"
        )
    return QuadratureRule(nodes=nodes, weights=weights)


def design_tables(basis: KnotBasis, quad: QuadratureRule) -> DesignTables:
    """Tabulate the nonzero splines and derivatives at all quadrature nodes."""
    if quad.nodes.shape[0] != basis.n_intervals:
        raise ValueError("quadrature rule does not match the basis intervals")
    k = basis.order_k
    spans = k - 1 + np.arange(basis.n_intervals)
    values, derivs = _values_and_derivs(basis.knots, k, spans, quad.nodes)
    return DesignTables(values=values, derivs=derivs)


def _band_sum(local: np.ndarray, dim: int) -> np.ndarray:
    """Sum per-interval blocks of shape (n_intervals, k, k) into a general band.

    Every band of the package is stored in LAPACK's general band layout
    with kl = ku = bw, ``band[bw + d, j] = A[j + d, j]`` for d in [-bw, bw]
    and bandwidth bw = order_k - 1: 2 bw + 1 rows, the lower bw mirroring
    the upper bw. Both triangles are written here, once per band, so every
    LU, band product and inertia count of the eigensolver reads the bands
    as they are. The top bw + 1 rows are scipy's (and dsbgvx's) upper
    banded form.

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


def _grid_band(weights: np.ndarray, table: np.ndarray, dim: int) -> np.ndarray:
    """The read-only general band (``_band_sum``) of the per-interval blocks
    sum_q weights[iv, q] table[iv, q, a] table[iv, q, b]."""
    band = _band_sum(np.matmul(table.transpose(0, 2, 1) * weights[:, None, :], table), dim)
    band.setflags(write=False)
    return band


def _workspace(basis: KnotBasis, quad: QuadratureRule) -> Workspace:
    """The workspace of ``basis`` and ``quad``: its design tables, of which
    the derivatives are read for T and then dropped, and its grid bands."""
    tables = design_tables(basis, quad)
    n, w, r = basis.n_active, quad.weights, quad.nodes
    t_band = _grid_band(0.5 * w, tables.derivs, n)
    values = tables.values
    values.setflags(write=False)
    del tables
    return Workspace(
        basis=basis,
        quad=quad,
        values=values,
        s_band=_grid_band(w, values, n),
        t_band=t_band,
        r2_band=_grid_band(w / (r * r), values, n),
        r1_band=_grid_band(w / r, values, n),
    )


@lru_cache(maxsize=16)
def build_workspace(grid: GridSpec, /) -> Workspace:
    """The basis, quadrature, spline values and grid bands of a grid: one
    workspace per grid value."""
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
