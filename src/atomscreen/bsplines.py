"""B-spline radial basis: knot generation, evaluation, quadrature.

The radial box [0, r_max] is partitioned into breakpoints carrying an
order-k clamped knot sequence. The first and last spline are dropped to
enforce zero boundary values, leaving ``n_splines - 2`` active functions.
Gauss-Legendre nodes on every breakpoint interval stay strictly interior,
so integrands singular at r = 0 are never sampled there.

Each workspace has a seed workspace (``_seed_workspace``): the same order on
every fourth breakpoint, integrated with the same nodes and weights. Its
splines lie in the workspace's spline space, so the eigenvalues of a channel
assembled on it bound the workspace's from above and seed its solve
(eigensolve, step 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    """One fully built grid: basis, quadrature and design tables."""

    basis: KnotBasis
    quad: QuadratureRule
    tables: DesignTables


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


def _nonzero_values(t: np.ndarray, k: int, spans: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values of the k splines that are nonzero on each knot span.

    Cox-de Boor triangular recursion, vectorised over the spans (shape
    (n,)) and over the points x (shape (n, m), row i inside span spans[i]).
    Entry [i, q, a] holds spline spans[i] - k + 1 + a at x[i, q].
    """
    values = np.ones(x.shape + (1,))
    for _ in range(k - 1):
        values = _raise_order(t, values, spans, x)
    return values


def _raise_order(
    t: np.ndarray, values: np.ndarray, spans: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """One Cox-de Boor step: order-j nonzero values to order j + 1."""
    j = values.shape[-1]
    offsets = np.arange(j)
    d_right = t[spans[:, None] + 1 + offsets][:, None, :] - x[..., None]
    d_left = x[..., None] - t[spans[:, None] - offsets][:, None, :]
    step = np.zeros(x.shape + (j + 1,))
    carry = np.zeros(x.shape)
    for i in range(j):
        term = values[..., i] / (d_right[..., i] + d_left[..., j - 1 - i])
        step[..., i] = carry + d_right[..., i] * term
        carry = d_left[..., j - 1 - i] * term
    step[..., j] = carry
    return step


def _values_and_derivs(
    t: np.ndarray, k: int, spans: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives of the nonzero splines on each span (k >= 2)."""
    lower = _nonzero_values(t, k - 1, spans, x)
    values = _raise_order(t, lower, spans, x)
    derivs = np.zeros_like(values)
    for a in range(k):
        p = spans - k + 1 + a
        acc = np.zeros(x.shape)
        if a >= 1:
            acc += _divide_where_wide(lower[..., a - 1], t[p + k - 1] - t[p])
        if a <= k - 2:
            acc -= _divide_where_wide(lower[..., a], t[p + k] - t[p + 1])
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
        if derivative_order == 0:
            rows = _nonzero_values(basis.knots, k, spans, x)
        else:
            rows = _values_and_derivs(basis.knots, k, spans, x)[1]
        values[inside] = rows[np.arange(len(spans)), 0, position[inside]]
    if radii.ndim == 0:
        return float(values[0])
    return values.reshape(radii.shape)


@lru_cache(maxsize=32)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def make_quadrature(basis: KnotBasis, nodes_per_interval: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped onto every breakpoint interval.

    Refuses a grid whose first breakpoint (r_first) is so small that the
    weighted 1/r^2 integrand of the centrifugal band is not finite at some
    node.
    """
    if nodes_per_interval < 1:
        raise ValueError("nodes_per_interval must be >= 1")
    x, w = _legendre_rule(nodes_per_interval)
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


@lru_cache(maxsize=16)
def build_workspace(grid: GridSpec = PAPER_GRID) -> Workspace:
    """Build (and memoise) the basis, quadrature and tables for one grid."""
    basis = make_knots(
        r_max=grid.r_max,
        n_splines=grid.n_splines,
        order_k=grid.order_k,
        kind=grid.knot_kind,
        r_first=grid.r_first,
    )
    quad = make_quadrature(basis, grid.nodes_per_interval)
    tables = design_tables(basis, quad)
    return Workspace(basis=basis, quad=quad, tables=tables)


@lru_cache(maxsize=16)
def _seed_workspace(ws: Workspace) -> Workspace:
    """The grid of ``ws`` on every _SEED_STRIDE-th breakpoint (and the last),
    with the quadrature of ``ws``; memoised per workspace, by identity.

    Its knots are a subset of the knots of ``ws``, so its splines lie in the
    spline space of ``ws``. Each of its intervals holds the nodes and weights
    of the _SEED_STRIDE intervals of ``ws`` it covers; the last, shorter
    group is padded with zero-weight copies of its last interval's nodes.
    Integrals on it are therefore the Galerkin restrictions of those on
    ``ws`` to its splines.
    """
    basis, quad = ws.basis, ws.quad
    n_intervals = basis.n_intervals
    kept = np.append(np.arange(0, n_intervals, _SEED_STRIDE), n_intervals)
    seed = _clamped_basis(basis.breakpoints[kept], basis.order_k, basis.r_max)
    pad = -n_intervals % _SEED_STRIDE
    nodes = np.concatenate([quad.nodes, np.repeat(quad.nodes[-1:], pad, axis=0)])
    weights = np.concatenate([quad.weights, np.zeros((pad, quad.weights.shape[1]))])
    shape = (seed.n_intervals, -1)
    regrouped = QuadratureRule(nodes=nodes.reshape(shape), weights=weights.reshape(shape))
    return Workspace(basis=seed, quad=regrouped, tables=design_tables(seed, regrouped))
