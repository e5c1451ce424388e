import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from conftest import band_to_dense

from atomscreen import bsplines
from atomscreen.bsplines import (
    GridSpec,
    KnotBasis,
    PAPER_GRID,
    _gauss_legendre,
    _grid_band,
    _workspace,
    build_workspace,
    design_tables,
    eval_bspline,
    make_knots,
    make_quadrature,
)


@pytest.fixture(scope="module")
def paper_basis():
    return make_knots(200.0, 600, 10, "exp-linear", 1e-4)


@pytest.fixture(scope="module")
def small_basis():
    return make_knots(10.0, 23, 3, "linear")


class TestMakeKnots:
    def test_paper_grid_counts(self, paper_basis):
        # splines = breakpoints + order - 2, so 592 breakpoints incl. the
        # origin (591 nonzero ones) and 591 intervals
        assert len(paper_basis.breakpoints) == 592
        assert paper_basis.n_intervals == 591
        assert paper_basis.breakpoints[0] == 0.0
        assert paper_basis.breakpoints[1] == pytest.approx(1e-4, rel=1e-12)
        assert paper_basis.breakpoints[-1] == 200.0

    def test_paper_grid_has_uniform_tail(self, paper_basis):
        spacings = np.diff(paper_basis.breakpoints)
        tail = spacings[-50:]
        assert np.max(np.abs(tail - tail[-1])) < 1e-9 * tail[-1]
        # dense near the origin, growing towards the junction
        assert spacings[0] < 2e-4
        assert np.all(np.diff(spacings) > -1e-12)

    def test_linear_grid_spacing(self, small_basis):
        spacings = np.diff(small_basis.breakpoints)
        assert spacings == pytest.approx(np.full(21, 10.0 / 21.0), rel=1e-14)

    def test_clamped_knot_multiplicity(self, paper_basis):
        knots = paper_basis.knots
        assert len(knots) == 600 + 10
        assert np.all(np.diff(knots) >= 0)
        assert np.count_nonzero(knots == 0.0) == 10
        assert np.count_nonzero(knots == 200.0) == 10

    @pytest.mark.parametrize("basis, n_splines, r_max", [
        ("paper_basis", 600, 200.0), ("small_basis", 23, 10.0),
    ])
    def test_order_and_breakpoints_fix_the_basis(self, request, basis, n_splines, r_max):
        built = request.getfixturevalue(basis)
        rebuilt = KnotBasis(built.order_k, built.breakpoints)
        assert np.array_equal(rebuilt.knots, built.knots)
        assert rebuilt.n_splines == built.n_splines == n_splines
        assert rebuilt.r_max == built.r_max == r_max
        assert [f.name for f in dataclasses.fields(KnotBasis) if f.init] == [
            "order_k", "breakpoints"]

    def test_active_range_trims_boundary_splines(self, paper_basis):
        assert list(paper_basis.active_range)[:2] == [1, 2]
        assert paper_basis.n_active == 598

    @pytest.mark.parametrize("n_splines", [1550, 3000])
    def test_large_exp_linear_grids_do_not_overflow(self, n_splines):
        # the geometric ratio is bracketed past the point where 2**steps
        # would overflow a float (about 1540 splines at order 10)
        basis = make_knots(200.0, n_splines, 10)
        assert np.all(np.diff(basis.breakpoints) > 0)
        assert basis.breakpoints[-1] == 200.0
        assert basis.n_intervals == n_splines - 9

    def test_huge_box_sums_past_the_log_power_limit(self):
        # a budget of 8 geometric steps from 1e-4 to 1e300 brackets q at
        # steps * ln q ~ 800, past _LOG_POWER_LIMIT, where q**steps would
        # raise OverflowError
        basis = make_knots(1e300, 21, 10)
        assert np.all(np.diff(basis.breakpoints) > 0)
        assert basis.breakpoints[-1] == 1e300

    def test_rejects_r_first_whose_box_ratio_overflows(self):
        # r_max / r_first = 2e312 is inf: no geometric ratio can be bracketed
        with pytest.raises(ValueError, match="r_first"):
            make_knots(200.0, 600, 10, "exp-linear", r_first=1e-310)
        with pytest.raises(ValueError, match="r_first"):
            build_workspace(GridSpec(r_first=1e-310))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match=r"^order_k must lie in \[2, 15\]$"):
            make_knots(200.0, 600, 1)
        with pytest.raises(ValueError, match=r"^order_k must lie in \[2, 15\]$"):
            make_knots(200.0, 600, 16)
        with pytest.raises(ValueError):
            make_knots(200.0, 15, 10)
        with pytest.raises(ValueError):
            make_knots(200.0, 600, 10, "exp-linear", r_first=300.0)
        with pytest.raises(ValueError):
            make_knots(200.0, 600, 10, "cubic")
        with pytest.raises(ValueError):
            make_knots(-1.0, 600, 10)

    @pytest.mark.parametrize("kind", ["exp-linear", "linear"])
    @pytest.mark.parametrize("r_max", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_box(self, r_max, kind):
        with pytest.raises(ValueError, match=r"^r_max must be finite$"):
            make_knots(r_max, 600, 10, kind)


class TestEvalBspline:
    def test_partition_of_unity_random_radii(self, paper_basis):
        rng = np.random.default_rng(7)
        radii = rng.uniform(0.0, 200.0, 1000)
        total = sum(eval_bspline(paper_basis, i, radii) for i in range(paper_basis.n_splines))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_endpoint_values(self, paper_basis):
        assert eval_bspline(paper_basis, 0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert eval_bspline(paper_basis, 599, 200.0) == pytest.approx(1.0, abs=1e-14)
        assert eval_bspline(paper_basis, 1, 0.0) == 0.0

    def test_compact_support(self, paper_basis):
        # spline i lives on [breakpoints[i-k+1], breakpoints[i+1]] clipped
        index = 300
        bp = paper_basis.breakpoints
        left = bp[index - 10 + 1]
        right = bp[index + 1]
        assert eval_bspline(paper_basis, index, left * 0.99) == 0.0
        assert eval_bspline(paper_basis, index, right * 1.01) == 0.0
        mid = 0.5 * (left + right)
        assert eval_bspline(paper_basis, index, mid) > 0.0

    def test_linear_splines_are_hat_functions(self):
        basis = make_knots(4.0, 6, 2, "linear")
        # order 2 on a uniform grid: B_i peaks at 1 on its own breakpoint
        for i in range(1, 5):
            assert eval_bspline(basis, i, basis.breakpoints[i]) == pytest.approx(1.0)

    def test_derivative_matches_finite_difference(self, paper_basis):
        rng = np.random.default_rng(11)
        bp = paper_basis.breakpoints
        step = 1e-6
        samples = 0
        while samples < 200:
            r = rng.uniform(1.0, 199.0)
            iv = np.searchsorted(bp, r) - 1
            # stay away from breakpoints so the central stencil does not
            # straddle reduced smoothness
            if min(r - bp[iv], bp[iv + 1] - r) < 10 * step:
                continue
            index = rng.integers(iv, iv + 10)
            numeric = (
                eval_bspline(paper_basis, index, r + step)
                - eval_bspline(paper_basis, index, r - step)
            ) / (2 * step)
            analytic = eval_bspline(paper_basis, index, r, derivative_order=1)
            assert abs(analytic - numeric) <= 1e-6
            samples += 1

    def test_rejects_out_of_range(self, paper_basis):
        with pytest.raises(ValueError):
            eval_bspline(paper_basis, 600, 1.0)
        with pytest.raises(ValueError):
            eval_bspline(paper_basis, 0, 201.0)
        with pytest.raises(ValueError):
            eval_bspline(paper_basis, 0, 1.0, derivative_order=2)


class TestQuadrature:
    def test_weights_sum_to_interval_lengths(self, paper_basis):
        quad = make_quadrature(paper_basis, 20)
        lengths = np.diff(paper_basis.breakpoints)
        assert quad.weights.sum(axis=1) == pytest.approx(lengths, rel=1e-13)

    def test_box_length_integral(self, paper_basis):
        quad = make_quadrature(paper_basis, 20)
        assert quad.weights.sum() == pytest.approx(200.0, rel=1e-14)

    def test_nodes_strictly_interior(self, paper_basis):
        quad = make_quadrature(paper_basis, 20)
        bp = paper_basis.breakpoints
        assert np.all(quad.nodes > bp[:-1, None])
        assert np.all(quad.nodes < bp[1:, None])
        assert np.all(quad.weights > 0)

    def test_gauss_exactness_on_one_interval(self):
        basis = make_knots(2.0, 9, 3, "linear")
        for nodes in (1, 2, 3, 4, 10, 11):
            quad = make_quadrature(basis, nodes)
            # degree 2*nodes-1 monomial on the first interval
            degree = 2 * nodes - 1
            a, b = basis.breakpoints[0], basis.breakpoints[1]
            exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
            numeric = np.sum(quad.weights[0] * quad.nodes[0] ** degree)
            assert numeric == pytest.approx(exact, rel=1e-14)

    def test_exponential_integral_on_exp_linear_grid(self):
        basis = make_knots(20.0, 120, 8, "exp-linear", 1e-4)
        quad = make_quadrature(basis, 20)
        numeric = np.sum(quad.weights * np.exp(-2.0 * quad.nodes))
        exact = (1.0 - math.exp(-40.0)) / 2.0
        assert abs(numeric - exact) < 1e-12

    @pytest.mark.parametrize("count, error", [
        (0, ValueError), (10.0, TypeError), (10.5, TypeError),
    ])
    def test_rejects_bad_node_count(self, paper_basis, count, error):
        with pytest.raises(error):
            make_quadrature(paper_basis, count)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_rule_matches_leggauss(self, n):
        # leggauss finds the nodes as eigenvalues (numpy's LAPACK); measured
        # here: nodes within 1.2e-16, weights within 1.3e-13 relative (n = 18)
        x, w = _gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.abs(x - ref_x).max() <= 2e-16
        assert np.abs(w / ref_w - 1.0).max() <= 2e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 20, 21, 64, 65])
    def test_rule_is_symmetric_ascending_and_interior(self, n):
        x, w = _gauss_legendre(n)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0
        assert np.all(np.diff(x) > 0)
        assert -1.0 < x[0] and x[-1] < 1.0
        assert np.all(w > 0)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_rule_integrates_legendre_moments(self, n):
        # sum_i w_i P_j(x_i) = 2 delta_j0 for j < 2n, to within the length of
        # the sum: at most 0.89 of the bound measured (n = 15)
        x, w = _gauss_legendre(n)
        moments = (w[:, None] * np.polynomial.legendre.legvander(x, 2 * n - 1)).sum(axis=0)
        moments[0] -= 2.0
        assert np.abs(moments).max() <= 2 * n * np.finfo(float).eps

    @pytest.mark.parametrize("r_first", [1e-160, 1e-300])
    def test_rejects_r_first_whose_inverse_square_overflows(self, r_first):
        basis = make_knots(200.0, 600, 10, "exp-linear", r_first)
        with pytest.raises(ValueError, match="r_first"):
            make_quadrature(basis, 20)
        with pytest.raises(ValueError, match="r_first"):
            build_workspace(GridSpec(r_first=r_first))

    def test_accepts_r_first_while_the_inverse_square_is_finite(self):
        # w / r^2 at the first node is still finite at r_first = 1e-158
        basis = make_knots(200.0, 600, 10, "exp-linear", 1e-158)
        quad = make_quadrature(basis, 20)
        assert np.isfinite(quad.weights / quad.nodes**2).all()

    @pytest.mark.parametrize("kind", ["exp-linear", "linear"])
    def test_rejects_r_max_whose_square_overflows(self, kind):
        # r^2 is inf past ~1.3e154, and w / r^2 would be 0.0 there
        basis = make_knots(1e160, 600, 10, kind)
        with pytest.raises(ValueError, match=r"r_max 1e\+160 too large"):
            make_quadrature(basis, 10)
        with pytest.raises(ValueError, match="r_max"):
            build_workspace(GridSpec(r_max=1e160, knot_kind=kind))

    @pytest.mark.parametrize("kind", ["exp-linear", "linear"])
    def test_accepts_r_max_while_its_square_is_finite(self, kind):
        ws = build_workspace(GridSpec(r_max=1e150, knot_kind=kind))
        assert np.isfinite(ws.r2_band).all()


class TestDesignTables:
    def test_partition_of_unity_at_nodes(self, paper_basis):
        quad = make_quadrature(paper_basis, 20)
        values, _ = design_tables(paper_basis, quad)
        sums = values.sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_matches_pointwise_evaluation(self, small_basis):
        quad = make_quadrature(small_basis, 4)
        values, derivs = design_tables(small_basis, quad)
        k = small_basis.order_k
        for iv in (0, 7, 20):
            for q in (0, 3):
                r = quad.nodes[iv, q]
                for a in range(k):
                    assert values[iv, q, a] == pytest.approx(
                        eval_bspline(small_basis, iv + a, r), abs=1e-14
                    )
                    assert derivs[iv, q, a] == pytest.approx(
                        eval_bspline(small_basis, iv + a, r, 1), abs=1e-11
                    )

    def test_workspace_is_memoised(self):
        grid = GridSpec(n_splines=40, order_k=4, r_max=10.0)
        assert build_workspace(grid) is build_workspace(grid)
        assert build_workspace(PAPER_GRID).basis.n_splines == 600

    def test_one_workspace_per_grid_value(self):
        assert build_workspace(PAPER_GRID) is build_workspace(GridSpec())
        # an unset node count means order_k nodes: the same grid
        assert build_workspace(GridSpec()) is build_workspace(GridSpec(nodes_per_interval=10))

    def test_default_node_count_is_the_order(self):
        ws = build_workspace(PAPER_GRID)
        assert PAPER_GRID.nodes_per_interval is None
        assert ws.quad.nodes.shape[1] == PAPER_GRID.order_k
        # resolved when the grid is built, so a changed order brings its own count
        grid = dataclasses.replace(GridSpec(n_splines=40, order_k=4, r_max=10.0), order_k=12)
        assert build_workspace(grid).quad.nodes.shape[1] == 12

    def test_grid_is_positional_and_required(self):
        with pytest.raises(TypeError):
            build_workspace()
        with pytest.raises(TypeError):
            build_workspace(grid=PAPER_GRID)

    def test_refuses_fewer_quadrature_nodes_than_the_order(self):
        grid = GridSpec(n_splines=49, order_k=10, r_max=200.0, nodes_per_interval=9)
        with pytest.raises(ValueError, match="nodes_per_interval must be >= order_k"):
            build_workspace(grid)
        ws = build_workspace(GridSpec(n_splines=49, order_k=10, r_max=200.0,
                                      nodes_per_interval=10))
        assert ws.quad.nodes.shape == (ws.basis.n_intervals, 10)


class TestSeedWorkspace:
    # 21 and 40 intervals: the last seed interval covers one interval, or four
    @pytest.fixture(scope="class", params=[
        GridSpec(n_splines=23, order_k=3, r_max=10.0, knot_kind="linear", nodes_per_interval=4),
        GridSpec(n_splines=49, order_k=10, r_max=200.0, nodes_per_interval=12),
    ], ids=["linear-k3-padded", "exp-linear-k10-whole"])
    def spaces(self, request):
        ws = build_workspace(request.param)
        return ws, ws.seed

    def test_is_built_once_and_kept_by_the_workspace(self, spaces):
        ws, _ = spaces
        assert ws.seed is ws.seed

    def test_knots_are_every_fourth_breakpoint_of_the_basis(self, spaces):
        ws, seed = spaces
        fine, coarse = ws.basis, seed.basis
        kept = np.append(np.arange(0, fine.n_intervals, 4), fine.n_intervals)
        assert np.array_equal(coarse.breakpoints, fine.breakpoints[kept])
        assert np.all(np.isin(coarse.knots, fine.knots))
        assert np.array_equal(coarse.knots, KnotBasis(fine.order_k, fine.breakpoints[kept]).knots)
        assert coarse.order_k == fine.order_k and coarse.r_max == fine.r_max
        assert coarse.n_splines == len(coarse.knots) - coarse.order_k

    def test_quadrature_is_its_own_basis_rule(self, spaces):
        ws, seed = spaces
        expected = make_quadrature(seed.basis, ws.quad.nodes.shape[1])
        assert np.array_equal(seed.quad.nodes, expected.nodes)
        assert np.array_equal(seed.quad.weights, expected.weights)

    def test_tables_match_pointwise_evaluation(self, spaces):
        _, seed = spaces
        basis, k = seed.basis, seed.basis.order_k
        values, derivs = design_tables(basis, seed.quad)
        # the seed's bands are summed from these tables
        assert np.array_equal(seed.s_band, _grid_band(seed.quad.weights, values, basis.n_active))
        last = seed.quad.nodes.shape[1] - 1
        for iv in range(basis.n_intervals):
            for q in (0, last // 2, last):
                r = seed.quad.nodes[iv, q]
                for a in range(k):
                    assert values[iv, q, a] == pytest.approx(
                        eval_bspline(basis, iv + a, r), abs=1e-14
                    )
                    assert derivs[iv, q, a] == pytest.approx(
                        eval_bspline(basis, iv + a, r, 1), rel=1e-12, abs=1e-11
                    )


def _reachable_nbytes(obj):
    """Bytes of every ndarray reachable from the dataclass fields of obj,
    through dicts too."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_reachable_nbytes(value) for value in obj.values())
    if dataclasses.is_dataclass(obj):
        return sum(_reachable_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


class TestWorkspaceHoldings:
    """A workspace and its seed keep their grid bands, the head of each D_Z
    built so far among them, and no spline table."""

    @pytest.mark.parametrize("grid", [
        PAPER_GRID,
        GridSpec(n_splines=23, order_k=3, r_max=10.0, knot_kind="linear", nodes_per_interval=4),
    ], ids=["paper", "linear-k3"])
    def test_holds_only_its_bands(self, grid, monkeypatch):
        tables = []

        def recording(*args):
            values, derivs = evaluate(*args)
            tables.extend((weakref.ref(values), weakref.ref(derivs)))
            return values, derivs

        cached = build_workspace(grid)
        evaluate = bsplines._values_and_derivs
        monkeypatch.setattr(bsplines, "_values_and_derivs", recording)
        ws = _workspace(cached.basis, cached.quad)  # no D_Z built yet
        for space in (ws, ws.seed):
            kept = (space.s_band, space.t_band, space.r2_band, space.r1_band,
                    space.basis.knots, space.basis.breakpoints,
                    space.quad.nodes, space.quad.weights)
            held = sum(array.nbytes for array in kept)
            assert _reachable_nbytes(space) == held
            for z in (3, 11):
                # each D_Z adds its head, which owns its columns: fewer than
                # the band's n wherever f_Z reaches 1.0 inside the box
                head = space.screening_band(z)
                assert head.base is None
                assert head.shape[1] < space.basis.n_active
                held += head.nbytes
                assert _reachable_nbytes(space) == held
            space.screening_band(3)  # built once, then kept
            assert _reachable_nbytes(space) == held
        # the values and derivatives evaluated by the two builds and the
        # four D_Z are all freed once these return
        gc.collect()
        assert len(tables) == 2 * (2 + 4)
        assert all(table() is None for table in tables)


def _per_interval_blocks(weights, table):
    """The active-spline matrix of the blocks sum_q w t_a t_b, added one
    interval at a time, and the same sum of the terms' absolute values."""
    n_iv, _, k = table.shape
    n = n_iv + k - 1
    dense, scale = np.zeros((n, n)), np.zeros((n, n))
    for iv in range(n_iv):
        weighted = weights[iv, :, None] * table[iv]
        dense[iv : iv + k, iv : iv + k] += table[iv].T @ weighted
        scale[iv : iv + k, iv : iv + k] += np.abs(table[iv]).T @ np.abs(weighted)
    return dense[1:-1, 1:-1], scale[1:-1, 1:-1]


class TestGridBands:
    """_grid_band sums each cell in an order of its own; the per-interval
    loop is the reference, to the rounding bound of a sum of as many
    products as a cell has (at most k intervals of nq nodes)."""

    @pytest.mark.parametrize("grid", [
        PAPER_GRID,
        GridSpec(n_splines=23, order_k=3, r_max=10.0, knot_kind="linear", nodes_per_interval=4),
        GridSpec(n_splines=12, order_k=2, r_max=5.0, knot_kind="linear"),
    ], ids=["paper", "linear-k3", "linear-k2"])
    @pytest.mark.parametrize("seed", [False, True], ids=["workspace", "seed-workspace"])
    def test_matches_the_per_interval_blocks(self, grid, seed):
        ws = build_workspace(grid)
        if seed:
            ws = ws.seed
        values, derivs = design_tables(ws.basis, ws.quad)
        w, r = ws.quad.weights, ws.quad.nodes
        eps = np.finfo(np.float64).eps
        for band, weights, table in ((ws.s_band, w, values), (ws.t_band, 0.5 * w, derivs),
                                     (ws.r2_band, w / (r * r), values),
                                     (ws.r1_band, w / r, values)):
            reference, scale = _per_interval_blocks(weights, table)
            terms = table.shape[1] * table.shape[2]
            assert np.all(np.abs(band_to_dense(band) - reference) <= terms * eps * scale)


def _span_values(t, k, span, x):
    """Single-span Cox-de Boor recursion, one point vector at a time."""
    values = np.ones((x.shape[0], 1))
    for j in range(1, k):
        d_right = t[span + 1 : span + j + 1][None, :] - x[:, None]
        d_left = x[:, None] - t[span - j + 1 : span + 1][None, ::-1]
        step = np.zeros((x.shape[0], j + 1))
        carry = np.zeros(x.shape[0])
        for i in range(j):
            term = values[:, i] / (d_right[:, i] + d_left[:, j - 1 - i])
            step[:, i] = carry + d_right[:, i] * term
            carry = d_left[:, j - 1 - i] * term
        step[:, j] = carry
        values = step
    return values


def _span_values_and_derivs(t, k, span, x):
    values = _span_values(t, k, span, x)
    derivs = np.zeros_like(values)
    lower = _span_values(t, k - 1, span, x)
    for a in range(k):
        p = span - k + 1 + a
        acc = np.zeros(x.shape[0])
        width = t[p + k - 1] - t[p]
        if a >= 1 and width > 0:
            acc += lower[:, a - 1] / width
        width = t[p + k] - t[p + 1]
        if a <= k - 2 and width > 0:
            acc -= lower[:, a] / width
        derivs[:, a] = (k - 1) * acc
    return values, derivs


class TestVectorisedTables:
    """design_tables runs the recursion over all spans at once; it must
    reproduce the per-span loop bit for bit."""

    @pytest.mark.parametrize("kind", ["linear", "exp-linear"])
    @pytest.mark.parametrize("order_k", [2, 4, 10, 15])
    def test_bit_identical_to_per_span_loop(self, kind, order_k):
        basis = make_knots(60.0, 80, order_k, kind, 1e-3)
        quad = make_quadrature(basis, 9)
        values, derivs = design_tables(basis, quad)
        for iv in range(basis.n_intervals):
            span_values, span_derivs = _span_values_and_derivs(
                basis.knots, order_k, order_k - 1 + iv, quad.nodes[iv]
            )
            assert np.array_equal(values[iv], span_values)
            assert np.array_equal(derivs[iv], span_derivs)

    # the seed workspace has 148 intervals of 10 nodes, its own Gauss rule;
    # its last interval covers 3 of the 591 = 4 * 147 + 3
    @pytest.mark.parametrize("seed", [False, True], ids=["workspace", "seed-workspace"])
    def test_paper_grid_bit_identical_to_per_span_loop(self, seed):
        ws = build_workspace(PAPER_GRID)
        if seed:
            ws = ws.seed
        k = ws.basis.order_k
        values, derivs = design_tables(ws.basis, ws.quad)
        # the workspace's bands are summed from these tables
        assert np.array_equal(ws.s_band, _grid_band(ws.quad.weights, values, ws.basis.n_active))
        for iv in range(ws.basis.n_intervals):
            span_values, span_derivs = _span_values_and_derivs(
                ws.basis.knots, k, k - 1 + iv, ws.quad.nodes[iv]
            )
            assert np.array_equal(values[iv], span_values)
            assert np.array_equal(derivs[iv], span_derivs)

    def test_legendre_rule_matches_known_three_point_rule(self):
        # unit intervals: nodes 0.5 + 0.5 x and weights 0.5 w on [0, 1]
        quad = make_quadrature(make_knots(6.0, 7, 2, "linear"), 3)
        x = math.sqrt(0.6)
        assert quad.nodes[0] == pytest.approx([0.5 - 0.5 * x, 0.5, 0.5 + 0.5 * x], abs=1e-15)
        assert quad.weights[0] == pytest.approx([5 / 18, 8 / 18, 5 / 18], abs=1e-15)
