import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from conftest import band_to_dense, brute_force_matrix, dense_to_band

from atomscreen.bsplines import (
    GridSpec,
    KnotBasis,
    PAPER_GRID,
    build_workspace,
    design_tables,
    eval_bspline,
)
from atomscreen.eigensolve import solve_lowest
from atomscreen.model import (
    AtomSpec,
    ModelDomainError,
    Pseudopotential,
    catalog_atom,
    effective_charge,
    hydrogenic_energy,
    potential_terms,
    potential_value,
    screening_factor,
)
from atomscreen import bsplines, operators, spectra
from atomscreen.operators import _channel_pair, assemble, general_matvec
from atomscreen.spectra import solve_channel

HYDROGEN = AtomSpec("H", 1, 1, 1, 0, 1)


@pytest.fixture(scope="module")
def paper_ws():
    return build_workspace(PAPER_GRID)


@pytest.fixture(scope="module")
def coarse_k4_ws():
    return build_workspace(GridSpec(n_splines=60, order_k=4, r_max=40.0, r_first=1e-3,
                                    nodes_per_interval=8))


@pytest.fixture(scope="module")
def coarse_ws():
    return build_workspace(GridSpec(n_splines=40, order_k=5, r_max=30.0, r_first=1e-3,
                                    nodes_per_interval=10))


class TestAssemble:
    def test_hydrogen_ground_state(self, paper_ws):
        pair = assemble(paper_ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
        solution = solve_lowest(pair, 1)
        assert solution.eigenvalues[0] == pytest.approx(-0.5, abs=1e-9)

    def test_helium_screened_ground_state(self, paper_ws):
        helium = catalog_atom("He")
        pair = assemble(paper_ws, helium, 0, Pseudopotential.SYMMETRY_DEPENDENT)
        solution = solve_lowest(pair, 1)
        exact = hydrogenic_energy(effective_charge(2, 2, 0), 1)
        assert exact == pytest.approx(-0.727580, abs=1e-6)
        assert solution.eigenvalues[0] == pytest.approx(exact, abs=1e-8)

    def test_matches_brute_force_on_coarse_grid(self):
        ws = build_workspace(GridSpec(n_splines=16, order_k=4, r_max=12.0, r_first=1e-2,
                                      nodes_per_interval=8))
        basis, quad = ws.basis, ws.quad
        helium = catalog_atom("He")
        pair = assemble(ws, helium, 1, Pseudopotential.SYMMETRY_DEPENDENT)

        z_eff = effective_charge(2, 2, 1)
        s_ref = brute_force_matrix(basis, quad, lambda r: np.ones_like(r))
        t_ref = 0.5 * brute_force_matrix(basis, quad, lambda r: np.ones_like(r),
                                         derivative=True)
        v_ref = brute_force_matrix(basis, quad, lambda r: -z_eff / r + 1.0 / r**2)
        h_ref = t_ref + v_ref
        assert band_to_dense(pair.s_band) == pytest.approx(s_ref, abs=1e-13)
        assert band_to_dense(pair.h_band) == pytest.approx(h_ref, abs=1e-11)

    @pytest.mark.parametrize("ws_name", ["coarse_ws", "paper_ws"])
    def test_overlap_row_sums_integrate_central_splines(self, request, ws_name):
        ws = request.getfixturevalue(ws_name)
        basis = ws.basis
        pair = assemble(ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
        s_dense = band_to_dense(pair.s_band)
        k, t = basis.order_k, basis.knots
        # the splines sum to 1, so row i of S sums to the integral of B_i,
        # (t[i + k] - t[i]) / k; boundary splines are trimmed, so only for
        # splines whose support avoids both box ends
        for active in range(k, basis.n_active - k):
            i = active + 1
            assert s_dense[active].sum() == pytest.approx((t[i + k] - t[i]) / k, rel=1e-12)

    def test_symmetry_and_band_structure(self, coarse_ws):
        pair = assemble(coarse_ws, HYDROGEN, 2, Pseudopotential.BARE_COULOMB)
        h_dense = band_to_dense(pair.h_band)
        assert np.max(np.abs(h_dense - h_dense.T)) <= 1e-13 * np.max(np.abs(h_dense))
        bandwidth = coarse_ws.basis.order_k - 1
        beyond = np.triu(np.ones_like(h_dense, dtype=bool), bandwidth + 1)
        assert np.all(h_dense[beyond] == 0.0)

    def test_centrifugal_block_is_positive_semidefinite(self):
        ws = build_workspace(GridSpec(n_splines=14, order_k=3, r_max=8.0, r_first=1e-2,
                                      nodes_per_interval=6))
        l = 2
        centrifugal = brute_force_matrix(ws.basis, ws.quad, lambda r: l * (l + 1) / (2 * r**2))
        eigenvalues = np.linalg.eigvalsh(centrifugal)
        assert eigenvalues.min() > 0.0

    def test_quadrature_doubling_leaves_eigenvalues_alone(self):
        lithium = catalog_atom("Li")
        results = []
        for nodes in (10, 20, 40):
            grid = GridSpec(nodes_per_interval=nodes)
            ws = build_workspace(grid)
            pair = assemble(ws, lithium, 0, Pseudopotential.CENTRAL_SCREENING)
            results.append(solve_lowest(pair, 4).eigenvalues)
        assert np.max(np.abs(results[0] - results[1])) <= 1e-10
        assert np.max(np.abs(results[1] - results[2])) <= 1e-10

    @pytest.mark.parametrize("grid", [
        GridSpec(n_splines=200, order_k=2, r_max=40.0, knot_kind="linear"),
        GridSpec(n_splines=100, order_k=3, r_max=40.0, knot_kind="linear"),
        GridSpec(n_splines=60, order_k=4, r_max=40.0, knot_kind="linear"),
        GridSpec(order_k=3),
        GridSpec(order_k=6),
    ], ids=["linear-k2", "linear-k3", "linear-k4", "exp-linear-k3", "exp-linear-k6"])
    def test_order_sized_quadrature_stays_below_the_basis_error(self, grid):
        # k nodes under-integrate the 1/r and 1/r^2 bands. The levels they
        # shift (against 20 nodes) must move by at most 1/100 of the basis
        # error, so that error stays the dominant one; where the basis error
        # is itself at roundoff, by at most the oracle agreement of 1e-12 Ha.
        exact = np.array([hydrogenic_energy(1.0, nu) for nu in (1, 2, 3)])
        levels = []
        for nodes in (None, 20):
            ws = build_workspace(replace(grid, nodes_per_interval=nodes))
            pair = assemble(ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
            levels.append(solve_lowest(pair, 3).eigenvalues)
        shift = np.abs(levels[0] - levels[1])
        basis_error = np.abs(levels[1] - exact)
        assert np.all(shift <= np.maximum(basis_error / 100, 1e-12))

    def test_variational_bound_and_monotone_refinement(self):
        # coarse grids keep discretization error above roundoff so the
        # variational ordering is strict
        exact = [hydrogenic_energy(1.0, nu) for nu in (1, 2, 3)]
        previous = None
        for n_splines in (24, 36, 54):
            ws = build_workspace(GridSpec(n_splines=n_splines, order_k=5, r_max=40.0,
                                          r_first=1e-3, nodes_per_interval=10))
            pair = assemble(ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
            values = solve_lowest(pair, 3).eigenvalues
            assert np.all(values > np.asarray(exact))
            if previous is not None:
                assert np.all(values < previous)
            previous = values

    # Rounding slack, relative to each level. Over 400 random draws from the
    # ranges below, the largest relative rise of a level under doubling was
    # 5.5e-14, and the largest relative excess of the exact level over a
    # computed one was 0 (a 1s converged to -1/2 to the last bit). The rises
    # are in levels already converged to their box value, and they stay at
    # 30 nodes per interval, so they are the solve's rounding, not the
    # quadrature: k nodes integrate the kinetic and overlap integrands
    # exactly, and the 1/r and 1/r^2 ones on the first interval, where the
    # trimmed splines vanish.
    NESTED_SLACK = 1e-12

    @settings(deadline=None)
    @given(
        order_k=st.integers(3, 8),
        extra_intervals=st.integers(2, 32),
        r_max=st.floats(5.0, 60.0),
        extra_nodes=st.integers(0, 4),
    )
    def test_variational_bound_and_monotone_refinement_on_nested_spaces(
        self, order_k, extra_intervals, r_max, extra_nodes
    ):
        # doubling the intervals of a linear grid halves its step exactly,
        # so the coarse breakpoints are fine ones and the spline spaces nest
        exact = np.array([[hydrogenic_energy(1.0, l + 1 + j) for j in range(3)] for l in (0, 1)])
        levels = []
        for n_intervals in (order_k + extra_intervals, 2 * (order_k + extra_intervals)):
            ws = build_workspace(GridSpec(n_splines=n_intervals + order_k - 1, order_k=order_k,
                                          r_max=r_max, knot_kind="linear",
                                          nodes_per_interval=order_k + extra_nodes))
            assert ws.basis.n_intervals == n_intervals
            levels.append(np.array([
                solve_lowest(assemble(ws, HYDROGEN, l, Pseudopotential.BARE_COULOMB), 3).eigenvalues
                for l in (0, 1)
            ]))
        coarse, fine = levels
        assert np.all(fine - coarse <= self.NESTED_SLACK * np.abs(coarse))
        for values in levels:
            assert np.all(values - exact >= -self.NESTED_SLACK * np.abs(exact))

    def test_negative_l_is_rejected(self, coarse_ws):
        with pytest.raises(ValueError):
            assemble(coarse_ws, HYDROGEN, -1, Pseudopotential.BARE_COULOMB)

    def test_non_binding_effective_charge_is_refused(self, coarse_ws):
        # Z = 1 with three electrons screens the s channel to Z_eff = 0
        atom = AtomSpec("X", 1, 3, 1, 0, 1)
        with pytest.raises(ModelDomainError):
            assemble(coarse_ws, atom, 0, Pseudopotential.SYMMETRY_DEPENDENT)


def _per_channel_pair(ws, atom, l, model):
    """(H, S) bands built per channel with three einsums and a looped scatter."""
    r, w = ws.quad.nodes, ws.quad.weights
    v = potential_value(model, r, atom, l)
    if l > 0:
        v = v + l * (l + 1) / (2.0 * r * r)
    vals, ders = design_tables(ws.basis, ws.quad)
    h_local = 0.5 * np.einsum("xq,xqa,xqb->xab", w, ders, ders)
    h_local += np.einsum("xq,xqa,xqb->xab", w * v, vals, vals)
    s_local = np.einsum("xq,xqa,xqb->xab", w, vals, vals)

    n_splines, k = ws.basis.n_splines, ws.basis.order_k
    n_iv, bw = h_local.shape[0], k - 1

    def scatter(local):
        band = np.zeros((2 * bw + 1, n_splines - 2))
        for a in range(k):
            for d in range(k - a):
                b = a + d
                lo, hi = max(0, 1 - a), min(n_iv - 1, n_splines - 2 - b)
                band[bw - d, lo + b - 1 : hi + b] += local[lo : hi + 1, a, b]
                if d:
                    band[bw + d, lo + a - 1 : hi + a] += local[lo : hi + 1, b, a]
        return band

    return scatter(h_local), scatter(s_local)


def _assert_band_close(band, reference, rel):
    # scale each stored column by its largest reference entry, so entries
    # that cancel between the kinetic and potential terms are still bounded
    scale = np.abs(reference).max(axis=0)
    assert np.all(np.abs(band - reference) <= rel * scale)


class TestSharedGridBands:
    """The workspace carries S, T, <1/r^2> and <1/r>, built once per grid,
    and assemble adds the channel's potential; it must agree with the
    per-channel formula."""

    @pytest.mark.parametrize("ws_name", ["paper_ws", "coarse_k4_ws"])
    @pytest.mark.parametrize("model", list(Pseudopotential))
    def test_matches_per_channel_formula(self, request, ws_name, model):
        ws = request.getfixturevalue(ws_name)
        for atom in (catalog_atom("He"), catalog_atom("Li"), catalog_atom("Na")):
            for l in range(4):
                pair = assemble(ws, atom, l, model)
                h_ref, s_ref = _per_channel_pair(ws, atom, l, model)
                _assert_band_close(pair.h_band, h_ref, 1e-13)
                _assert_band_close(pair.s_band, s_ref, 1e-13)

    def test_shared_bands_are_read_only(self, coarse_ws):
        first = assemble(coarse_ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
        with pytest.raises(ValueError):
            first.s_band[0, 0] = 1.0
        with pytest.raises(ValueError):
            first.s_band *= 2.0
        second = assemble(coarse_ws, HYDROGEN, 1, Pseudopotential.BARE_COULOMB)
        assert second.s_band is first.s_band
        # each channel's H is its own array, so writing one leaves the next alone
        first.h_band[:] = 0.0
        third = assemble(coarse_ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
        assert np.any(third.h_band != 0.0)

    @pytest.mark.parametrize("space", [lambda ws: ws, lambda ws: ws.seed],
                             ids=["basis", "seed-workspace"])
    def test_memoised_bands_are_shared_and_read_only(self, coarse_ws, space):
        ws = space(coarse_ws)
        assert space(coarse_ws) is ws
        pair = operators._channel_pair(ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
        assert pair.s_band is ws.s_band
        screening = ws.screening_band(3)
        assert ws.screening_band(3) is screening
        assert ws.screening_band(4) is not screening
        for band in (ws.s_band, ws.t_band, ws.r2_band, ws.r1_band):
            assert band.shape == ws.s_band.shape
        # D_Z keeps only its leading columns: all of its rows, at most n columns
        rows, n = ws.s_band.shape
        assert screening.shape[0] == rows and screening.shape[1] <= n
        for band in (ws.s_band, ws.t_band, ws.r2_band, ws.r1_band, screening):
            with pytest.raises(ValueError):
                band[0, -1] = 1.0


def _full_core_band(ws, z):
    """D_z = <B|(f_z - 1)/r|B> whole, every column summed from the spline
    values at every node."""
    w, r = ws.quad.weights, ws.quad.nodes
    values = design_tables(ws.basis, ws.quad)[0]
    return bsplines._grid_band(w * (screening_factor(r, z) - 1.0) / r, values, ws.basis.n_active)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def short_linear_ws():
    # r_max = 5: f_z is still below 1.0 at the last nodes for Z = 2 and 3
    return build_workspace(GridSpec(n_splines=40, order_k=5, r_max=5.0, knot_kind="linear"))


_SCREENED = [
    pytest.param("paper_ws", False, id="paper"),
    pytest.param("paper_ws", True, id="paper-seed"),
    pytest.param("coarse_ws", False, id="coarse"),
    pytest.param("short_linear_ws", False, id="short-linear"),
]
_SCREENED_SPACES = pytest.mark.parametrize("ws_name, on_seed", _SCREENED)

# the smallest grids make_knots takes (as in test_spectra's TestSmallestGrids):
# 2k + 1 or 2k + 2 splines, 5 to 13 intervals, whose seeds have 2 to 4; a
# head there reads a few leading intervals or all of them
_SMALLEST_GRIDS = {
    f"2k+{extra}-k{k}": GridSpec(n_splines=2 * k + extra, order_k=k, nodes_per_interval=k)
    for k in (3, 10) for extra in (1, 2)
}
# grids whose first node lies beyond 10 bohr, where f_z is 1.0 for every Z:
# 3 active splines, nodes at 10.6 and 39.4 bohr on the first interval; and 5
# active splines of order 3, the first node at 22.5 bohr
_F_Z_ONE_GRIDS = {
    "linear-k2-far": GridSpec(n_splines=5, order_k=2, knot_kind="linear", nodes_per_interval=2),
    "linear-k3-far": GridSpec(n_splines=7, order_k=3, knot_kind="linear", r_max=1000.0),
}
_GRIDS = {**_SMALLEST_GRIDS, **_F_Z_ONE_GRIDS}


def _last_off_one(ws, z):
    """I: the last interval where f_z is not 1.0 at some node, -1 if none."""
    off_one = np.flatnonzero((screening_factor(ws.quad.nodes, z) != 1.0).any(axis=1))
    return off_one[-1] if off_one.size else -1


class TestScreeningBandHead:
    """A workspace keeps D_Z = W_Z - R1 up to its last column that reads an
    interval where f_Z is not 1.0; that head, then zeros, is D_Z bit for
    bit, and a screened channel is its Coulomb channel of charge q - a plus
    a D_Z."""

    @pytest.mark.parametrize("ws_name, on_seed", _SCREENED + [
        pytest.param(name, on_seed, id=name + ("-seed" if on_seed else ""))
        for name in _SMALLEST_GRIDS for on_seed in (False, True)
    ] + [pytest.param(name, False, id=name) for name in _F_Z_ONE_GRIDS])
    @pytest.mark.parametrize("z", [2, 3, 12])
    def test_head_then_zeros_is_the_whole_core_band(self, request, ws_name, on_seed, z):
        if ws_name in _GRIDS:
            ws = build_workspace(_GRIDS[ws_name])
        else:
            ws = request.getfixturevalue(ws_name)
        ws = ws.seed if on_seed else ws
        head = ws.screening_band(z)
        k, n = ws.basis.order_k, ws.basis.n_active
        last = _last_off_one(ws, z)
        m = min(last + k - 1, n) if last >= 0 else 0
        assert head.shape == (2 * k - 1, m)
        zeros = np.zeros((2 * k - 1, n - m))
        assert _same_bits(np.hstack([head, zeros]), _full_core_band(ws, z))
        # minimal: the last column kept is not all zero
        if m:
            assert np.any(head[:, m - 1] != 0.0)
        # the head owns its columns, so no view keeps a wider band alive
        assert head.base is None

    @pytest.mark.parametrize("z", [2, 3])
    def test_whole_band_kept_where_f_z_never_reaches_one(self, short_linear_ws, z):
        ws = short_linear_ws
        # the last column reads the last interval, where f_z < 1.0
        assert np.all(screening_factor(ws.quad.nodes[-1], z) < 1.0)
        assert ws.screening_band(z).shape == ws.r1_band.shape

    @pytest.mark.parametrize("on_seed", [False, True], ids=["paper", "paper-seed"])
    def test_evaluates_only_the_intervals_its_head_reads(self, paper_ws, on_seed, monkeypatch):
        ws = bsplines._workspace(paper_ws.basis, paper_ws.quad)  # no D_Z built yet
        ws = ws.seed if on_seed else ws
        evaluate, spans = bsplines._values_and_derivs, []

        def recording(t, k, span, x):
            spans.append(span)
            return evaluate(t, k, span, x)

        monkeypatch.setattr(bsplines, "_values_and_derivs", recording)
        k, n_iv = ws.basis.order_k, ws.basis.n_intervals
        for z in range(2, 13):
            ws.screening_band(z)
            # up to the last interval where f_z is not 1.0 at some node:
            # D_z's integrand is 0.0 at every later node
            last = _last_off_one(ws, z)
            assert np.array_equal(spans.pop(), k - 1 + np.arange(last + 1))
            assert last + k < n_iv
        assert not spans

    @_SCREENED_SPACES
    def test_screened_channel_pair_is_the_full_band_sum(self, request, ws_name, on_seed):
        ws = request.getfixturevalue(ws_name)
        ws = ws.seed if on_seed else ws
        model = Pseudopotential.CENTRAL_SCREENING
        for symbol, l in (("Li", 0), ("Na", 1)):
            atom = catalog_atom(symbol)
            charge, screening = potential_terms(model, atom, l)
            assert screening
            reference = ws.t_band - (charge - screening) * ws.r1_band
            reference += screening * _full_core_band(ws, atom.Z)
            if l:
                reference += 0.5 * l * (l + 1) * ws.r2_band
            pair = _channel_pair(ws, atom, l, model)
            assert _same_bits(pair.h_band, reference)
            assert pair.s_band is ws.s_band

    @pytest.mark.parametrize("grid_name", list(_F_Z_ONE_GRIDS))
    @pytest.mark.parametrize("symbol", ["He", "Li", "Mg"])
    def test_no_head_where_f_z_is_one_at_every_node(self, grid_name, symbol):
        ws = build_workspace(_F_Z_ONE_GRIDS[grid_name])
        model, atom = Pseudopotential.CENTRAL_SCREENING, catalog_atom(symbol)
        assert ws.screening_band(atom.Z).shape[1] == 0
        for l in (0, 1):
            charge, screening = potential_terms(model, atom, l)
            assert screening
            # the Coulomb channel of the asymptotic charge q - a
            reference = ws.t_band - (charge - screening) * ws.r1_band
            if l:
                reference += 0.5 * l * (l + 1) * ws.r2_band
            assert _same_bits(_channel_pair(ws, atom, l, model).h_band, reference)

    @pytest.mark.parametrize("on_seed", [False, True], ids=["paper", "paper-seed"])
    def test_width_is_bounded_by_where_f_z_reaches_one(self, paper_ws, on_seed):
        ws = paper_ws.seed if on_seed else paper_ws
        k, n = ws.basis.order_k, ws.basis.n_active
        for z in range(2, 13):
            # Column j sums the intervals of spline j + 1, which start at
            # j - k + 2, so only the columns before I + k - 1 read an
            # interval where D_z's integrand is not 0.0
            m = ws.screening_band(z).shape[1]
            assert m == _last_off_one(ws, z) + k - 1 < n


def _sweep(model, r_max):
    """One Li s solve on each of 48 distinct small grids; weak references to
    every workspace the sweep built, seed workspaces included."""
    lithium, refs = catalog_atom("Li"), []
    for n_splines in range(100, 148):
        grid = GridSpec(n_splines=n_splines, order_k=5, r_max=r_max, nodes_per_interval=8)
        solve_channel(lithium, model, 0, 1, grid)
        ws = build_workspace(grid)
        refs.append(weakref.ref(ws))
        if "seed" in vars(ws):
            refs.append(weakref.ref(ws.seed))
    gc.collect()
    return refs


class TestBandOwnership:
    """The bands of a workspace live and die with it, so build_workspace's
    16-entry cache bounds the workspaces a grid sweep leaves alive."""

    def test_central_sweep_keeps_the_cached_workspaces_and_their_seeds(self):
        refs = _sweep(Pseudopotential.CENTRAL_SCREENING, r_max=36.0)
        assert len(refs) == 96
        assert sum(ref() is not None for ref in refs) <= 32

    def test_symmetry_sweep_keeps_the_cached_workspaces(self):
        # pure Coulomb channels are seeded in closed form and build no seed
        refs = _sweep(Pseudopotential.SYMMETRY_DEPENDENT, r_max=37.0)
        assert len(refs) == 48
        assert sum(ref() is not None for ref in refs) <= 16

    def test_an_evicted_workspace_dies_with_its_seed_and_bands(self):
        lithium, model = catalog_atom("Li"), Pseudopotential.CENTRAL_SCREENING
        grid = GridSpec(n_splines=90, order_k=5, r_max=38.0, nodes_per_interval=8)
        solve_channel(lithium, model, 0, 1, grid)
        ws = build_workspace(grid)
        refs = [weakref.ref(space) for space in (ws, ws.seed)]
        # the solve built the D_Z of each, held only by its workspace
        assert all(list(space._screening_bands) == [lithium.Z] for space in (ws, ws.seed))
        refs += [weakref.ref(space.screening_band(lithium.Z)) for space in (ws, ws.seed)]
        refs += [weakref.ref(space.t_band) for space in (ws, ws.seed)]
        for n_splines in range(91, 107):  # 16 more grids evict it from the cache
            build_workspace(GridSpec(n_splines=n_splines, order_k=5, r_max=38.0,
                                     nodes_per_interval=8))
        del ws
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestBandHelpers:
    def test_band_shape_paper_settings(self, paper_ws):
        pair = assemble(paper_ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
        assert pair.dimension == 598
        assert pair.bandwidth == 9
        assert pair.h_band.shape == pair.s_band.shape == (19, 598)

    def test_band_matvec_matches_dense(self, coarse_ws):
        pair = assemble(coarse_ws, HYDROGEN, 1, Pseudopotential.BARE_COULOMB)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(pair.dimension)
        dense = band_to_dense(pair.h_band)
        product = general_matvec(pair.h_band, x)
        assert product == pytest.approx(dense @ x, rel=1e-13)
        # a stack multiplies row by row, each exactly as on its own
        stack = np.vstack([x, rng.standard_normal((3, pair.dimension))])
        rows = general_matvec(pair.h_band, stack)
        assert rows.shape == stack.shape
        for row, vector in zip(rows, stack):
            assert np.array_equal(row, general_matvec(pair.h_band, vector))
        assert np.array_equal(rows[0], product)
        # long double in, long double out, to long-double rounding
        extended = general_matvec(pair.h_band.astype(np.longdouble), x.astype(np.longdouble))
        assert extended.dtype == np.longdouble
        reference = dense.astype(np.longdouble) @ x.astype(np.longdouble)
        scale = np.abs(dense).astype(np.longdouble) @ np.abs(x).astype(np.longdouble)
        assert np.all(np.abs(extended - reference) <= 64 * np.finfo(np.longdouble).eps * scale)


def _active_values(basis, points):
    """The active splines of ``basis`` at ``points``, one column each."""
    return np.column_stack([eval_bspline(basis, i, points) for i in basis.active_range])


def _seed_coefficients(ws):
    """Dense P: the active splines on every fourth breakpoint of ``ws`` in its
    active splines.

    Least squares on eval_bspline values at the Greville abscissae of the
    active splines of ``ws``, where collocation is unisolvent
    (Schoenberg-Whitney). One step of iterative refinement makes the tiny
    coefficients near the origin accurate to their own size, not to the
    largest in their column.
    """
    basis, k = ws.basis, ws.basis.order_k
    kept = basis.breakpoints[np.append(np.arange(0, basis.n_intervals, 4), basis.n_intervals)]
    seed = KnotBasis(k, kept)
    clamped = np.concatenate([np.zeros(k - 1), kept, np.full(k - 1, basis.r_max)])
    assert np.array_equal(seed.knots, clamped)
    assert seed.n_splines == len(kept) + k - 2
    points = np.array([basis.knots[i + 1 : i + k].mean() for i in basis.active_range])
    fine = _active_values(basis, points)
    coarse = _active_values(seed, points)
    p = np.linalg.lstsq(fine, coarse, rcond=None)[0]
    p += np.linalg.lstsq(fine, coarse - fine @ p, rcond=None)[0]
    assert np.max(np.abs(fine @ p - coarse)) <= 1e-14
    return p


class TestSeedPair:
    @pytest.mark.parametrize("ws_name", ["paper_ws", "coarse_k4_ws", "coarse_ws"])
    def test_is_the_galerkin_restriction(self, request, ws_name):
        ws = request.getfixturevalue(ws_name)
        p = _seed_coefficients(ws)
        bw = ws.basis.order_k - 1
        # the overlap only: the seed's k-node rule integrates S exactly, while
        # H's 1/r-type bands are the seed grid's own quadrature
        reference = p.T @ band_to_dense(ws.s_band) @ p
        # splines of order k on the seed knots couple only bw neighbours
        outside = np.abs(np.triu(reference, bw + 1)).max(axis=0)
        assert np.all(outside <= 1e-13 * np.abs(reference).max(axis=0))
        _assert_band_close(ws.seed.s_band, dense_to_band(reference, bw), 1e-13)

    @pytest.mark.parametrize("ws_name", ["paper_ws", "coarse_k4_ws", "coarse_ws"])
    def test_eigenvalues_bound_the_pair_from_above(self, request, ws_name):
        ws = request.getfixturevalue(ws_name)
        lithium, model = catalog_atom("Li"), Pseudopotential.CENTRAL_SCREENING
        pair = assemble(ws, lithium, 1, model)
        seed = _channel_pair(ws.seed, lithium, 1, model)
        full = sla.eigh(band_to_dense(pair.h_band), band_to_dense(pair.s_band), eigvals_only=True)
        coarse = sla.eigh(band_to_dense(seed.h_band), band_to_dense(seed.s_band),
                          eigvals_only=True)
        assert seed.dimension < pair.dimension
        # the 12 lowest, or every level where the seed space holds fewer
        levels = min(12, seed.dimension)
        assert np.all(coarse[:levels] >= full[:levels] - 1e-12)

    def test_is_the_channel_pair_on_the_seed_workspace_without_an_assemble_call(
        self, monkeypatch
    ):
        # a screened solve_channel calls assemble exactly once
        lithium, model = catalog_atom("Li"), Pseudopotential.CENTRAL_SCREENING
        grid = GridSpec(n_splines=40, order_k=5, r_max=30.0, r_first=1e-3,
                        nodes_per_interval=10)
        assert potential_terms(model, lithium, 1)[1] != 0.0
        expected = solve_channel(lithium, model, 1, 3, grid)
        ws, assemble_calls, band_sums = build_workspace(grid), [], []

        def counted(fn, calls):
            return lambda *args: calls.append(args[0]) or fn(*args)

        # at every name the package looks the two up by
        for module in (operators, spectra):
            for name, fn, calls in (("assemble", assemble, assemble_calls),
                                    ("_channel_pair", _channel_pair, band_sums)):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(fn, calls))
        assert solve_channel(lithium, model, 1, 3, grid) == expected
        # one assemble on the workspace; the seed pair sums the bands of its seed
        assert assemble_calls == [ws]
        assert band_sums == [ws, ws.seed]

    def test_seed_overlap_is_shared_and_read_only(self, coarse_ws):
        first, second = (
            _channel_pair(coarse_ws.seed, HYDROGEN, l, Pseudopotential.BARE_COULOMB)
            for l in (0, 1)
        )
        assert second.s_band is first.s_band
        with pytest.raises(ValueError):
            first.s_band[0, 0] = 1.0
