import numpy as np
import pytest
import scipy.linalg as sla

from conftest import band_to_dense, brute_force_matrix, dense_to_band

from atomscreen.bsplines import (
    GridSpec,
    KnotBasis,
    _seed_workspace,
    build_workspace,
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
    potential_value,
)
from atomscreen import operators
from atomscreen.operators import OperatorPair, _seed_pair, assemble, general_matvec

HYDROGEN = AtomSpec("H", 1, 1, 1, 0, 1)


@pytest.fixture(scope="module")
def paper_ws():
    return build_workspace()


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

    def test_overlap_row_sums_integrate_central_splines(self, coarse_ws):
        basis, quad = coarse_ws.basis, coarse_ws.quad
        pair = assemble(coarse_ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
        s_dense = band_to_dense(pair.s_band)
        k = basis.order_k
        # boundary splines are trimmed, so row sums only reproduce the
        # integral for splines whose support avoids both box ends
        for active in range(k, basis.n_active - k):
            global_index = active + 1
            integral = np.sum(
                coarse_ws.tables.values[:, :, :] * quad.weights[:, :, None],
                axis=(0, 1),
            )
            # values[iv, q, a] holds spline iv + a; gather its pieces
            total = 0.0
            for iv in range(basis.n_intervals):
                a = global_index - iv
                if 0 <= a < k:
                    total += np.sum(quad.weights[iv] * coarse_ws.tables.values[iv, :, a])
            assert s_dense[active].sum() == pytest.approx(total, rel=1e-12)

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
        for nodes in (20, 40):
            grid = GridSpec(nodes_per_interval=nodes)
            ws = build_workspace(grid)
            pair = assemble(ws, lithium, 0, Pseudopotential.CENTRAL_SCREENING)
            results.append(solve_lowest(pair, 4).eigenvalues)
        assert np.max(np.abs(results[0] - results[1])) <= 1e-10

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
    vals, ders = ws.tables.values, ws.tables.derivs
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
    """assemble builds S, T and <1/r^2> once per grid and adds the
    channel's potential; it must agree with the per-channel formula."""

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

    @pytest.mark.parametrize("space", [lambda ws: ws, _seed_workspace],
                             ids=["basis", "seed-workspace"])
    def test_memoised_bands_are_shared_and_read_only(self, coarse_ws, space):
        ws = space(coarse_ws)
        assert space(coarse_ws) is ws
        bands = operators._grid_bands(ws)
        assert operators._grid_bands(ws) is bands
        screening = operators._screening_band(ws, 3)
        assert operators._screening_band(ws, 3) is screening
        assert operators._screening_band(ws, 4) is not screening
        for band in (bands.s_band, bands.t_band, bands.r2_band, bands.r1_band, screening):
            assert band.shape == bands.s_band.shape
            with pytest.raises(ValueError):
                band[0, -1] = 1.0


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
        assert general_matvec(pair.h_band, x) == pytest.approx(dense @ x, rel=1e-13)


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
    seed = KnotBasis(order_k=k, n_splines=len(kept) + k - 2, r_max=basis.r_max, breakpoints=kept,
                     knots=np.concatenate([np.zeros(k - 1), kept, np.full(k - 1, basis.r_max)]))
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
        for atom, l in ((catalog_atom("He"), 0), (catalog_atom("Na"), 2)):
            pair = assemble(ws, atom, l, Pseudopotential.SYMMETRY_DEPENDENT)
            seed = _seed_pair(ws, pair)
            for band, full in ((seed.h_band, pair.h_band), (seed.s_band, pair.s_band)):
                reference = p.T @ band_to_dense(full) @ p
                # splines of order k on the seed knots couple only bw neighbours
                outside = np.abs(np.triu(reference, bw + 1)).max(axis=0)
                assert np.all(outside <= 1e-13 * np.abs(reference).max(axis=0))
                _assert_band_close(band, dense_to_band(reference, bw), 1e-13)

    @pytest.mark.parametrize("ws_name", ["paper_ws", "coarse_k4_ws", "coarse_ws"])
    def test_eigenvalues_bound_the_pair_from_above(self, request, ws_name):
        ws = request.getfixturevalue(ws_name)
        pair = assemble(ws, catalog_atom("Li"), 1, Pseudopotential.CENTRAL_SCREENING)
        seed = _seed_pair(ws, pair)
        full = sla.eigh(band_to_dense(pair.h_band), band_to_dense(pair.s_band), eigvals_only=True)
        coarse = sla.eigh(band_to_dense(seed.h_band), band_to_dense(seed.s_band),
                          eigvals_only=True)
        assert seed.dimension < pair.dimension
        # the 12 lowest, or every level where the seed space holds fewer
        levels = min(12, seed.dimension)
        assert np.all(coarse[:levels] >= full[:levels] - 1e-12)

    def test_pair_built_from_bands_has_no_seed_pair(self, coarse_ws):
        pair = assemble(coarse_ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
        with pytest.raises(ValueError, match="assembled"):
            _seed_pair(coarse_ws, OperatorPair(h_band=pair.h_band, s_band=pair.s_band))

    def test_seed_overlap_is_shared_and_read_only(self, coarse_ws):
        first, second = (
            _seed_pair(coarse_ws, assemble(coarse_ws, HYDROGEN, l, Pseudopotential.BARE_COULOMB))
            for l in (0, 1)
        )
        assert second.s_band is first.s_band
        with pytest.raises(ValueError):
            first.s_band[0, 0] = 1.0
