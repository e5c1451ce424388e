import importlib.util
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import CountingSeeds, band_to_dense, dense_to_band, random_banded_pair

from atomscreen import eigensolve, operators
from atomscreen.bsplines import PAPER_GRID, GridSpec, build_workspace
from atomscreen.cli import _resolve_solve_atom
from atomscreen.eigensolve import (
    DegenerateSpectrumError,
    EigensolverError,
    solve_lowest,
)
from atomscreen.model import (
    AtomSpec,
    Pseudopotential,
    catalog_atom,
    effective_charge,
    hydrogenic_energy,
)
from atomscreen.operators import OperatorPair, _seed_pair, assemble, general_matvec

HYDROGEN = AtomSpec("H", 1, 1, 1, 0, 1)
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def channel_requests(seed):
    """The benchmark's channel-scan request stream for ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.channel_requests(seed)


class _CountingLapack:
    """Stands in for the ``lapack`` module the solver calls, counting dgbtrf."""

    def __init__(self, module):
        self._module = module
        self.factorizations = 0

    def __getattr__(self, name):
        return getattr(self._module, name)

    def dgbtrf(self, *args, **kwargs):
        self.factorizations += 1
        return self._module.dgbtrf(*args, **kwargs)


@pytest.fixture(scope="module")
def hydrogen_solution():
    ws = build_workspace()
    pair = assemble(ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
    return pair, solve_lowest(pair, 6)


class TestSolveLowest:
    def test_hydrogen_spectrum(self, hydrogen_solution):
        _, solution = hydrogen_solution
        expected = [-0.5, -0.125, -1.0 / 18.0, -0.03125]
        for value, target in zip(solution.eigenvalues, expected):
            assert value == pytest.approx(target, abs=1e-9)

    def test_lithium_p_channel_matches_analytic(self):
        ws = build_workspace()
        lithium = catalog_atom("Li")
        pair = assemble(ws, lithium, 1, Pseudopotential.SYMMETRY_DEPENDENT)
        solution = solve_lowest(pair, 1)
        exact = hydrogenic_energy(effective_charge(3, 3, 1), 2)
        assert exact == pytest.approx(-0.196201, abs=1e-6)
        assert solution.eigenvalues[0] == pytest.approx(exact, abs=1e-7)

    def test_full_spectrum_on_small_pair_matches_dense(self):
        rng = np.random.default_rng(5)
        pair = random_banded_pair(rng, 10, 3)
        solution = solve_lowest(pair, 10)
        reference = sla.eigh(
            band_to_dense(pair.h_band), band_to_dense(pair.s_band), eigvals_only=True
        )
        assert solution.eigenvalues == pytest.approx(reference, abs=1e-12)

    def test_random_pairs_match_dense_reference(self):
        rng = np.random.default_rng(12345)
        for dim, bandwidth in ((8, 2), (17, 4), (30, 6), (30, 1)):
            pair = random_banded_pair(rng, dim, bandwidth)
            k = max(1, dim // 2)
            solution = solve_lowest(pair, k)
            reference = sla.eigh(
                band_to_dense(pair.h_band), band_to_dense(pair.s_band),
                eigvals_only=True,
            )[:k]
            rel = np.abs(solution.eigenvalues - reference) / np.abs(reference)
            assert np.max(rel) <= 1e-11

    def test_shift_invariance(self):
        rng = np.random.default_rng(99)
        pair = random_banded_pair(rng, 25, 4)
        sigma = 3.25
        shifted = OperatorPair(h_band=pair.h_band + sigma * pair.s_band, s_band=pair.s_band)
        base = solve_lowest(pair, 10).eigenvalues
        moved = solve_lowest(shifted, 10).eigenvalues
        # the absolute 1e-12 bound presumes hartree-scale spectra; random
        # pairs can carry O(100) eigenvalues, so scale accordingly
        scale = max(1.0, float(np.max(np.abs(base))))
        assert np.max(np.abs(moved - (base + sigma))) <= 1e-12 * scale

    def test_vectors_are_s_orthonormal(self, hydrogen_solution):
        pair, solution = hydrogen_solution
        gram = np.empty((solution.count, solution.count))
        for i in range(solution.count):
            s_ci = general_matvec(pair.s_band, solution.vectors[:, i])
            for j in range(solution.count):
                gram[i, j] = solution.vectors[:, j] @ s_ci
        assert np.max(np.abs(gram - np.eye(solution.count))) <= 1e-10

    def test_residuals_small_and_ascending(self, hydrogen_solution):
        _, solution = hydrogen_solution
        assert np.all(solution.residual_norms <= 1e-10)
        assert np.all(np.diff(solution.eigenvalues) > 0)

    def test_rejects_bad_state_count(self, hydrogen_solution):
        pair, _ = hydrogen_solution
        with pytest.raises(ValueError):
            solve_lowest(pair, 0)
        with pytest.raises(ValueError):
            solve_lowest(pair, pair.dimension + 1)

    def test_rejects_indefinite_overlap(self):
        rng = np.random.default_rng(1)
        pair = random_banded_pair(rng, 12, 3)
        broken = OperatorPair(h_band=pair.h_band, s_band=-pair.s_band)
        with pytest.raises(EigensolverError):
            solve_lowest(broken, 2)

    def test_degenerate_spectrum_fails_loudly(self):
        rng = np.random.default_rng(2)
        pair = random_banded_pair(rng, 12, 3)
        # H = S makes every eigenvalue exactly 1
        degenerate = OperatorPair(h_band=pair.s_band.copy(), s_band=pair.s_band)
        with pytest.raises(DegenerateSpectrumError):
            solve_lowest(degenerate, 3)


class TestBandedPath:
    def test_large_grid_never_holds_a_dense_matrix(self):
        ws = build_workspace(GridSpec(n_splines=1500))
        pair = assemble(ws, catalog_atom("Li"), 0, Pseudopotential.SYMMETRY_DEPENDENT)
        tracemalloc.start()
        try:
            solution = solve_lowest(pair, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense 1498 x 1498 float64 matrix alone is 17.9 MB
        assert peak < 8e6
        exact = hydrogenic_energy(effective_charge(3, 3, 0), 1)
        assert solution.eigenvalues[0] == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("model", [Pseudopotential.SYMMETRY_DEPENDENT,
                                       Pseudopotential.BARE_COULOMB])
    @pytest.mark.parametrize("name", ["He", "Li", "Na", "Mg"])
    def test_coulomb_channels_on_the_oracle(self, name, model):
        ws = build_workspace()
        atom = catalog_atom(name)
        checked = 0
        for l in range(4):
            if model is Pseudopotential.BARE_COULOMB:
                z = atom.Z
            else:
                z = effective_charge(atom.Z, atom.n_electrons, l)
            solution = solve_lowest(assemble(ws, atom, l, model), 6)
            for nu, value in enumerate(solution.eigenvalues, start=l + 1):
                # states reaching past a third of the box feel its wall
                if (3 * nu * nu - l * (l + 1)) / (2 * z) > PAPER_GRID.r_max / 3:
                    continue
                assert abs(value - hydrogenic_energy(z, nu)) <= 1e-12, (l, nu)
                checked += 1
        assert checked >= 18

    @pytest.mark.parametrize(("name", "model", "l", "k"), [
        ("Li", Pseudopotential.SYMMETRY_DEPENDENT, 0, 6),
        ("Na", Pseudopotential.CENTRAL_SCREENING, 1, 12),
    ], ids=["Li-symmetry-s", "Na-central-p"])
    def test_two_factorizations_per_state(self, name, model, l, k, monkeypatch):
        # one LU at the seed for inverse iteration, one for the refinement
        pair = assemble(build_workspace(), catalog_atom(name), l, model)
        counting = _CountingLapack(eigensolve.lapack)
        monkeypatch.setattr(eigensolve, "lapack", counting)
        solve_lowest(pair, k)
        assert counting.factorizations == 2 * k

    @pytest.mark.parametrize("k", [1, 12])
    def test_one_extended_precision_pass(self, k, monkeypatch):
        # the refinement forms H c and S c once in long double and updates
        # them by double-precision products of the correction
        ws = build_workspace()
        pair = assemble(ws, catalog_atom("Na"), 1, Pseudopotential.CENTRAL_SCREENING)
        seeds = eigensolve._sturm_seeds(_seed_pair(ws, pair), k + 1)
        extended, multiply = [], operators.general_matvec

        def counting(rows, x):
            if np.result_type(rows, x) == np.longdouble:
                extended.append(x.shape)
            return multiply(rows, x)

        monkeypatch.setattr(eigensolve, "general_matvec", counting)
        solution = solve_lowest(pair, k, seeds=seeds)
        assert extended == [(k, pair.dimension)] * 2
        assert np.all(solution.residual_norms <= 1e-10)

    def test_seeds_exact_to_the_last_bit(self):
        # integer eigenvalues make every shifted LU exactly singular
        n = 8
        h = np.diag(np.arange(1.0, n + 1))
        pair = OperatorPair(h_band=dense_to_band(h, 2), s_band=dense_to_band(np.eye(n), 2))
        solution = solve_lowest(pair, n)
        assert np.array_equal(solution.eigenvalues, np.arange(1.0, n + 1))
        assert np.allclose(np.abs(solution.vectors), np.eye(n), atol=1e-15)


class TestInertiaCount:
    def test_matches_dense_eigenvalues_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for dim, bandwidth in ((8, 2), (17, 4), (30, 6), (30, 1), (25, 3)):
            pair = random_banded_pair(rng, dim, bandwidth)
            values = sla.eigh(band_to_dense(pair.h_band), band_to_dense(pair.s_band),
                              eigvals_only=True)
            shifts = np.concatenate([[values[0] - 1.0], 0.5 * (values[1:] + values[:-1]),
                                     [values[-1] + 1.0]])
            for below, sigma in enumerate(shifts):
                assert eigensolve._count_below(pair, sigma) == below, (dim, bandwidth, below)

    def test_singular_pivot_is_refused(self):
        n = 8
        pair = OperatorPair(h_band=dense_to_band(np.diag(np.arange(1.0, n + 1)), 2),
                            s_band=dense_to_band(np.eye(n), 2))
        assert eigensolve._count_below(pair, 1.5) == 1
        # H - 1 S has a zero first pivot
        assert eigensolve._count_below(pair, 1.0) is None

    def test_growing_pivot_update_is_refused(self):
        # blocks of one row: a first pivot of 1e-9 makes the second block's
        # update 1e9, past _PIVOT_GROWTH_LIMIT times that block's scale of 1
        h = np.diag([1.0 + 1e-9, 2.0, 3.0, 4.0]) + np.diag([1.0, 0.0, 0.0], 1)
        pair = OperatorPair(h_band=dense_to_band(h + np.triu(h, 1).T, 1),
                            s_band=dense_to_band(np.eye(4), 1))
        assert eigensolve._count_below(pair, 0.5) == 1
        assert eigensolve._count_below(pair, 1.0) is None

    def test_agrees_with_dsbgvx_on_channel_scan_draws(self):
        ws = build_workspace()
        draws = 0
        for request in islice(channel_requests(7), 100):
            l, k = request["l"], request["k"]
            atom = _resolve_solve_atom(request["Z"], request["n"], l, 3)[0]
            pair = assemble(ws, atom, l, Pseudopotential(request["model"]))
            seeds = eigensolve._sturm_seeds(pair, k + 1)
            refined = eigensolve._refined_pairs(pair, k, seeds).eigenvalues
            for j in range(k):
                midpoint = 0.5 * (seeds[j] + seeds[j + 1])
                assert eigensolve._count_below(pair, midpoint) == j + 1, (request, j)
                assert eigensolve._count_below(pair, refined[j] - 1e-10) == j, (request, j)
                assert eigensolve._count_below(pair, refined[j] + 1e-10) == j + 1, (request, j)
            draws += 1
        assert draws == 100


class TestCoarseSeeds:
    # Hydrogen p seeds pass every guard on the s pair, as they miss only its
    # 1s; the inertia count (4 below sigma, not 3) catches them. He+ s seeds
    # fail the nearest-seed guard.
    @pytest.mark.parametrize(("seed_atom", "seed_l"), [
        (HYDROGEN, 1),
        (AtomSpec("He+", 2, 1, 1, 0, 1), 0),
    ], ids=["other-l", "other-Z"])
    def test_seeds_of_another_channel_fall_back(self, seed_atom, seed_l, monkeypatch):
        model = Pseudopotential.BARE_COULOMB
        ws = build_workspace()
        pair = assemble(ws, HYDROGEN, 0, model)
        coarse = _seed_pair(ws, assemble(ws, seed_atom, seed_l, model))
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        seeded = solve_lowest(pair, 3, seeds=eigensolve._sturm_seeds(coarse, 4))
        assert counting.dimensions == [coarse.dimension, pair.dimension]
        plain = solve_lowest(pair, 3)
        for field in ("eigenvalues", "vectors", "residual_norms"):
            assert np.array_equal(getattr(seeded, field), getattr(plain, field)), field

    @pytest.mark.parametrize(("name", "model", "l", "k"), [
        ("Li", Pseudopotential.SYMMETRY_DEPENDENT, 0, 12),
        ("Na", Pseudopotential.CENTRAL_SCREENING, 1, 6),
        ("Mg", Pseudopotential.BARE_COULOMB, 2, 3),
    ], ids=["Li-symmetry-s", "Na-central-p", "Mg-bare-d"])
    def test_coarse_seeds_give_the_fine_solve(self, name, model, l, k, monkeypatch):
        ws = build_workspace()
        pair = assemble(ws, catalog_atom(name), l, model)
        coarse = _seed_pair(ws, pair)
        seeding = CountingSeeds(eigensolve._sturm_seeds)
        factoring = _CountingLapack(eigensolve.lapack)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", seeding)
        monkeypatch.setattr(eigensolve, "lapack", factoring)
        seeded = solve_lowest(pair, k, seeds=eigensolve._sturm_seeds(coarse, k + 1)).eigenvalues
        assert seeding.dimensions == [coarse.dimension]
        # as on fine seeds, two LUs per state: the inertia count factors no band LU
        assert factoring.factorizations == 2 * k
        assert np.max(np.abs(seeded - solve_lowest(pair, k).eigenvalues)) <= 1e-13

    def test_too_small_coarse_pair_is_not_used(self, monkeypatch):
        # its 4 seeds leave no (k + 1)-th seed to place the count's shift
        pair = random_banded_pair(np.random.default_rng(3), 20, 2)
        coarse = random_banded_pair(np.random.default_rng(4), 4, 2)
        seeds = eigensolve._sturm_seeds(coarse, coarse.dimension)
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        solve_lowest(pair, 4, seeds=seeds)
        assert counting.dimensions == [pair.dimension]


class TestOperatorPair:
    def test_dimension_is_the_overlap_column_count(self):
        pair = random_banded_pair(np.random.default_rng(5), 12, 3)
        assert pair.dimension == pair.s_band.shape[1] == 12
        assert pair.bandwidth == 3
        assert pair.h_band.shape == pair.s_band.shape == (7, 12)

    def test_refuses_bands_it_would_misread(self):
        rng = np.random.default_rng(6)
        general = random_banded_pair(rng, 12, 3)
        with pytest.raises(ValueError, match="same banded shape"):
            OperatorPair(h_band=general.h_band, s_band=general.s_band[:, :-1])
        # upper banded storage: bw + 1 rows, read as a general band
        for bw, match in ((3, "odd number of rows"), (2, "mirror")):
            upper = random_banded_pair(rng, 12, bw)
            with pytest.raises(ValueError, match=match):
                OperatorPair(h_band=upper.h_band[: bw + 1], s_band=upper.s_band[: bw + 1])
        asymmetric = general.h_band.copy()
        asymmetric[4, 2] += 1.0
        with pytest.raises(ValueError, match="mirror"):
            OperatorPair(h_band=asymmetric, s_band=general.s_band)


class TestRayleighQuotient:
    def test_equals_eigenvalue(self, hydrogen_solution):
        pair, solution = hydrogen_solution
        for state in range(solution.count):
            c = solution.vectors[:, state]
            quotient = (c @ general_matvec(pair.h_band, c)) / (c @ general_matvec(pair.s_band, c))
            assert quotient == pytest.approx(solution.eigenvalues[state], abs=1e-10)
