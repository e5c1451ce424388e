import importlib.util
import os
import platform
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from conftest import CountingSeeds, band_to_dense, dense_to_band, random_banded_pair

from atomscreen import eigensolve, operators, spectra
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
from atomscreen.operators import OperatorPair, _channel_pair, assemble, general_matvec

HYDROGEN = AtomSpec("H", 1, 1, 1, 0, 1)
ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
#: Solves the first 100 channel-scan draws of seed 7 twice on the paper grid
#: and prints the minor page faults of the second pass per channel.
WARM_FAULTS_PROBE = """
import importlib.util, resource, sys
from itertools import islice
from atomscreen import cli, spectra
from atomscreen.bsplines import PAPER_GRID, build_workspace
from atomscreen.model import Pseudopotential
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
build_workspace(PAPER_GRID)
channels = [
    (cli._resolve_solve_atom(r["Z"], r["n"], r["l"], 3)[0], Pseudopotential(r["model"]),
     r["l"], r["k"])
    for r in islice(workloads.channel_requests(7), 100)
]
for channel in channels:
    spectra.solve_channel(*channel)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for channel in channels:
    spectra.solve_channel(*channel)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(channels))
"""


def channel_requests(seed):
    """The benchmark's channel-scan request stream for ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.channel_requests(seed)


class _CountingLapack:
    """Stands in for the ``lapack`` module the solver calls, counting the
    calls of each routine."""

    def __init__(self, module):
        self._module = module
        self.calls = Counter()

    def __getattr__(self, name):
        routine = getattr(self._module, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return routine(*args, **kwargs)

        return counted

    @property
    def factorizations(self):
        """Band LUs (dgbtrf); the inertia count's dpbtrf is a Cholesky."""
        return self.calls["dgbtrf"]


def largest_end_update(pair, sigma):
    """Largest |pivot - Gram| / max |pivot| over every whole block that the
    inertia count's head or tail Cholesky run factors on H - sigma S, padded
    with identity rows to whole blocks as the count pads it; the Gram is
    U^T U from the head and R^T R reversed from the tail. Asserts first that
    0 <= pivot - Gram <= pivot (Loewner order) from the eigenvalues of both
    differences, each to rounding."""
    bw, n = pair.bandwidth, pair.dimension
    n_blocks = -(-n // bw)
    general = np.zeros((2 * bw + 1, n_blocks * bw))
    general[:, :n] = pair.h_band - sigma * pair.s_band
    general[bw, n:] = 1.0
    dense = band_to_dense(general)
    head = eigensolve.lapack.dpbtrf(general[: bw + 1])
    tail = eigensolve.lapack.dpbtrf(general[::-1, ::-1][: bw + 1])
    largest = 0.0
    for (factor, info), reverse in ((head, False), (tail, True)):
        for q in range(n_blocks if info == 0 else (info - 1) // bw):
            p = n_blocks - 1 - q if reverse else q
            gram = eigensolve._gram(factor, bw, q)
            pivot = dense[p * bw:(p + 1) * bw, p * bw:(p + 1) * bw]
            update = pivot - (gram[::-1, ::-1] if reverse else gram)
            scale = np.abs(pivot).max()
            rounding = 4 * bw * (bw + 2) * np.finfo(np.float64).eps * scale
            assert np.linalg.eigvalsh(update)[0] >= -rounding  # 0 <= update
            assert np.linalg.eigvalsh(pivot - update)[0] >= -rounding  # update <= pivot
            largest = max(largest, np.abs(update).max() / scale)
    return largest


@pytest.fixture(scope="module")
def hydrogen_solution():
    ws = build_workspace(PAPER_GRID)
    pair = assemble(ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
    return pair, solve_lowest(pair, 6)


class TestSolveLowest:
    def test_hydrogen_spectrum(self, hydrogen_solution):
        _, solution = hydrogen_solution
        expected = [-0.5, -0.125, -1.0 / 18.0, -0.03125]
        for value, target in zip(solution.eigenvalues, expected):
            assert value == pytest.approx(target, abs=1e-9)

    def test_lithium_p_channel_matches_analytic(self):
        ws = build_workspace(PAPER_GRID)
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
        k = len(solution.eigenvalues)
        gram = np.empty((k, k))
        for i in range(k):
            s_ci = general_matvec(pair.s_band, solution.vectors[:, i])
            for j in range(k):
                gram[i, j] = solution.vectors[:, j] @ s_ci
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-10

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

    def test_each_gap_guard_names_its_gap(self):
        # one guard refuses the seeds, then the eigenvalues, of a pair whose
        # two lowest levels lie 4e-13 apart
        n = 8
        h = np.diag([1.0 - 2e-13, 1.0 + 2e-13, *range(3, n + 1)])
        pair = OperatorPair(h_band=dense_to_band(h, 2), s_band=dense_to_band(np.eye(n), 2))
        with pytest.raises(DegenerateSpectrumError, match="min seed gap 0.000e"):
            eigensolve._refined_pairs(pair, 2, np.array([1.0, 1.0, 3.0]))
        with pytest.raises(DegenerateSpectrumError, match="min gap 4"):
            eigensolve._refined_pairs(pair, 2, np.array([1.0 - 1e-11, 1.0 + 1e-11, 3.0]))


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
        ws = build_workspace(PAPER_GRID)
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
    def test_one_factorization_per_state(self, name, model, l, k, monkeypatch):
        # one LU at the seed, for inverse iteration and again for the refinement
        pair = assemble(build_workspace(PAPER_GRID), catalog_atom(name), l, model)
        counting = _CountingLapack(eigensolve.lapack)
        monkeypatch.setattr(eigensolve, "lapack", counting)
        solve_lowest(pair, k)
        assert counting.factorizations == k

    def test_kept_factors_stay_within_their_bound(self):
        # the solve holds k (3 bw + 1) n doubles of factors from step 2 to
        # step 4; twice that bounds its peak
        pair = assemble(build_workspace(PAPER_GRID), catalog_atom("Li"), 0,
                        Pseudopotential.SYMMETRY_DEPENDENT)
        k = 12
        factors_bytes = k * (3 * pair.bandwidth + 1) * pair.dimension * 8
        tracemalloc.start()
        try:
            solve_lowest(pair, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * factors_bytes

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's heap")
    def test_warm_solves_fault_in_no_fresh_pages(self):
        # the k factors of a solve are one block, which glibc keeps in the
        # heap from solve to solve; k separate factor bands were trimmed and
        # faulted in again by every solve, 170-260 faults per channel
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run([sys.executable, "-c", WARM_FAULTS_PROBE, str(WORKLOADS)],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < 20

    @pytest.mark.parametrize("k", [1, 12])
    def test_one_extended_precision_pass(self, k, monkeypatch):
        # the refinement forms H c and S c once in long double; after the
        # corrections d it forms only S d, as H d = r + seed S d
        ws = build_workspace(PAPER_GRID)
        sodium, model = catalog_atom("Na"), Pseudopotential.CENTRAL_SCREENING
        pair = assemble(ws, sodium, 1, model)
        seeds = eigensolve._sturm_seeds(_channel_pair(ws.seed, sodium, 1, model), k + 1)
        products, multiply = [], operators.general_matvec

        def counting(rows, x):
            products.append((np.result_type(rows, x), x.shape))
            return multiply(rows, x)

        monkeypatch.setattr(eigensolve, "general_matvec", counting)
        solution = solve_lowest(pair, k, seeds=seeds)
        stack = (k, pair.dimension)
        extended = [i for i, (dtype, _) in enumerate(products) if dtype == np.longdouble]
        assert [products[i][1] for i in extended] == [stack] * 2
        assert products[extended[-1] + 1:] == [(np.float64, stack)]
        assert np.all(solution.residual_norms <= 1e-10)

    @pytest.mark.parametrize(("name", "model", "l", "k"), [
        ("Na", Pseudopotential.CENTRAL_SCREENING, 1, 12),
        ("Li", Pseudopotential.SYMMETRY_DEPENDENT, 0, 6),
        ("Mg", Pseudopotential.CENTRAL_SCREENING, 0, 3),
    ], ids=["Na-central-p", "Li-symmetry-s", "Mg-central-s"])
    def test_residual_norms_are_those_of_the_returned_pairs(self, name, model, l, k):
        # the norms are read from the updated products, not recomputed;
        # rounding the vectors to double moves a residual by about eps
        ws = build_workspace(PAPER_GRID)
        atom = catalog_atom(name)
        pair = assemble(ws, atom, l, model)
        coarse = _channel_pair(ws.seed, atom, l, model)
        solution = solve_lowest(pair, k, seeds=eigensolve._sturm_seeds(coarse, k + 1))
        vectors = solution.vectors.T.astype(np.longdouble)
        hc = general_matvec(pair.h_band.astype(np.longdouble), vectors)
        sc = general_matvec(pair.s_band.astype(np.longdouble), vectors)
        residual = hc - solution.eigenvalues[:, None] * sc
        h_norm1 = band_to_dense(np.abs(pair.h_band)).sum(axis=0).max()
        recomputed = np.sqrt(np.einsum("ij,ij->i", residual, residual)) / h_norm1
        assert solution.residual_norms == pytest.approx(recomputed.astype(np.float64),
                                                        abs=np.finfo(np.float64).eps)
        gram = (vectors @ sc.T).astype(np.float64)
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-14

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
        # the last five are one-block pencils (n <= bw): A padded to one
        # block, which is the whole middle once A is indefinite
        for dim, bandwidth in ((8, 2), (17, 4), (30, 6), (30, 1), (25, 3),
                               (1, 1), (2, 2), (3, 5), (6, 6), (4, 9)):
            pair = random_banded_pair(rng, dim, bandwidth)
            values = sla.eigh(band_to_dense(pair.h_band), band_to_dense(pair.s_band),
                              eigvals_only=True)
            shifts = np.concatenate([[values[0] - 1.0], 0.5 * (values[1:] + values[:-1]),
                                     [values[-1] + 1.0]])
            for below, sigma in enumerate(shifts):
                assert eigensolve._count_below(pair, sigma) == below, (dim, bandwidth, below)

    @settings(deadline=None)
    @given(bw=st.integers(1, 6), blocks=st.integers(1, 6), data=st.data())
    def test_matches_dense_count_with_positive_definite_head_and_tail(self, bw, blocks, data):
        # H is diagonally dominant: positive rows on a head and a tail run of
        # drawn length, negative rows between them, so each run is positive
        # definite exactly as drawn. A drawn junction (1, 5, 1) with couplings
        # 2 makes three rows indefinite though each pair of them is positive
        # definite, so the head and tail runs overlap.
        n = bw * blocks + data.draw(st.integers(1, max(bw - 1, 1)))  # n % bw != 0 if bw > 1
        runs = st.one_of(st.just(0), st.just(bw), st.integers(0, n), st.just(n))
        head, tail = data.draw(runs), data.draw(runs)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        diagonal = -rng.uniform(1.0, 2.0, n)
        diagonal[:head] *= -1.0
        diagonal[n - tail:] = np.abs(diagonal[n - tail:])
        h = np.diag(diagonal)
        if n >= 3 and data.draw(st.booleans()):
            j = data.draw(st.integers(1, n - 2))
            h[j - 1:j + 2, j - 1:j + 2] = [[1.0, 2.0, 0.0], [2.0, 5.0, 2.0], [0.0, 2.0, 1.0]]
        scale = 0.05 / bw
        for d in range(1, bw + 1):
            h += np.diag(rng.uniform(-scale, scale, n - d), d)
        h = np.triu(h) + np.triu(h, 1).T
        s = np.eye(n) + np.diag(rng.uniform(-scale, scale, n - 1), 1)
        s = 0.5 * (s + s.T)
        pair = OperatorPair(h_band=dense_to_band(h, bw), s_band=dense_to_band(s, bw))
        values = sla.eigh(h, s, eigvals_only=True)
        # a shift near an eigenvalue makes H - sigma S nearly singular
        margin = 0.05 * np.abs(values).max()
        for sigma in (-3.0, 0.0, 3.0):
            if np.abs(values - sigma).min() >= margin:
                expected = int(np.count_nonzero(values < sigma))
                assert eigensolve._count_below(pair, sigma) == expected, sigma

    @pytest.mark.parametrize("bw", [1, 2, 3])
    @pytest.mark.parametrize("junction", [1, 2, 3])
    def test_matches_dense_count_where_head_and_tail_meet(self, bw, junction):
        # four blocks of bw rows, positive definite but for the 2 x 2
        # [[d, 2], [2, d']] across the first row of block ``junction``: the
        # head factors ``junction`` whole blocks and the tail the other
        # 4 - junction, so the middle is the two blocks that meet there,
        # each pivot the Gram of its run's factor
        n, row = 4 * bw, junction * bw
        rng = np.random.default_rng(10 * junction + bw)
        h = np.diag(rng.uniform(1.0, 1.5, n))
        for d in range(1, bw + 1):
            h += np.diag(rng.uniform(-0.05, 0.05, n - d) / bw, d)
        h[row - 1, row] = 2.0
        h = np.triu(h) + np.triu(h, 1).T
        pair = OperatorPair(h_band=dense_to_band(h, bw), s_band=dense_to_band(np.eye(n), bw))
        values = np.linalg.eigvalsh(h)

        def lowest(block):
            return np.linalg.eigvalsh(block)[0]

        for sigma in (-0.25, 0.0, 0.5):
            a = h - sigma * np.eye(n)
            assert lowest(a[:row, :row]) > 0 > lowest(a[:row + 1, :row + 1])  # the head's run
            assert lowest(a[row:, row:]) > 0 > lowest(a[row - 1:, row - 1:])  # the tail's
            expected = int(np.count_nonzero(values < sigma))
            assert eigensolve._count_below(pair, sigma) == expected, sigma

    def test_positive_definite_pencil_counts_from_the_head_alone(self, monkeypatch):
        pair = random_banded_pair(np.random.default_rng(8), 23, 4)
        lowest = sla.eigh(band_to_dense(pair.h_band), band_to_dense(pair.s_band),
                          eigvals_only=True)[0]
        counting = _CountingLapack(eigensolve.lapack)
        monkeypatch.setattr(eigensolve, "lapack", counting)
        assert eigensolve._count_below(pair, lowest - 0.5) == 0
        assert counting.calls == {"dpbtrf": 1}

    def test_tail_block_enters_the_middle_with_its_gram_pivot(self, monkeypatch):
        # blocks of one row: rows 0-1 are the head, rows 3-4 the tail. The
        # middle runs from the head's last block 1 to the tail's first block
        # 3, whose pivot is its Gram from the tail's factor: one dsysv per
        # block, and no other LAPACK call (no triangular inverse or solve)
        h = np.diag([2.0, 2.0, -1e-9, 1.0, 1.0]) + np.diag([0.5, 0.0, 1.0, 0.0], 1)
        pair = OperatorPair(h_band=dense_to_band(h + np.triu(h, 1).T, 1),
                            s_band=dense_to_band(np.eye(5), 1))
        counting = _CountingLapack(eigensolve.lapack)
        monkeypatch.setattr(eigensolve, "lapack", counting)
        assert eigensolve._count_below(pair, 0.5) == 1
        assert counting.calls == {"dpbtrf": 2, "dsysv": 3}
        assert eigensolve._count_below(pair, 0.0) is None

    def test_tail_update_outgrowing_its_junction_block_is_refused(self, monkeypatch):
        # blocks of one row: rows 0-1 are the head, rows 3-4 the tail, and
        # the middle row 2 of H - sigma S, -1e-9 - sigma, sends the tail's
        # first block 3 the update 1 / (-1e-9 - sigma): -2 against a row of
        # 0.5 at sigma = 0.5, -1e9 against a row of 1 at sigma = 0, where the
        # count refuses before it factors block 3
        h = np.diag([2.0, 2.0, -1e-9, 1.0, 1.0]) + np.diag([0.5, 0.0, 1.0, 0.0], 1)
        pair = OperatorPair(h_band=dense_to_band(h + np.triu(h, 1).T, 1),
                            s_band=dense_to_band(np.eye(5), 1))
        assert eigensolve._count_below(pair, 0.5) == 1
        counting = _CountingLapack(eigensolve.lapack)
        monkeypatch.setattr(eigensolve, "lapack", counting)
        assert eigensolve._count_below(pair, 0.0) is None
        assert counting.calls["dsysv"] == 2

    def test_singular_pivot_is_refused(self):
        n = 8
        pair = OperatorPair(h_band=dense_to_band(np.diag(np.arange(1.0, n + 1)), 2),
                            s_band=dense_to_band(np.eye(n), 2))
        assert eigensolve._count_below(pair, 1.5) == 1
        # H - 1 S has a zero first pivot
        assert eigensolve._count_below(pair, 1.0) is None

    def test_growing_pivot_update_is_refused(self, monkeypatch):
        # blocks of one row: a first pivot of 1e-9 makes the second block's
        # update 1e9, past _PIVOT_GROWTH_LIMIT times that block's scale of 1,
        # so the count refuses there, having factored the first block alone
        h = np.diag([1.0 + 1e-9, 2.0, 3.0, 4.0]) + np.diag([1.0, 0.0, 0.0], 1)
        pair = OperatorPair(h_band=dense_to_band(h + np.triu(h, 1).T, 1),
                            s_band=dense_to_band(np.eye(4), 1))
        assert eigensolve._count_below(pair, 0.5) == 1
        counting = _CountingLapack(eigensolve.lapack)
        monkeypatch.setattr(eigensolve, "lapack", counting)
        assert eigensolve._count_below(pair, 1.0) is None
        assert counting.calls == {"dpbtrf": 2, "dsysv": 1}

    def test_end_block_updates_lie_between_zero_and_their_pivot_on_random_runs(self):
        # the count holds no end block's update (pivot - Gram) to a growth
        # limit: as the Schur update of a positive definite run it is
        # positive semidefinite and at most the pivot, so no entry of it
        # exceeds the block's largest
        rng = np.random.default_rng(36)
        largest = 0.0
        for dim, bandwidth in ((8, 2), (17, 4), (30, 6), (30, 1), (25, 3), (40, 5)):
            pair = random_banded_pair(rng, dim, bandwidth)
            values = sla.eigh(band_to_dense(pair.h_band), band_to_dense(pair.s_band),
                              eigvals_only=True)
            # below the spectrum both runs are all of A; above its lowest
            # eigenvalue each stops where its minors turn indefinite
            for sigma in (values[0] - 1.0, *(0.5 * (values[1:] + values[:-1]))):
                largest = max(largest, largest_end_update(pair, sigma))
        assert 0.0 < largest <= 1.0

    def test_end_block_updates_lie_between_zero_and_their_pivot_on_channel_scan(self):
        # at the shift that certifies each solve: halfway from the k-th
        # level to the (k + 1)-th seed (module docstring, step 5)
        ws = build_workspace(PAPER_GRID)
        largest = 0.0
        for request in islice(channel_requests(7), 8):
            l, k = request["l"], request["k"]
            atom = _resolve_solve_atom(request["Z"], request["n"], l, 3)[0]
            model = Pseudopotential(request["model"])
            pair = assemble(ws, atom, l, model)
            seeds = spectra._seeds(ws, atom, model, l, k)
            if seeds is None:
                seeds = eigensolve._sturm_seeds(pair, k + 1)
            last = solve_lowest(pair, k, seeds).eigenvalues[-1]
            largest = max(largest, largest_end_update(pair, last + 0.5 * (seeds[-1] - last)))
        assert 0.0 < largest <= 1.0

    def test_nan_on_the_diagonal_is_refused(self):
        # a Cholesky run would take the NaN pivot as positive, so the count
        # refuses a non-finite H - sigma S before it factors anything
        h = np.diag([1.0, 2.0, np.nan, 4.0]) + np.diag([1.0, 1.0, 1.0], 1)
        pair = OperatorPair(h_band=dense_to_band(h + np.triu(h, 1).T, 1),
                            s_band=dense_to_band(np.eye(4), 1))
        assert eigensolve._count_below(pair, 0.5) is None

    def test_nan_inside_a_positive_definite_run_is_refused(self):
        # dpbtrf takes a NaN pivot as positive and factors this H to the end
        h = np.diag([2.0, 2.0, np.nan, 2.0]) + np.diag([0.1, 0.1, 0.1], 1)
        pair = OperatorPair(h_band=dense_to_band(h + np.triu(h, 1).T, 1),
                            s_band=dense_to_band(np.eye(4), 1))
        assert eigensolve._count_below(pair, 0.0) is None

    def test_agrees_with_dsbgvx_on_channel_scan_draws(self):
        ws = build_workspace(PAPER_GRID)
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
        ws = build_workspace(PAPER_GRID)
        pair = assemble(ws, HYDROGEN, 0, model)
        coarse = _channel_pair(ws.seed, seed_atom, seed_l, model)
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
        ws = build_workspace(PAPER_GRID)
        atom = catalog_atom(name)
        pair = assemble(ws, atom, l, model)
        coarse = _channel_pair(ws.seed, atom, l, model)
        seeding = CountingSeeds(eigensolve._sturm_seeds)
        factoring = _CountingLapack(eigensolve.lapack)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", seeding)
        monkeypatch.setattr(eigensolve, "lapack", factoring)
        seeded = solve_lowest(pair, k, seeds=eigensolve._sturm_seeds(coarse, k + 1)).eigenvalues
        assert seeding.dimensions == [coarse.dimension]
        # as on fine seeds, one LU per state: the inertia count factors no band LU
        assert factoring.factorizations == k
        assert np.max(np.abs(seeded - solve_lowest(pair, k).eigenvalues)) <= 1e-13

    def test_failed_ritz_step_on_seeds_falls_back(self, monkeypatch):
        # scipy refuses a non-finite Ritz pencil with a plain ValueError, not a
        # LinAlgError: on supplied seeds it is one more failed check, and the
        # solve is redone from dsbgvx seeds of (H, S)
        model = Pseudopotential.BARE_COULOMB
        ws = build_workspace(PAPER_GRID)
        pair = assemble(ws, HYDROGEN, 0, model)
        seeds = eigensolve._sturm_seeds(_channel_pair(ws.seed, HYDROGEN, 0, model), 4)

        class FailingOnce:
            failed = False

            def __getattr__(self, name):
                return getattr(sla, name)

            def eigh(self, *args, **kwargs):
                if not self.failed:
                    self.failed = True
                    raise ValueError("array must not contain infs or NaNs")
                return sla.eigh(*args, **kwargs)

        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        monkeypatch.setattr(eigensolve, "sla", FailingOnce())
        seeded = solve_lowest(pair, 3, seeds=seeds)
        assert counting.dimensions == [pair.dimension]
        plain = solve_lowest(pair, 3)
        for field in ("eigenvalues", "vectors", "residual_norms"):
            assert np.array_equal(getattr(seeded, field), getattr(plain, field)), field

    def test_too_small_coarse_pair_is_not_used(self, monkeypatch):
        # its 4 seeds leave no (k + 1)-th seed to place the count's shift:
        # the solve refuses them instead of seeding itself
        pair = random_banded_pair(np.random.default_rng(3), 20, 2)
        coarse = random_banded_pair(np.random.default_rng(4), 4, 2)
        seeds = eigensolve._sturm_seeds(coarse, coarse.dimension)
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        with pytest.raises(ValueError, match=r"^seeds must hold k_states \+ 1 = 5 values, got 4$"):
            solve_lowest(pair, 4, seeds=seeds)
        assert counting.dimensions == []


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
        for state in range(len(solution.eigenvalues)):
            c = solution.vectors[:, state]
            quotient = (c @ general_matvec(pair.h_band, c)) / (c @ general_matvec(pair.s_band, c))
            assert quotient == pytest.approx(solution.eigenvalues[state], abs=1e-10)
