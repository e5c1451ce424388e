import numpy as np
import pytest

from conftest import CountingSeeds

from atomscreen import eigensolve, spectra
from atomscreen.bsplines import GridSpec, PAPER_GRID, build_workspace
from atomscreen.eigensolve import solve_lowest
from atomscreen.model import (
    AtomSpec,
    CODATA_UNITS,
    PAPER_UNITS,
    Pseudopotential,
    catalog_atom,
    hydrogenic_energy,
)
from atomscreen.operators import _seed_pair, assemble
from atomscreen.spectra import (
    HELIUM_TABLE_STATES,
    LITHIUM_TABLE_STATES,
    ReferenceRecord,
    compare,
    helium_binding_table,
    ionization_potential,
    ionization_table,
    lithium_spectrum,
    solve_channel,
)

A = Pseudopotential.SYMMETRY_DEPENDENT
B = Pseudopotential.CENTRAL_SCREENING


class TestSolveChannel:
    def test_lithium_2s_scaled_energy(self):
        lithium = catalog_atom("Li")
        states = solve_channel(lithium, A, 0, 2)
        assert PAPER_UNITS.to_ev(states[1].scaled_energy) == pytest.approx(-5.500, abs=2e-3)

    def test_lithium_4f_scaled_energy(self):
        lithium = catalog_atom("Li")
        states = solve_channel(lithium, A, 3, 1)
        assert PAPER_UNITS.to_ev(states[0].scaled_energy) == pytest.approx(-0.834, abs=2e-3)

    def test_hydrogen_like_ion_has_unit_scaling(self):
        for z in (1, 4):
            ion = AtomSpec(f"Z{z}", z, 1, 1, 0, 1)
            states = solve_channel(ion, Pseudopotential.BARE_COULOMB, 0, 1)
            assert states[0].raw_energy == pytest.approx(-z * z / 2.0, abs=1e-8)
            assert states[0].scaled_energy == states[0].raw_energy

    def test_labels_follow_channel_order(self):
        lithium = catalog_atom("Li")
        states = solve_channel(lithium, A, 2, 3)
        assert [s.nu for s in states] == [3, 4, 5]
        assert all(s.l == 2 for s in states)

    def test_scaling_factor_applied_exactly(self):
        beryllium = catalog_atom("Be")
        for state in solve_channel(beryllium, A, 0, 3):
            assert state.scaled_energy == state.raw_energy * (3 / 4)

    def test_energies_increase_with_nu(self):
        lithium = catalog_atom("Li")
        for l in range(3):
            states = solve_channel(lithium, B, l, 3)
            scaled = [s.scaled_energy for s in states]
            assert all(a < b for a, b in zip(scaled, scaled[1:]))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            solve_channel(catalog_atom("Li"), A, 0, 0)


class TestSeedSpace:
    def test_paper_grid_never_seeds_at_the_full_dimension(self, monkeypatch):
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        spectra._solve_channel_cached.cache_clear()
        for name, model, l, count in (("He", A, 0, 3), ("Li", B, 1, 12), ("Mg", A, 2, 1)):
            solve_channel(catalog_atom(name), model, l, count)
        # 591 intervals keep 148 breakpoints past the origin: 157 splines, 155
        # active. Only the screened channel (Li central p) is seeded there.
        assert counting.dimensions == [155]

    # 91 intervals keep 23 breakpoints past the origin: 32 splines, 30 active
    @pytest.mark.parametrize(("grid", "count", "dimensions"), [
        (GridSpec(n_splines=100), 6, [30]),
        (GridSpec(n_splines=100), 29, [30, 98]),
        (GridSpec(n_splines=100), 30, [98]),
        # A grid of a quarter of its splines would need a geometric ratio past
        # 1e9. The seed workspace always exists; here its seeds fail and the
        # solve falls back to the full pencil.
        (GridSpec(n_splines=20, order_k=2, r_first=1e-17), 1, [4, 18]),
    ], ids=["seeded", "fallback", "no-room-for-count", "steep-grid"])
    def test_seed_workspace_is_tried_where_it_holds_count_plus_one(self, grid, count,
                                                                   dimensions, monkeypatch):
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        spectra._solve_channel_cached.cache_clear()
        assert len(solve_channel(catalog_atom("Li"), B, 0, count, grid)) == count
        assert counting.dimensions == dimensions

    def test_failed_seed_pencil_falls_back_to_fine_seeds(self, monkeypatch):
        # a dsbgvx failure on the seed pencil leaves the solve to seed itself
        sodium = catalog_atom("Na")
        pair = assemble(build_workspace(), sodium, 1, B)
        plain = solve_lowest(pair, 6).eigenvalues
        fine, routine = [], eigensolve._sturm_seeds

        def failing_on_the_seed_pencil(seeded, count):
            if seeded.dimension < pair.dimension:
                raise eigensolve.EigensolverError("dsbgvx failed")
            fine.append(seeded.dimension)
            return routine(seeded, count)

        monkeypatch.setattr(eigensolve, "_sturm_seeds", failing_on_the_seed_pencil)
        spectra._solve_channel_cached.cache_clear()
        states = solve_channel(sodium, B, 1, 6)
        assert fine == [pair.dimension]
        assert [s.raw_energy for s in states] == list(plain)


class TestClosedFormSeeds:
    @pytest.mark.parametrize(("atom", "model", "l", "count", "dimensions"), [
        (catalog_atom("Li"), A, 0, 12, []),
        (catalog_atom("Na"), Pseudopotential.BARE_COULOMB, 2, 6, []),
        (AtomSpec("H", 1, 1, 1, 0, 1), B, 0, 6, []),
        (catalog_atom("Na"), B, 1, 6, [155]),
    ], ids=["symmetry", "bare", "one-electron-central", "central"])
    def test_only_screened_channels_call_dsbgvx(self, atom, model, l, count, dimensions,
                                                monkeypatch):
        # Coulomb channels are seeded from -q^2 / (2 nu^2); a screened one
        # makes one dsbgvx call, on its seed pencil
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        spectra._solve_channel_cached.cache_clear()
        assert len(solve_channel(atom, model, l, count)) == count
        assert counting.dimensions == dimensions

    # the channels of test_eigensolve.py::TestCoarseSeeds; Na p takes the
    # symmetry model there, as its central channel has no closed form
    @pytest.mark.parametrize(("name", "model", "l", "k"), [
        ("Li", A, 0, 12),
        ("Na", A, 1, 6),
        ("Mg", Pseudopotential.BARE_COULOMB, 2, 3),
    ], ids=["Li-symmetry-s", "Na-symmetry-p", "Mg-bare-d"])
    def test_agree_with_seed_pencil_seeds(self, name, model, l, k):
        ws = build_workspace()
        pair = assemble(ws, catalog_atom(name), l, model)
        closed = spectra._seeds(ws, pair, l, k)
        charge = pair.terms.charge
        assert list(closed) == [hydrogenic_energy(charge, nu) for nu in range(l + 1, l + k + 2)]
        seeded = solve_lowest(pair, k, seeds=closed).eigenvalues
        coarse = eigensolve._sturm_seeds(_seed_pair(ws, pair), k + 1)
        assert np.max(np.abs(seeded - solve_lowest(pair, k, seeds=coarse).eigenvalues)) <= 1e-13

    def test_box_states_redo_from_fine_seeds(self, monkeypatch):
        # bare H l = 0 at k = 14 holds two positive-energy box states, far
        # from their closed-form levels: the guards refuse those seeds, and
        # one dsbgvx on the full pencil gives what a solve without seeds gives
        hydrogen = AtomSpec("H", 1, 1, 1, 0, 1)
        pair = assemble(build_workspace(), hydrogen, 0, Pseudopotential.BARE_COULOMB)
        plain = solve_lowest(pair, 14).eigenvalues
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        spectra._solve_channel_cached.cache_clear()
        states = solve_channel(hydrogen, Pseudopotential.BARE_COULOMB, 0, 14)
        assert counting.dimensions == [pair.dimension]
        assert [s.raw_energy for s in states] == list(plain)
        assert states[-1].raw_energy > 0


class TestIonizationPotential:
    @pytest.mark.parametrize(
        "name,printed",
        [("Li", 5.50), ("Na", 5.56), ("F", 21.54), ("He", 24.76)],
    )
    def test_printed_values(self, name, printed):
        atom = catalog_atom(name)
        assert ionization_potential(atom, A) == pytest.approx(printed, abs=0.01)

    def test_helium_construction(self):
        # IP = 4|eps_1s| - Z^2/2, converted to eV
        helium = catalog_atom("He")
        states = solve_channel(helium, A, 0, 1)
        expected = PAPER_UNITS.to_ev(4.0 * abs(states[0].raw_energy) - 2.0)
        assert ionization_potential(helium, A) == pytest.approx(expected, abs=1e-12)

    def test_magnesium_override_shifts_ip(self):
        default = ionization_potential(catalog_atom("Mg"), A)
        printed_mn = ionization_potential(catalog_atom("Mg", mg_m=2), A)
        assert default == pytest.approx(8.95, abs=0.01)
        assert printed_mn == pytest.approx(default * 2 / 3, rel=1e-12)

    def test_rejects_single_electron(self):
        hydrogen = AtomSpec("H", 1, 1, 1, 0, 1)
        with pytest.raises(ValueError):
            ionization_potential(hydrogen, A)

    def test_table_covers_catalog_in_order(self):
        rows = ionization_table(A)
        assert [label for label, _ in rows] == [
            "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne", "Na", "Mg",
        ]


class TestHeliumTable:
    def test_row_order(self):
        rows = helium_binding_table(A)
        assert [label for label, _ in rows] == [label for label, _, _ in HELIUM_TABLE_STATES]

    @pytest.mark.parametrize("label,printed", [("1s", 79.161), ("3p", 55.792), ("3d", 55.741)])
    def test_printed_values(self, label, printed):
        rows = dict(helium_binding_table(A))
        assert rows[label] == pytest.approx(printed, abs=5e-3)

    def test_rejects_bare_model(self):
        with pytest.raises(ValueError):
            helium_binding_table(Pseudopotential.BARE_COULOMB)


class TestLithiumTable:
    def test_row_order(self):
        rows = lithium_spectrum(A)
        assert [label for label, _ in rows] == [label for label, _, _ in LITHIUM_TABLE_STATES]

    @pytest.mark.parametrize("label,printed", [("2p", -3.558), ("4s", -1.375), ("3d", -1.515)])
    def test_printed_values(self, label, printed):
        rows = dict(lithium_spectrum(A))
        assert rows[label] == pytest.approx(printed, abs=2e-3)

    def test_all_rows_negative(self):
        assert all(value < 0 for _, value in lithium_spectrum(B))


class TestUnitsAndGrid:
    def test_unit_toggle_rescales_exactly(self):
        lithium = catalog_atom("Li")
        paper = ionization_potential(lithium, A, PAPER_UNITS)
        codata = ionization_potential(lithium, A, CODATA_UNITS)
        ratio = CODATA_UNITS.ev_per_hartree / PAPER_UNITS.ev_per_hartree
        assert codata == pytest.approx(paper * ratio, rel=1e-14)
        assert codata == pytest.approx(5.5024, abs=2e-4)

    def test_hartree_quantities_unaffected_by_units(self):
        lithium = catalog_atom("Li")
        states = solve_channel(lithium, A, 0, 2, PAPER_GRID)
        assert states[1].raw_energy == solve_channel(lithium, A, 0, 2)[1].raw_energy

    def test_model_a_tables_are_grid_independent(self):
        fine = GridSpec(n_splines=800)
        for build, args in (
            (ionization_table, ()),
            (helium_binding_table, ()),
            (lithium_spectrum, ()),
        ):
            coarse_rows = build(A, PAPER_UNITS, PAPER_GRID, *args)
            fine_rows = build(A, PAPER_UNITS, fine, *args)
            for (label, v600), (_, v800) in zip(coarse_rows, fine_rows):
                assert abs(v600 - v800) < 1e-6, label


class TestCompare:
    def _golden(self):
        return (
            ReferenceRecord("I", "x", 1.0, 2.0, 0.9),
            ReferenceRecord("I", "y", -3.0, -2.5, -2.9),
        )

    def test_identical_tables_pass_with_zero_deviation(self):
        report = compare([("x", 1.0), ("y", -3.0)], self._golden(), "present1", 0.01)
        assert report.all_passed
        assert report.max_deviation == 0.0

    def test_failure_names_the_row(self):
        report = compare([("x", 1.02), ("y", -3.0)], self._golden(), "present1", 0.01)
        assert not report.all_passed
        assert [row.label for row in report.failures] == ["x"]
        assert report.failures[0].deviation == pytest.approx(0.02)

    def test_present2_column(self):
        report = compare([("x", 2.0), ("y", -2.5)], self._golden(), "present2", 1e-12)
        assert report.all_passed

    def test_label_mismatch_raises(self):
        with pytest.raises(ValueError):
            compare([("x", 1.0), ("z", -3.0)], self._golden(), "present1", 0.01)
        with pytest.raises(ValueError):
            compare([("x", 1.0)], self._golden(), "present1", 0.01)
        with pytest.raises(ValueError):
            compare([("x", 1.0), ("y", -3.0)], self._golden(), "reference", 0.01)
