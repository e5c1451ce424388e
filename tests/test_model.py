import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from atomscreen.model import (
    AtomSpec,
    CODATA_UNITS,
    ModelDomainError,
    PAPER_UNITS,
    Pseudopotential,
    UnitSystem,
    atom_catalog,
    catalog_atom,
    central_screening_amplitude,
    effective_charge,
    hydrogenic_energy,
    partition_alpha,
    potential_terms,
    potential_value,
    screening_factor,
)


class TestPartitionAlpha:
    def test_spherical_channel_is_exactly_half(self):
        for n in (2, 3, 7, 20):
            assert partition_alpha(0, n) == 0.5

    def test_p_channel_five_electrons(self):
        # lt_i = 1/4, lt_j = 0 -> 1.5/2.5
        assert partition_alpha(1, 5) == pytest.approx(0.6, abs=1e-15)

    def test_d_channel_three_electrons(self):
        # lt_i = 1, lt_j = 1/5 -> 3/4.4 = 15/22
        assert partition_alpha(2, 3) == pytest.approx(15 / 22, abs=1e-15)

    def test_f_channel_three_electrons(self):
        # lt_i = 3/2, lt_j = 2/5 -> 4/5.8 = 20/29
        assert partition_alpha(3, 3) == pytest.approx(20 / 29, abs=1e-15)

    def test_rejects_single_electron(self):
        with pytest.raises(ValueError):
            partition_alpha(0, 1)

    def test_rejects_negative_l(self):
        with pytest.raises(ValueError, match="l must be non-negative"):
            partition_alpha(-1, 3)

    @given(l=st.integers(min_value=0, max_value=10), n=st.integers(min_value=2, max_value=20))
    def test_always_a_proper_fraction(self, l, n):
        alpha = partition_alpha(l, n)
        assert 0.0 < alpha < 1.0


class TestEffectiveCharge:
    def test_helium_s_channel(self):
        assert effective_charge(2, 2, 0) == pytest.approx(2 - 2 ** (-1 / 3), abs=1e-14)

    def test_single_electron_is_unscreened(self):
        for z in (1, 5, 92):
            assert effective_charge(z, 1, 0) == float(z)

    def test_lithium_s_channel_closed_form(self):
        # (n-1)^(2/3) * alpha^(2/3) is exactly 1 for n = 3, l = 0
        assert effective_charge(3, 3, 0) == 3 - np.cbrt(3.0)

    def test_lithium_p_channel(self):
        expected = 3 - np.cbrt(4 * (2 / 3) ** 2 * 3)
        assert effective_charge(3, 3, 1) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(1.252839, abs=1e-6)

    @given(
        z=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=2, max_value=12),
        l=st.integers(min_value=0, max_value=4),
    )
    def test_screening_always_reduces_binding(self, z, n, l):
        try:
            z_eff = effective_charge(z, n, l)
        except ModelDomainError:
            return  # heavy screening of light nuclei may stop binding; fine
        assert z_eff < z

    def test_all_catalog_channels_stay_positive(self):
        for atom in atom_catalog():
            for l in range(4):
                assert effective_charge(atom.Z, atom.n_electrons, l) > 0

    def test_flags_non_binding_regime(self):
        # 12 electrons around a bare proton cannot bind
        with pytest.raises(ModelDomainError):
            effective_charge(1, 12, 0)

    def test_rejects_negative_l(self):
        with pytest.raises(ValueError, match="l must be non-negative"):
            effective_charge(3, 3, -1)


class TestHydrogenicEnergy:
    def test_hydrogen_ground_state(self):
        assert hydrogenic_energy(1.0, 1) == -0.5

    def test_helium_model_chain(self):
        z_eff = effective_charge(2, 2, 0)
        assert hydrogenic_energy(z_eff, 1) == pytest.approx(-0.727580, abs=1e-6)

    def test_lithium_model_chain(self):
        z_eff = effective_charge(3, 3, 0)
        assert hydrogenic_energy(z_eff, 2) == pytest.approx(-0.303323, abs=1e-6)

    def test_monotone_in_nu(self):
        for z_eff in (0.5, 1.2063, 4.9):
            energies = [hydrogenic_energy(z_eff, nu) for nu in range(1, 9)]
            assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hydrogenic_energy(0.0, 1)
        with pytest.raises(ValueError):
            hydrogenic_energy(1.0, 0)


class TestScreeningFactor:
    def test_far_field_tends_to_one(self):
        assert screening_factor(50.0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_at_zr_one(self):
        # 1 - (27/25 + 3/5 - 6/125) * exp(-2)
        expected = 1.0 - 1.632 * math.exp(-2.0)
        assert screening_factor(1.0, 1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.779133, abs=1e-6)

    def test_repulsive_core_divergence(self):
        # 1 - (27/25 + 0.006 - 4.8) * exp(-0.02) evaluated exactly
        expected = 1.0 - (27 / 25 + 0.006 - 4.8) * math.exp(-0.02)
        assert expected == pytest.approx(4.6404579, abs=1e-6)
        assert screening_factor(0.01, 1) == pytest.approx(expected, abs=1e-12)

    def test_decay_beats_exponential(self):
        # |f - 1| / exp(-Zr) must shrink with Zr beyond the crossover
        z = 2
        radii = np.array([5.0, 6.0, 8.0, 10.0]) / z
        ratio = np.abs(screening_factor(radii, z) - 1.0) / np.exp(-z * radii)
        assert np.all(np.diff(ratio) < 0)
        assert abs(screening_factor(10.0, 1) - 1.0) < 1e-6

    def test_vectorized_matches_scalar(self):
        radii = np.array([0.03, 0.7, 2.0])
        vector = screening_factor(radii, 3)
        assert vector == pytest.approx([screening_factor(r, 3) for r in radii])

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            screening_factor(0.0, 2)


class TestPotentialValue:
    def test_symmetry_model_is_scaled_coulomb(self):
        helium = catalog_atom("He")
        value = potential_value(Pseudopotential.SYMMETRY_DEPENDENT, 1.0, helium, 0)
        assert value == pytest.approx(-1.206300, abs=1e-6)

    def test_symmetry_model_times_r_is_constant(self):
        lithium = catalog_atom("Li")
        radii = np.logspace(-3, 2, 40)
        values = potential_value(Pseudopotential.SYMMETRY_DEPENDENT, radii, lithium, 1)
        products = values * radii
        assert np.max(np.abs(products - products[0])) < 1e-13

    def test_central_model_helium_coefficient_collapses(self):
        # (n-1)^(2/5) (Z/2)^(3/5) = 1 for helium
        helium = catalog_atom("He")
        for r in (0.2, 1.0, 5.0):
            expected = -2.0 / r + screening_factor(r, 2) / r
            value = potential_value(Pseudopotential.CENTRAL_SCREENING, r, helium, 0)
            assert value == pytest.approx(expected, abs=1e-13)

    def test_central_amplitude_single_electron_vanishes(self):
        assert central_screening_amplitude(5, 1) == 0.0
        hydrogen = AtomSpec("H", 1, 1, 1, 0, 1)
        assert potential_value(Pseudopotential.CENTRAL_SCREENING, 2.0, hydrogen, 0) == -0.5

    def test_bare_coulomb(self):
        hydrogen = AtomSpec("H", 1, 1, 1, 0, 1)
        assert potential_value(Pseudopotential.BARE_COULOMB, 2.0, hydrogen, 0) == -0.5

    def test_rejects_non_positive_radius(self):
        helium = catalog_atom("He")
        with pytest.raises(ValueError):
            potential_value(Pseudopotential.BARE_COULOMB, 0.0, helium, 0)


class TestPotentialTerms:
    """V(r) = -q/r + a screening_factor(r, Z)/r: the split operators
    assembles H from."""

    @pytest.mark.parametrize("model", list(Pseudopotential))
    @pytest.mark.parametrize(("z", "n", "l"), [(2, 2, 0), (3, 3, 1), (11, 11, 2), (12, 12, 3),
                                               (5, 1, 0), (1, 1, 1)])
    def test_reproduce_potential_value_at_random_radii(self, model, z, n, l):
        atom = AtomSpec("X", z, n, l + 1, l, 1)
        charge, amplitude = potential_terms(model, atom, l)
        radii = np.random.default_rng(17).uniform(1e-4, 200.0, 64)
        expected = potential_value(model, radii, atom, l)
        split = -charge / radii + amplitude * screening_factor(radii, z) / radii
        assert np.max(np.abs(split - expected) / np.abs(expected)) <= 1e-15

    def test_closed_forms_per_model(self):
        sodium = catalog_atom("Na")
        assert potential_terms(Pseudopotential.SYMMETRY_DEPENDENT, sodium, 2) == (
            effective_charge(11, 11, 2), 0.0)
        assert potential_terms(Pseudopotential.CENTRAL_SCREENING, sodium, 2) == (
            11.0, central_screening_amplitude(11, 11))
        assert potential_terms(Pseudopotential.BARE_COULOMB, sodium, 2) == (11.0, 0.0)
        hydrogen = AtomSpec("H", 1, 1, 1, 0, 1)
        assert potential_terms(Pseudopotential.CENTRAL_SCREENING, hydrogen, 0) == (1.0, 0.0)


class TestCatalog:
    def test_covers_two_through_twelve_electrons(self):
        atoms = atom_catalog()
        assert [a.n_electrons for a in atoms] == list(range(2, 13))
        assert all(a.Z == a.n_electrons for a in atoms)

    def test_lithium_row(self):
        lithium = catalog_atom("Li")
        assert (lithium.m_permutations, lithium.n_electrons) == (2, 3)
        assert (lithium.valence_nu, lithium.valence_l) == (2, 0)

    def test_fluorine_row(self):
        fluorine = catalog_atom("F")
        assert (fluorine.m_permutations, fluorine.n_electrons) == (5, 9)
        assert (fluorine.valence_nu, fluorine.valence_l) == (2, 1)

    def test_magnesium_default_and_override(self):
        assert catalog_atom("Mg").m_permutations == 3
        assert catalog_atom("Mg", mg_m=2).m_permutations == 2
        with pytest.raises(ValueError):
            atom_catalog(mg_m=4)

    def test_unknown_atom(self):
        with pytest.raises(ValueError):
            catalog_atom("Xx")

    def test_m_range_is_validated(self):
        with pytest.raises(ValueError):
            AtomSpec("Bad", 3, 3, 2, 0, 4)

    def test_valence_labels_are_validated(self):
        with pytest.raises(ValueError, match="valence_l must lie in"):
            AtomSpec("Bad", 3, 3, 1, 1, 2)
        with pytest.raises(ValueError, match="valence_l must lie in"):
            AtomSpec("x", 3, 3, valence_nu=0, valence_l=-1, m_permutations=1)


class TestUnits:
    def test_labels_and_values(self):
        assert PAPER_UNITS.label == "paper-compat"
        assert PAPER_UNITS.ev_per_hartree == 27.1996
        assert CODATA_UNITS.label == "codata"
        assert CODATA_UNITS.ev_per_hartree == 27.211386245988

    def test_conversion(self):
        assert PAPER_UNITS.to_ev(2.0) == pytest.approx(54.3992, abs=1e-12)

    def test_rejects_non_positive_constant(self):
        with pytest.raises(ValueError):
            UnitSystem(-1.0, "bad")
