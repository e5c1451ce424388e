"""Closed-form screening models for effective one-electron atoms.

Everything in this module is exact arithmetic on model parameters: partition
fractions of the pair-correlation energy, effective (screened) nuclear
charges, the radial potentials built from them, and the analytic hydrogenic
spectrum used as an oracle for the numerical solvers.

Atomic units throughout (hartree, bohr) unless a :class:`UnitSystem` is used
to convert to eV. All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ModelDomainError",
    "UnitSystem",
    "PAPER_UNITS",
    "CODATA_UNITS",
    "Pseudopotential",
    "AtomSpec",
    "partition_alpha",
    "effective_charge",
    "hydrogenic_energy",
    "screening_factor",
    "central_screening_amplitude",
    "potential_terms",
    "potential_value",
    "atom_catalog",
    "catalog_atom",
]


class ModelDomainError(ValueError):
    """Model parameters left the regime where the potential still binds."""


#: eV per hartree that makes the bundled reference tables self-consistent.
PAPER_EV_PER_HARTREE = 27.1996
#: CODATA 2018 recommended value.
CODATA_EV_PER_HARTREE = 27.211386245988


@dataclass(frozen=True)
class UnitSystem:
    """Energy conversion used when reporting eV values."""

    ev_per_hartree: float
    label: str

    def __post_init__(self):
        if not self.ev_per_hartree > 0:
            raise ValueError("ev_per_hartree must be positive")

    def to_ev(self, energy_hartree: float) -> float:
        return energy_hartree * self.ev_per_hartree


PAPER_UNITS = UnitSystem(PAPER_EV_PER_HARTREE, "paper-compat")
CODATA_UNITS = UnitSystem(CODATA_EV_PER_HARTREE, "codata")


class Pseudopotential(Enum):
    """Which effective one-electron potential to use."""

    SYMMETRY_DEPENDENT = "symmetry"
    CENTRAL_SCREENING = "central"
    BARE_COULOMB = "bare"


@dataclass(frozen=True)
class AtomSpec:
    """Static description of one neutral atom.

    ``m_permutations`` is the integer numerator of the m/n factor that scales
    single-particle expectation values into physical state energies.
    """

    name: str
    Z: int
    n_electrons: int
    valence_nu: int
    valence_l: int
    m_permutations: int

    def __post_init__(self):
        if self.Z < 1:
            raise ValueError("Z must be >= 1")
        if self.n_electrons < 1:
            raise ValueError("n_electrons must be >= 1")
        if not 1 <= self.m_permutations <= self.n_electrons:
            raise ValueError("m_permutations must lie in [1, n_electrons]")
        if not 0 <= self.valence_l < self.valence_nu:
            raise ValueError("valence_l must lie in [0, valence_nu - 1]")

    @property
    def m_over_n(self) -> float:
        return self.m_permutations / self.n_electrons


def partition_alpha(l: int, n_electrons: int) -> float:
    """Symmetry-dependent fraction of the pair-correlation energy.

    For the channel of angular momentum l >= 0 in an n-electron system,
    n >= 2::

        alpha = (2*lt_i + 1) / (2*lt_i + 2*lt_j + 2)
        lt_i  = l / (n - 1)
        lt_j  = 0 if l == 0 else (l - 1) / (n + 2)

    Spherically symmetric channels always get exactly 1/2.
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    n = n_electrons
    if n < 2:
        raise ValueError("partition_alpha requires n_electrons >= 2")
    if l == 0:
        return 0.5
    lt_i = l / (n - 1)
    lt_j = (l - 1) / (n + 2)
    return (2.0 * lt_i + 1.0) / (2.0 * lt_i + 2.0 * lt_j + 2.0)


def effective_charge(z: float, n_electrons: int, l: int) -> float:
    """Screened charge Z_eff = Z - ((n-1)^2 * alpha^2 * Z)^(1/3).

    For a single electron there is nothing to screen and Z is returned
    unchanged. A non-positive result means the screening model no longer
    binds the electron and is reported as :class:`ModelDomainError`.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    if n_electrons < 1:
        raise ValueError("n_electrons must be >= 1")
    if n_electrons == 1:
        return float(z)
    alpha = partition_alpha(l, n_electrons)
    screening = np.cbrt((n_electrons - 1) ** 2 * alpha**2 * z)
    z_eff = z - screening
    if z_eff <= 0:
        raise ModelDomainError(
            f"effective charge {z_eff:.6f} <= 0 for Z={z}, n={n_electrons}, l={l}"
        )
    return float(z_eff)


def hydrogenic_energy(z_eff: float, nu: int) -> float:
    """Exact Coulomb level -Z_eff^2 / (2 nu^2) in hartree."""
    if z_eff <= 0:
        raise ValueError("z_eff must be positive")
    if nu < 1:
        raise ValueError("nu must be >= 1")
    return -z_eff * z_eff / (2.0 * nu * nu)


def screening_factor(r, z: float):
    """Radial screening profile of the central model.

    Evaluates ``1 - (27/25 + (3/5) Z r - 6/(125 Z r)) * exp(-2 Z r)``.
    Diverges like 6/(125 Z r) towards the origin (a repulsive core once
    divided by r) and tends to 1 at large radius. Accepts scalars or arrays;
    r must be strictly positive.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise ValueError("screening_factor requires r > 0")
    if z < 1:
        raise ValueError("z must be >= 1")
    zr = z * r_arr
    value = 1.0 - (27.0 / 25.0 + 0.6 * zr - 6.0 / (125.0 * zr)) * np.exp(-2.0 * zr)
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(value)
    return value


def central_screening_amplitude(z: float, n_electrons: int) -> float:
    """Prefactor (n-1)^(2/5) * (Z/2)^(3/5) of the central screening term.

    Defined as 0 for a single electron, where the screening term vanishes.
    """
    if n_electrons < 1:
        raise ValueError("n_electrons must be >= 1")
    if n_electrons == 1:
        return 0.0
    return (n_electrons - 1) ** 0.4 * (z / 2.0) ** 0.6


def potential_terms(model: Pseudopotential, atom: AtomSpec, l: int = 0) -> tuple[float, float]:
    """Coulomb charge q and screening amplitude a of the chosen potential,

        V(r) = -q / r + a * screening_factor(r, Z) / r.

    SYMMETRY_DEPENDENT has q = Z_eff(l) and a = 0 (raises ModelDomainError
    where Z_eff <= 0). CENTRAL_SCREENING has q = Z and a =
    central_screening_amplitude, which is 0 for a single electron.
    BARE_COULOMB has q = Z and a = 0.
    """
    if model is Pseudopotential.SYMMETRY_DEPENDENT:
        return effective_charge(atom.Z, atom.n_electrons, l), 0.0
    if model is Pseudopotential.CENTRAL_SCREENING:
        return float(atom.Z), central_screening_amplitude(atom.Z, atom.n_electrons)
    if model is Pseudopotential.BARE_COULOMB:
        return float(atom.Z), 0.0
    raise ValueError(f"unknown pseudopotential model: {model!r}")


def potential_value(model: Pseudopotential, r, atom: AtomSpec, l: int = 0):
    """Evaluate the chosen effective potential at radius r (hartree).

    SYMMETRY_DEPENDENT is purely Coulombic with an l-dependent effective
    charge. CENTRAL_SCREENING is l-independent with a radial screening
    profile. BARE_COULOMB is -Z/r. See :func:`potential_terms`. Accepts
    scalar or array r > 0.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise ValueError("potential_value requires r > 0")
    charge, amplitude = potential_terms(model, atom, l)
    value = -charge / r_arr
    if amplitude != 0.0:
        value = value + amplitude * screening_factor(r_arr, atom.Z) / r_arr
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(value)
    return value


_CATALOG_ROWS = (
    # name, Z, m, valence (nu, l)
    ("He", 2, 2, (1, 0)),
    ("Li", 3, 2, (2, 0)),
    ("Be", 4, 3, (2, 0)),
    ("B", 5, 3, (2, 1)),
    ("C", 6, 4, (2, 1)),
    ("N", 7, 4, (2, 1)),
    ("O", 8, 4, (2, 1)),
    ("F", 9, 5, (2, 1)),
    ("Ne", 10, 5, (2, 1)),
    ("Na", 11, 2, (3, 0)),
    ("Mg", 12, 3, (3, 0)),
)


def atom_catalog(mg_m: int = 3) -> tuple[AtomSpec, ...]:
    """Neutral atoms with 2..12 electrons and their m/n scaling factors.

    The bundled reference table prints m = 2 for Mg, but only m = 3
    reproduces its own printed ionization potential (8.95 eV; m = 2 gives
    5.96 eV) and matches the Be analogy of a paired s^2 valence shell. The
    catalog therefore defaults to 3; pass ``mg_m=2`` to force the printed
    value.
    """
    if mg_m not in (2, 3):
        raise ValueError("mg_m must be 2 or 3")
    atoms = []
    for name, z, m, (valence_nu, valence_l) in _CATALOG_ROWS:
        if name == "Mg":
            m = mg_m
        atoms.append(
            AtomSpec(
                name=name,
                Z=z,
                n_electrons=z,
                valence_nu=valence_nu,
                valence_l=valence_l,
                m_permutations=m,
            )
        )
    return tuple(atoms)


def catalog_atom(name: str, mg_m: int = 3) -> AtomSpec:
    """Look one atom up by element symbol (case-insensitive)."""
    for atom in atom_catalog(mg_m=mg_m):
        if atom.name.lower() == name.lower():
            return atom
    raise ValueError(f"unknown atom: {name!r} (catalog covers He..Mg)")
