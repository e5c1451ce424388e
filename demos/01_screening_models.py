"""Tour of the closed-form model layer.

Walks the atom catalog, shows the symmetry-dependent partition fractions,
the effective charges they produce, and how the two screening potentials
differ along the radial axis.
"""

from atomscreen import (
    Pseudopotential,
    atom_catalog,
    catalog_atom,
    effective_charge,
    hydrogenic_energy,
    partition_alpha,
    potential_value,
    screening_factor,
)


def show_partition_fractions():
    print("partition fraction alpha(l, n) of the pair-correlation energy")
    print("(s channels always share equally: alpha = 1/2)\n")
    print("  n \\ l      0         1         2         3")
    for n in (2, 3, 5, 10):
        row = [partition_alpha(l, n) for l in range(4)]
        print(f"  {n:<6}" + "".join(f"  {a:8.6f}" for a in row))


def show_effective_charges():
    print("\neffective charges Z_eff = Z - ((n-1)^2 alpha^2 Z)^(1/3)")
    print("and the analytic valence-state energy they imply\n")
    print(f"  {'atom':<5} {'Z':>3} {'l':>2} {'Z_eff':>10} {'E(valence) hartree':>20}")
    for atom in atom_catalog():
        z_eff = effective_charge(atom.Z, atom.n_electrons, atom.valence_l)
        energy = hydrogenic_energy(z_eff, atom.valence_nu)
        print(f"  {atom.name:<5} {atom.Z:>3} {atom.valence_l:>2}"
              f" {z_eff:>10.6f} {energy:>20.6f}")


def show_radial_potentials():
    helium = catalog_atom("He")
    print("\nhelium potentials along r (hartree)")
    print("the symmetry model is a pure Coulomb tail; the central model")
    print("carries a repulsive core from the 6/(125 Z r) divergence\n")
    print(f"  {'r (bohr)':>9} {'symmetry':>12} {'central':>12} {'bare':>12} {'f(r)':>9}")
    for r in (0.02, 0.1, 0.5, 1.0, 2.0, 5.0):
        v_sym = potential_value(Pseudopotential.SYMMETRY_DEPENDENT, r, helium, 0)
        v_cen = potential_value(Pseudopotential.CENTRAL_SCREENING, r, helium, 0)
        v_bare = potential_value(Pseudopotential.BARE_COULOMB, r, helium, 0)
        print(f"  {r:>9.3f} {v_sym:>12.4f} {v_cen:>12.4f} {v_bare:>12.4f}"
              f" {screening_factor(r, 2):>9.5f}")


if __name__ == "__main__":
    show_partition_fractions()
    show_effective_charges()
    show_radial_potentials()
