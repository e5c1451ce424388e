"""Exact-spectrum checks of the Galerkin eigensolver.

The bare Coulomb problem and the symmetry-dependent model are both pure
-Z_eff/r potentials, so every numerical eigenvalue has an analytic partner
-Z_eff^2/(2 nu^2). This script prints the agreement for hydrogen and for
the screened helium and lithium channels.
"""

from atomscreen import (
    PAPER_GRID,
    AtomSpec,
    Pseudopotential,
    build_workspace,
    assemble,
    solve_lowest,
    catalog_atom,
    effective_charge,
    hydrogenic_energy,
)

HYDROGEN = AtomSpec("H", 1, 1, 1, 0, 1)


def hydrogen_levels():
    ws = build_workspace(PAPER_GRID)
    print("bare hydrogen, l = 0")
    print(f"  {'nu':>3} {'numerical':>20} {'analytic':>20} {'error':>10}")
    pair = assemble(ws, HYDROGEN, 0, Pseudopotential.BARE_COULOMB)
    solution = solve_lowest(pair, 6)
    for i, value in enumerate(solution.eigenvalues):
        nu = i + 1
        exact = -0.5 / nu**2
        print(f"  {nu:>3} {value:>20.14f} {exact:>20.14f} {abs(value - exact):>10.1e}")


def screened_channels():
    ws = build_workspace(PAPER_GRID)
    print("\nscreened channels against the analytic oracle")
    print(f"  {'atom':>5} {'l':>2} {'nu':>3} {'numerical':>20} {'error':>10}")
    for name, l, count in (("He", 0, 3), ("Li", 1, 3), ("Li", 3, 2)):
        atom = catalog_atom(name)
        z_eff = effective_charge(atom.Z, atom.n_electrons, l)
        pair = assemble(ws, atom, l, Pseudopotential.SYMMETRY_DEPENDENT)
        solution = solve_lowest(pair, count)
        for i, value in enumerate(solution.eigenvalues):
            nu = l + 1 + i
            error = abs(value - hydrogenic_energy(z_eff, nu))
            print(f"  {name:>5} {l:>2} {nu:>3} {value:>20.14f} {error:>10.1e}")


if __name__ == "__main__":
    hydrogen_levels()
    screened_channels()
