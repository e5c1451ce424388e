"""Screened channels against an independent finite-difference reference
(fd_reference), which shares no code with the B-spline discretisation."""

import numpy as np
import pytest

from fd_reference import fd_levels

from atomscreen.bsplines import PAPER_GRID, GridSpec
from atomscreen.model import AtomSpec, Pseudopotential, catalog_atom, hydrogenic_energy
from atomscreen.spectra import solve_channel

#: The reference's floor at its default n0 = 1000, three grids (hartree):
#: within 2.2e-13 of the closed form on bare H nu <= 3, and within 1.9e-13
#: (Li 2s) and 6.2e-13 (Mg 1s) of a run on n0 = 2000 and four grids.
FLOOR = 1e-12
#: On the paper grid (r_first 1e-4) the central s levels lie above the exact
#: ones by these (hartree), as ROADMAP direction 12 measured them.
PAPER_OFFSETS = {("Li", 2): 4.52e-9, ("Mg", 1): 3.89e-6}
#: Tolerance on them: that measurement's prototype reference sat above this
#: one, by 1.7e-11 on Li 2s (0.4 %) and 3.1e-9 on Mg 1s (0.08 %).
PAPER_OFFSET_REL = 0.01
#: r_first = 1e-6 cuts each paper-grid offset at least this many times. The
#: ROADMAP read about 200 through its prototype, which sat high; this
#: reference reads 158 (Li 2s) and 169 (Mg 1s).
FINE_CUT = 100.0

HYDROGEN = AtomSpec("H", 1, 1, 1, 0, 1)
CENTRAL = Pseudopotential.CENTRAL_SCREENING


@pytest.mark.parametrize("l", [0, 1])
def test_reference_is_on_the_closed_form(l):
    levels, estimate = fd_levels(Pseudopotential.BARE_COULOMB, HYDROGEN, l, 2)
    exact = [hydrogenic_energy(1.0, nu) for nu in (l + 1, l + 2)]
    assert np.all(np.abs(levels - exact) <= FLOOR)
    # the last extrapolation step bounds the error from above
    assert np.all(np.abs(levels - exact) <= estimate)


@pytest.fixture(scope="module", params=sorted(PAPER_OFFSETS), ids=lambda key: f"{key[0]}-{key[1]}s")
def central_s(request):
    name, nu = request.param
    atom = catalog_atom(name)
    levels, _ = fd_levels(CENTRAL, atom, 0, nu)
    return atom, nu, PAPER_OFFSETS[request.param], levels[nu - 1]


def _level(atom, nu, grid):
    return solve_channel(atom, CENTRAL, 0, nu, grid)[nu - 1].raw_energy


def test_paper_grid_offset(central_s):
    atom, nu, paper, reference = central_s
    assert _level(atom, nu, PAPER_GRID) - reference == pytest.approx(paper, rel=PAPER_OFFSET_REL)


def test_fine_first_breakpoint_cuts_the_offset(central_s):
    atom, nu, paper, reference = central_s
    offset = _level(atom, nu, GridSpec(r_first=1e-6)) - reference
    # a Galerkin level lies above the exact one (Courant-Fischer), up to the floor
    assert -FLOOR <= offset <= paper / FINE_CUT
