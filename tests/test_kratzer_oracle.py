"""The central model's repulsive core on an exact oracle: the Kratzer channel
V = -q/r + c/r^2 (kratzer_reference), whose pair H = T + (l(l+1)/2 + c) R2
- q R1 is a sum of bands every workspace holds."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import CountingSeeds
from kratzer_reference import core_coefficient, kratzer_exponent, kratzer_levels

from atomscreen import eigensolve
from atomscreen.bsplines import PAPER_GRID, build_workspace
from atomscreen.eigensolve import solve_lowest
from atomscreen.model import central_screening_amplitude, hydrogenic_energy, screening_factor
from atomscreen.operators import OperatorPair

#: c of the neutral atoms Z = 2 ... 12, 0.0240 (He) to 0.0306 (Mg).
CORES = {z: core_coefficient(z, z) for z in range(2, 13)}
#: (Z, q, l): each core at the charges q = 1 and q = Z, in the s to f channels.
CHANNELS = [(z, q, l) for z in CORES for q in sorted({1, z}) for l in range(4)]
STATES = 4
#: The bound of the Coulomb-oracle tests: how far rounding of the bands may
#: move a level on the paper grid, either way.
ROUNDING = 1e-12
#: The finer first breakpoint of the r_first law.
FINE_R_FIRST = 1e-6


def kratzer_pair(ws, q, c, l):
    centrifugal = 0.5 * l * (l + 1) + c
    return OperatorPair(h_band=ws.t_band + centrifugal * ws.r2_band - q * ws.r1_band,
                        s_band=ws.s_band)


def geometric_ratio(ws):
    """The growth of the exp-linear grid's intervals near the origin."""
    widths = np.diff(ws.basis.breakpoints[:3])
    return widths[1] / widths[0]


@pytest.fixture(scope="module")
def paper_levels():
    ws = build_workspace(PAPER_GRID)
    return {(z, q, l): solve_lowest(kratzer_pair(ws, q, CORES[z], l), STATES).eigenvalues
            for z, q, l in CHANNELS}


class TestKratzerReference:
    def test_core_is_the_limit_of_the_screening_term(self):
        # r^2 (a f_Z(r) / r) = a r f_Z(r) tends to c, to first order in Z r
        r = 1e-9
        for z, c in CORES.items():
            limit = central_screening_amplitude(z, z) * r * screening_factor(r, z)
            assert limit == pytest.approx(c, rel=1e-6), z

    @pytest.mark.parametrize("l", range(4))
    def test_no_core_gives_the_coulomb_levels(self, l):
        assert kratzer_exponent(0.0, l) == l
        coulomb = [hydrogenic_energy(3.0, nu) for nu in range(l + 1, l + 1 + STATES)]
        assert kratzer_levels(3.0, 0.0, l, STATES) == pytest.approx(coulomb, rel=1e-15)


class TestKratzerOracle:
    def test_s_levels_lie_above_and_no_level_below(self, paper_levels):
        for (z, q, l), levels in paper_levels.items():
            error = levels - kratzer_levels(q, CORES[z], l, STATES)
            assert error.min() >= -ROUNDING, (z, q, l)
            if l == 0:  # the core error of u ~ r^(lambda + 1)
                assert np.all(error > 0.0), (z, q)

    def test_s_error_follows_the_r_first_law(self, paper_levels):
        # The s error scales as r_first^(2 lambda + 1) on a grid that scales
        # with r_first. The exp-linear grid also steepens its geometric
        # ratio as r_first falls, so the error's constant may move by the
        # relative change of that ratio, log(fine / coarse); the law's next
        # order adds q r_first, and each error carries up to ROUNDING.
        # Only errors at the fine grid above 20 ROUNDING are compared, so the
        # rounding term stays below 5 %; every 1s error is above it.
        coarse_ws = build_workspace(PAPER_GRID)
        fine_ws = build_workspace(replace(PAPER_GRID, r_first=FINE_R_FIRST))
        scale = PAPER_GRID.r_first / FINE_R_FIRST
        shape = np.log(geometric_ratio(fine_ws) / geometric_ratio(coarse_ws))
        assert 0.0 < shape < 0.02
        for z, q, l in CHANNELS:
            if l:
                continue
            c = CORES[z]
            exact = kratzer_levels(q, c, 0, STATES)
            coarse = paper_levels[z, q, 0] - exact
            fine = solve_lowest(kratzer_pair(fine_ws, q, c, 0), STATES).eigenvalues - exact
            resolved = fine > 20 * ROUNDING
            assert resolved[0], (z, q)
            law = scale ** (2 * kratzer_exponent(c, 0) + 1)
            bound = shape + q * PAPER_GRID.r_first + ROUNDING * (1 / coarse + 1 / fine)
            deviation = np.abs(coarse / fine / law - 1.0)
            assert np.all(deviation[resolved] <= bound[resolved]), (z, q, deviation)

    def test_exact_seeds_give_the_unseeded_solve(self, paper_levels, monkeypatch):
        # the supplied-seed certificate (eigensolve, step 5) accepts seeds
        # that lie below every s level by its core error: no solve falls
        # back to seeds of its own pencil
        ws = build_workspace(PAPER_GRID)
        fallbacks = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", fallbacks)
        for (z, q, l), levels in paper_levels.items():
            c = CORES[z]
            seeds = kratzer_levels(q, c, l, STATES + 1)
            seeded = solve_lowest(kratzer_pair(ws, q, c, l), STATES, seeds=seeds).eigenvalues
            assert np.max(np.abs(seeded - levels)) <= 1e-13, (z, q, l)
        assert fallbacks.dimensions == []
