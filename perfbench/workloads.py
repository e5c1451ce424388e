"""Seeded inputs and output checks of the atomscreen benchmark.

Every generator here depends only on its seed, so the same seed always
yields the same stream. The checks return ``None`` for a correct outcome and
a one-line reason for a failed one; the oracle comes from the closed-form
functions of ``atomscreen.model``.
"""

from __future__ import annotations

import random
from pathlib import Path

TABLES = ("table1", "table2", "table3")
MODELS = ("symmetry", "central", "bare")

#: Oracle tolerance for a channel-scan state (hartree): the acceptance
#: suite's nu <= 6 bound, applied to every nu.
CHANNEL_ORACLE_TOL = 1e-7

#: Share of r_max the hydrogenic <r> of a drawn state may reach. States out
#: to about 0.47 r_max stay on the oracle at the paper grid; farther ones are
#: box states (ROADMAP aim 3), so channel-scan keeps a margin below that.
BOX_SHARE = 1.0 / 3.0

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def table_rounds(seed: int):
    """Endless rounds of the three table commands, each round shuffled."""
    rng = random.Random(seed)
    while True:
        order = list(TABLES)
        rng.shuffle(order)
        yield order


def channel_requests(seed: int):
    """Endless stream of distinct solve requests on the paper grid.

    Each request is a dict with the model, nuclear charge Z (1..12),
    electron count n (1..Z), angular momentum l (0..3) and state count
    k (1..12). A draw whose highest state does not fit the paper grid's box
    (see :func:`fits_box`) is drawn again: the program still returns such
    box states as bound levels instead of refusing them.
    """
    rng = random.Random(seed)
    seen = set()
    while True:
        z = rng.randint(1, 12)
        request = {
            "model": rng.choice(MODELS),
            "Z": z,
            "n": rng.randint(1, z),
            "l": rng.randint(0, 3),
            "k": rng.randint(1, 12),
        }
        key = tuple(request.values())
        if key in seen or not fits_box(request):
            continue
        seen.add(key)
        yield request


def asymptotic_charge(model: str, z: int, n_electrons: int, l: int) -> float:
    """Charge the electron sees far out: -Z_asym / r as r grows."""
    from atomscreen.model import central_screening_amplitude, effective_charge

    if model == "bare":
        return float(z)
    if model == "central":
        return z - central_screening_amplitude(z, n_electrons)
    return effective_charge(z, n_electrons, l)


def oracle_energy(model: str, z: int, n_electrons: int, l: int, nu: int) -> float:
    """Exact level of a symmetry-model or bare-Coulomb state (hartree)."""
    from atomscreen.model import hydrogenic_energy

    return hydrogenic_energy(asymptotic_charge(model, z, n_electrons, l), nu)


def fits_box(request: dict) -> bool:
    """The hydrogenic <r> of the request's highest state is within BOX_SHARE of r_max.

    <r> = (3 nu^2 - l(l+1)) / (2 Z_asym) for the state nu = l + k.
    """
    from atomscreen.bsplines import PAPER_GRID

    l, nu = request["l"], request["l"] + request["k"]
    z_asym = asymptotic_charge(request["model"], request["Z"], request["n"], l)
    return (3 * nu * nu - l * (l + 1)) / (2.0 * z_asym) <= BOX_SHARE * PAPER_GRID.r_max


def check_table(command: str, returncode: int, stdout: bytes) -> str | None:
    """A table run must exit 0 and print the recorded CSV byte for byte."""
    if returncode != 0:
        return f"{command} exited {returncode}"
    if stdout != (EXPECTED_DIR / f"{command}.csv").read_bytes():
        return f"{command} CSV differs from the recorded output"
    return None


def check_channel(request: dict, result: dict) -> str | None:
    """Every returned state bound; symmetry and bare states on the oracle.

    A refusal (the program raised EigensolverError or ValueError, which
    includes ModelDomainError) is a correct outcome.
    """
    status = result["status"]
    if status == "refused":
        return None
    if status != "ok":
        return f"{status}: {result.get('error', '')}"
    states = result["states"]
    if len(states) != request["k"]:
        return f"{len(states)} states returned for k={request['k']}"
    for nu, energy in states:
        if not energy < 0.0:
            return f"nu={nu} has energy {energy!r} >= 0"
        if request["model"] == "central":
            continue
        exact = oracle_energy(request["model"], request["Z"], request["n"], request["l"], nu)
        if abs(energy - exact) > CHANNEL_ORACLE_TOL:
            return f"nu={nu} off the oracle by {abs(energy - exact):.3e}"
    return None

