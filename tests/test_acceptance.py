"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from conftest import band_to_dense, random_banded_pair, refined_dense_eigenvalues

from atomscreen.bsplines import GridSpec, PAPER_GRID, build_workspace, eval_bspline
from atomscreen.eigensolve import solve_lowest
from atomscreen.model import (
    AtomSpec,
    Pseudopotential,
    atom_catalog,
    catalog_atom,
    effective_charge,
    hydrogenic_energy,
)
from atomscreen.operators import OperatorPair, assemble, general_matvec
from atomscreen.spectra import (
    compare,
    helium_binding_table,
    ionization_table,
    lithium_spectrum,
    reference_records,
    solve_channel,
)

A = Pseudopotential.SYMMETRY_DEPENDENT
B = Pseudopotential.CENTRAL_SCREENING
SRC = str(Path(__file__).resolve().parents[1] / "src")

HELIUM_STATES = (("1s", 1, 0), ("2s", 2, 0), ("2p", 2, 1),
                 ("3s", 3, 0), ("3p", 3, 1), ("3d", 3, 2))
LITHIUM_STATES = (("2s", 2, 0), ("2p", 2, 1), ("3s", 3, 0), ("3p", 3, 1),
                  ("3d", 3, 2), ("4s", 4, 0), ("4p", 4, 1), ("4d", 4, 2), ("4f", 4, 3))


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")


def run_cli(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "atomscreen", *args],
        capture_output=True, text=True, env=env,
    )


def test_criterion_1_table1_model_a_within_001ev():
    started = time.monotonic()
    result = run_cli(["table1"])
    elapsed = time.monotonic() - started
    rows = ionization_table(A)  # Mg uses the m = 3 catalog entry by default
    report = compare(rows, reference_records("I"), "present1", 0.01)
    passed = report.all_passed and result.returncode == 0 and elapsed < 120.0
    verdict(1, passed,
            f"table1 model A max deviation {report.max_deviation:.4f} eV"
            f" (tolerance 0.01), cli exit {result.returncode},"
            f" cold run {elapsed:.1f} s (< 120 s)")
    assert report.all_passed, [f"{r.label}: {r.deviation:.4f}" for r in report.failures]
    assert result.returncode == 0
    assert elapsed < 120.0


def test_criterion_2_table3_model_a_within_0002ev():
    rows = lithium_spectrum(A)
    report = compare(rows, reference_records("III"), "present1", 0.002)
    verdict(2, report.all_passed,
            f"table3 model A max deviation {report.max_deviation:.5f} eV (tolerance 0.002)")
    assert report.all_passed, [f"{r.label}: {r.deviation:.5f}" for r in report.failures]


def test_criterion_3_table2_model_a_within_0005ev():
    rows = helium_binding_table(A)
    report = compare(rows, reference_records("II"), "present1", 0.005)
    verdict(3, report.all_passed,
            f"table2 model A max deviation {report.max_deviation:.5f} eV (tolerance 0.005)")
    assert report.all_passed, [f"{r.label}: {r.deviation:.5f}" for r in report.failures]


def test_criterion_4_oracle_equivalence():
    worst_low = 0.0   # nu <= 4, tolerance 1e-8
    worst_high = 0.0  # nu <= 6, tolerance 1e-7
    checks = 0

    def channel_errors(atom, l, count):
        nonlocal worst_low, worst_high, checks
        z_eff = effective_charge(atom.Z, atom.n_electrons, l)
        for state in solve_channel(atom, A, l, count):
            error = abs(state.raw_energy - hydrogenic_energy(z_eff, state.nu))
            checks += 1
            if state.nu <= 4:
                worst_low = max(worst_low, error)
            worst_high = max(worst_high, error)

    # every eigenvalue entering criteria 1..3
    for atom in atom_catalog():
        channel_errors(atom, atom.valence_l, atom.valence_nu - atom.valence_l)
    helium = catalog_atom("He")
    for _, nu, l in HELIUM_STATES:
        channel_errors(helium, l, nu - l)
    lithium = catalog_atom("Li")
    for _, nu, l in LITHIUM_STATES:
        channel_errors(lithium, l, nu - l)
    # catalog valence channels up to nu = 6
    for atom in atom_catalog():
        channel_errors(atom, atom.valence_l, 6 - atom.valence_l)

    # bare hydrogen nu <= 4 against -1/(2 nu^2)
    ws = build_workspace()
    hydrogen = AtomSpec("H", 1, 1, 1, 0, 1)
    pair = assemble(ws, hydrogen, 0, Pseudopotential.BARE_COULOMB)
    bare = solve_lowest(pair, 4).eigenvalues
    worst_bare = max(abs(bare[nu - 1] + 0.5 / nu**2) for nu in range(1, 5))

    passed = worst_low <= 1e-8 and worst_high <= 1e-7 and worst_bare <= 1e-9
    verdict(4, passed,
            f"analytic-oracle agreement over {checks} screened eigenvalues:"
            f" max {worst_low:.2e} (nu<=4, tol 1e-8),"
            f" max {worst_high:.2e} (nu<=6, tol 1e-7),"
            f" bare hydrogen max {worst_bare:.2e} (tol 1e-9)")
    assert worst_low <= 1e-8
    assert worst_high <= 1e-7
    assert worst_bare <= 1e-9


def test_criterion_5_model_b_reproduction_and_discrepancy_report():
    reports = {
        "table1": compare(ionization_table(B), reference_records("I"), "present2", 0.05),
        "table2": compare(helium_binding_table(B), reference_records("II"), "present2", 0.05),
        "table3": compare(lithium_spectrum(B), reference_records("III"), "present2", 0.05),
    }
    total = sum(len(r.rows) for r in reports.values())
    deviating = {name: [row.label for row in r.failures] for name, r in reports.items()}
    n_dev = sum(len(v) for v in deviating.values())

    # every deviating row must surface in the CLI discrepancy report
    reported = True
    for command, labels in deviating.items():
        if not labels:
            continue
        text = run_cli([command]).stdout
        if "model B discrepancy report" not in text:
            reported = False
            continue
        tail = text.split("model B discrepancy report", 1)[1]
        for label in labels:
            if f"{label}: computed" not in tail:
                reported = False

    passed = reported
    verdict(5, passed,
            f"model B: {total - n_dev}/{total} rows within 0.05 eV of printed values;"
            f" {n_dev} deviating rows all emitted in discrepancy reports"
            f" ({', '.join(sorted(set(sum(deviating.values(), []))))});"
            " self-consistency covered by criterion 6")
    assert reported, deviating


def test_criterion_6_property_suite():
    details = []
    ok = True

    ws = build_workspace()
    sums = ws.tables.values.sum(axis=2)
    rng = np.random.default_rng(17)
    unity_dev = float(np.max(np.abs(sums - 1.0)))
    radii = rng.uniform(0.0, 200.0, 100)
    total = sum(eval_bspline(ws.basis, i, radii) for i in range(ws.basis.n_splines))
    unity_dev = max(unity_dev, float(np.max(np.abs(total - 1.0))))
    ok &= unity_dev <= 1e-12
    details.append(f"partition-of-unity {unity_dev:.2e}")

    lithium = catalog_atom("Li")
    pair = assemble(ws, lithium, 0, A)
    sla.cholesky_banded(pair.s_band[: pair.bandwidth + 1], lower=False)  # raises if not SPD
    details.append("overlap SPD")

    solution = solve_lowest(pair, 4)
    ok &= bool(np.all(solution.residual_norms <= 1e-10))
    details.append(f"residuals {solution.residual_norms.max():.2e}")
    gram_dev = 0.0
    for i in range(solution.count):
        s_ci = general_matvec(pair.s_band, solution.vectors[:, i])
        for j in range(solution.count):
            expected = 1.0 if i == j else 0.0
            gram_dev = max(gram_dev, abs(solution.vectors[:, j] @ s_ci - expected))
    ok &= gram_dev <= 1e-10
    details.append(f"S-orthonormality {gram_dev:.2e}")

    rng = np.random.default_rng(2024)
    dense_rel = 0.0
    for dim, bandwidth in ((12, 3), (30, 5), (30, 9)):
        toy = random_banded_pair(rng, dim, bandwidth)
        mine = solve_lowest(toy, dim).eigenvalues
        ref = refined_dense_eigenvalues(band_to_dense(toy.h_band), band_to_dense(toy.s_band))
        dense_rel = max(dense_rel, float(np.max(np.abs(mine - ref) / np.abs(ref))))
    ok &= dense_rel <= 1e-11
    details.append(f"dense-oracle rel {dense_rel:.2e}")

    # shift invariance at the physical (hartree) scale of the radial pair
    sigma = 3.25
    shifted = OperatorPair(h_band=pair.h_band + sigma * pair.s_band, s_band=pair.s_band)
    shift_dev = float(np.max(np.abs(
        solve_lowest(shifted, 4).eigenvalues - (solution.eigenvalues + sigma)
    )))
    ok &= shift_dev <= 1e-12
    details.append(f"shift-invariance {shift_dev:.2e}")

    fine = GridSpec(n_splines=800)
    drift = {}
    for model in (A, B):
        coarse_2s = solve_channel(lithium, model, 0, 2, PAPER_GRID)[1].raw_energy
        fine_2s = solve_channel(lithium, model, 0, 2, fine)[1].raw_energy
        drift[model.value] = abs(coarse_2s - fine_2s)
    ok &= all(d <= 1e-9 for d in drift.values())
    details.append(
        "Li 2s 600->800 drift "
        + ", ".join(f"{name} {value:.2e}" for name, value in drift.items())
    )

    verdict(6, bool(ok), "; ".join(details))
    assert ok, details


def test_criterion_7_determinism_and_exit_contract():
    first = run_cli(["table1", "--format", "csv"])
    second = run_cli(["table1", "--format", "csv"])
    identical = first.stdout == second.stdout and first.stdout.strip()
    ok_pass = first.returncode == 0
    ok_fail = run_cli(["table1", "--mg-mn", "2"]).returncode == 1
    ok_usage = run_cli(["table1", "--config", "/nonexistent.conf"]).returncode == 2
    passed = bool(identical and ok_pass and ok_fail and ok_usage)
    verdict(7, passed,
            f"byte-identical csv across runs: {bool(identical)};"
            f" exit codes pass/fail/usage = 0/1/2 verified")
    assert identical
    assert ok_pass and ok_fail and ok_usage
