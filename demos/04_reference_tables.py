"""Reproduce the three bundled golden tables with both screening models.

Equivalent to the table1/table2/table3 CLI commands, but driven through the
library API so the intermediate objects are visible.
"""

from atomscreen import (
    Pseudopotential,
    compare,
    helium_binding_table,
    ionization_table,
    lithium_spectrum,
    reference_records,
)
from atomscreen.cli import MODEL_A_TOLERANCES, MODEL_B_TOLERANCE

A = Pseudopotential.SYMMETRY_DEPENDENT
B = Pseudopotential.CENTRAL_SCREENING


def reproduce(title, command, table_id, builder):
    tol_a = MODEL_A_TOLERANCES[command]
    rows_a = builder(A)
    rows_b = builder(B)
    golden = reference_records(table_id)
    report_a = compare(rows_a, golden, "present1", tol_a)
    report_b = compare(rows_b, golden, "present2", MODEL_B_TOLERANCE)
    print(f"\n{title}")
    print(f"  {'row':<5} {'model A':>10} {'golden':>9} {'model B':>10} {'golden':>9}")
    for (label, value_a), (_, value_b), record in zip(rows_a, rows_b, golden):
        print(f"  {label:<5} {value_a:>10.4f} {record.present1_ev:>9.3f}"
              f" {value_b:>10.4f} {record.present2_ev:>9.3f}")
    gate = "PASS" if report_a.all_passed else "FAIL"
    print(f"  model A: {gate}, max deviation {report_a.max_deviation:.4f} eV"
          f" (tolerance {tol_a})")
    if report_b.failures:
        labels = ", ".join(row.label for row in report_b.failures)
        print(f"  model B rows beyond {MODEL_B_TOLERANCE} eV: {labels}")
        print("  (these misses are not numerical: the Li 2s eigenvalue moves by")
        print("   1.4e-10 Ha over 300-1200 splines and by 3.4e-15 and 3.9e-15 Ha over")
        print("   10-20-30 quadrature nodes, see `atomscreen converge --atom Li --state 2s")
        print("   --model central --sweep-splines 300,600,1200`; the high-l rows")
        print("   agree to a few meV, the large misses sit in core-penetrating s rows)")
    else:
        print(f"  model B: every row within {MODEL_B_TOLERANCE} eV")


if __name__ == "__main__":
    reproduce("ionization potentials (eV)", "table1", "I", ionization_table)
    reproduce("helium binding energies (eV)", "table2", "II", helium_binding_table)
    reproduce("excited lithium eigenvalues (eV)", "table3", "III", lithium_spectrum)
