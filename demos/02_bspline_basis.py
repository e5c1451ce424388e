"""What the radial B-spline basis looks like.

Builds the default 600-spline exp-linear grid, prints how the breakpoint
spacing evolves from the nucleus to the box wall, and checks two basis
identities (partition of unity, quadrature exactness) numerically.
"""

import numpy as np

from atomscreen import build_workspace, eval_bspline, make_knots, make_quadrature


def describe_default_grid():
    ws = build_workspace()
    bp = ws.basis.breakpoints
    spacing = np.diff(bp)
    print(f"default grid: {ws.basis.n_splines} splines of order {ws.basis.order_k},"
          f" box radius {ws.basis.r_max} bohr")
    print(f"breakpoints: {len(bp)} ({ws.basis.n_intervals} intervals),"
          f" active splines after boundary trimming: {ws.basis.n_active}")
    print(f"first interval: {spacing[0]:.1e} bohr, tail interval: {spacing[-1]:.4f} bohr")
    marks = [1, 50, 150, 300, 450, 591]
    print("\n  interval    left edge      spacing")
    for m in marks:
        print(f"  {m:>8} {bp[m - 1]:>12.6f} {spacing[m - 1]:>12.6f}")


def check_partition_of_unity():
    ws = build_workspace()
    rng = np.random.default_rng(1)
    radii = rng.uniform(0.0, ws.basis.r_max, 200)
    total = sum(eval_bspline(ws.basis, i, radii) for i in range(ws.basis.n_splines))
    worst = float(np.max(np.abs(total - 1.0)))
    print(f"\npartition of unity over 200 random radii: max |sum - 1| = {worst:.2e}")


def check_quadrature():
    basis = make_knots(20.0, 120, 8, "exp-linear", 1e-4)
    quad = make_quadrature(basis, 20)
    numeric = float(np.sum(quad.weights * np.exp(-2.0 * quad.nodes)))
    exact = 0.5 * (1.0 - np.exp(-40.0))
    print(f"integral of exp(-2r) over [0, 20]: {numeric:.15f}")
    print(f"analytic value:                    {exact:.15f}")
    print(f"difference: {abs(numeric - exact):.2e}")


if __name__ == "__main__":
    describe_default_grid()
    check_partition_of_unity()
    check_quadrature()
