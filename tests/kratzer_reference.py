"""Exact levels of the Kratzer potential V = -q/r + c/r^2, an oracle for the
central model's repulsive core.

Near the origin model.screening_factor diverges like 6/(125 Z r), so the
central model's screening term a f_Z(r)/r tends to c/r^2 with
c = 6a/(125 Z): its core is a Kratzer term (A. Kratzer, Z. Phys. 3, 289
(1920)). With lambda = -1/2 + sqrt((l + 1/2)^2 + 2c), the radial equation
of V is the Coulomb one at the non-integer angular momentum lambda, as
lambda (lambda + 1) = l (l + 1) + 2c. So the levels are

    -q^2 / (2 (n_r + lambda + 1)^2),    n_r = 0, 1, ...,

and u ~ r^(lambda + 1) at the origin: a non-integer power, which no
polynomial spline represents exactly, so the Galerkin error of an s level
scales with the first breakpoint r_first as r_first^(2 lambda + 1).
"""

from __future__ import annotations

import numpy as np

from atomscreen.model import central_screening_amplitude


def core_coefficient(z: int, n_electrons: int) -> float:
    """c = 6a/(125 Z) of the central model's core, a its screening amplitude."""
    return 6.0 * central_screening_amplitude(z, n_electrons) / (125.0 * z)


def kratzer_exponent(c: float, l: int) -> float:
    """lambda = -1/2 + sqrt((l + 1/2)^2 + 2c), the effective angular momentum."""
    return -0.5 + np.sqrt((l + 0.5) ** 2 + 2.0 * c)


def kratzer_levels(q: float, c: float, l: int, count: int) -> np.ndarray:
    """The ``count`` lowest levels of V = -q/r + c/r^2 in channel l (hartree)."""
    return -q * q / (2.0 * (np.arange(count) + kratzer_exponent(c, l) + 1.0) ** 2)
