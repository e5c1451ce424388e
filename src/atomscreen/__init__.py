"""Screened one-electron models for n-electron atoms on a B-spline grid.

The package solves the reduced radial Schroedinger problem for two effective
pseudopotentials (an l-dependent pure-Coulomb screening and an l-independent
central screening profile) in a B-spline Galerkin basis, labels and scales
the resulting spectra into ionization potentials and excited-state tables,
and checks them against bundled golden reference data and an exact analytic
Coulomb oracle.
"""

from .bsplines import (
    GridSpec,
    KnotBasis,
    PAPER_GRID,
    QuadratureRule,
    Workspace,
    build_workspace,
    design_tables,
    eval_bspline,
    make_knots,
    make_quadrature,
)
from .eigensolve import (
    DegenerateSpectrumError,
    EigenSolution,
    EigensolverError,
    solve_lowest,
)
from .model import (
    AtomSpec,
    CODATA_UNITS,
    ModelDomainError,
    PAPER_UNITS,
    Pseudopotential,
    SymmetryChannel,
    UnitSystem,
    atom_catalog,
    catalog_atom,
    central_screening_amplitude,
    effective_charge,
    hydrogenic_energy,
    partition_alpha,
    potential_terms,
    potential_value,
    screening_factor,
)
from .operators import (
    OperatorPair,
    assemble,
)
from .spectra import (
    ComparisonReport,
    ComparisonRow,
    LabeledState,
    ReferenceRecord,
    compare,
    helium_binding_table,
    ionization_potential,
    ionization_table,
    lithium_spectrum,
    load_reference_records,
    reference_records,
    solve_channel,
)

__version__ = "0.1.0"
