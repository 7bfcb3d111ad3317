"""Exterior calculus, closed G2-structures, SU(3)-structures and Laplacian
flow on low-dimensional Lie algebras."""

import logging as _logging

_logging.getLogger("g2lab").addHandler(_logging.NullHandler())

from .exterior import (
    Endo,
    KForm,
    MetricData,
    basis_vector,
    endo_action,
    hodge,
    inner,
    interior,
    norm_sq,
    wedge,
)
from .liealg import (
    DerivationSpace,
    LieAlgebra,
    StructureFlags,
    abelian,
    betti,
    ce_differential,
    check_jacobi,
    derivation_space,
    from_structure_equations,
    is_derivation,
    is_unimodular,
    radical_basis,
    rank_one_extension,
    structure_flags,
)
from .g2 import (
    CurvatureData,
    ERPDiagnostics,
    G2Structure,
    TorsionData,
    adapted_phi,
    curvature,
    erp_diagnostics,
    erp_residual,
    hodge_laplacian_closed,
    is_positive,
    j_map,
    metric_from_phi,
    project_14,
    search_closed_positive,
    torsion_form,
)
from .su3 import (
    CoupledData,
    DerivationFamily,
    SU3Structure,
    TorsionClass,
    adapted_su3_pair,
    check_dw2_prop_psi,
    find_compatible_derivations,
    g2_from_extension,
    reconstruct_su3,
    su3_torsion_class,
    w2_of,
)
from .flow import (
    AnsatzCoefficients,
    FlowTrajectory,
    SolitonSolution,
    algebraic_soliton_solve,
    ansatz_coefficients,
    gabk_solution,
    laplacian_flow,
    lauret_exponents,
    lauret_solution,
    self_similar_check,
)
from . import catalog
from .scalars import FLOAT, RATIONAL

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
