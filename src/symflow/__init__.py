"""Symplectic spectral invariants and an exactly solvable 1-D Dirac model."""

from . import errors
from .lagrangian_indices import (
    LagrangianPairPath,
    gamma_conjugate,
    m_pairing,
    maslov,
    maslov_orientation_check,
    opposite_space,
    tau_mu,
    tsig,
    tsig_tau_mu_conversion,
)
from .model_dirac import (
    Circle,
    DoubleBoundarySpace,
    Interval,
    ModeBlock,
    ModelOperator,
    adiabatic_limit,
    boundary_spectrum,
    build_model,
    caldconst_check,
    cauchy_data,
    circle_spectrum,
    direct_sum_lagrangian,
    double_boundary,
    eta_lattice,
    eta_truncated,
    glue_verify,
    interval_eta_tilde,
    interval_kernel_dim,
    interval_spectrum,
    model_symmetry_check,
    nicolaescu_verify,
    p_theta,
    p_theta_kernel_membership,
    sw_modz_check,
    transmission_lagrangian,
)
from .spectral_flow import (
    HermitianPath,
    eta_finite,
    sf_eta_consistency,
    spectral_flow,
)
from .symplectic_core import (
    Lagrangian,
    LagrangianProjection,
    Reduction,
    SymplecticSpace,
    gamma_rotate,
    graph_unitaries,
    intersection_dim,
    lagrangian_from_frame,
    lagrangian_from_phi,
    projection_of,
    rebased_space,
    space_from_gamma,
    standard_space,
    subspace_distance,
    symplectic_reduce,
)
from .unitary_invariants import (
    CrossingLog,
    IndexResult,
    UnitaryPath,
    tau_w,
    tr_log,
    wind,
    wind_plus_inverse_check,
)

__version__ = "0.1.0"
