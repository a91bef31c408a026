"""Rotating vortex-patch computations for the 3D quasi-geostrophic model.

The package computes, around revolution-shape stationary patches:
the linear dispersion relation Omega -> lambda_n(Omega), the bifurcation
points Omega_m where lambda_m = 1, the associated kernel eigenfunctions,
and the bifurcated branches of uniformly rotating non-axisymmetric
patches.
"""

from .errors import AccuracyError, DomainError, GeometryError, QG3DError, SolverError
from .kernel import (
    KernelContext,
    KernelMatrix,
    NuTable,
    assemble_kernel_matrix,
    big_r,
    h_n,
    hn_decay_scan,
    kappa,
    nu_omega,
)
from .linop import apply_mode_direct, apply_mode_hyper, cross_validate, gateaux_check
from .nonlinear import (
    Branch,
    BranchPoint,
    Collocation,
    Perturbation,
    continue_branch,
    f_tilde,
    f_tilde_modes,
    mean_m,
    newton_correct,
    stream_I,
    velocity_on_axis,
    velocity_residual,
)
from .profiles import (
    EllipsoidConstants,
    Profile,
    ValidationReport,
    arc_chord_constants,
    ellipsoid_alphas,
    make_profile,
    profile_from_csv,
    validate_profile,
)
from .quadrature import QuadratureRule, double_exponential, gauss_panel, periodic_trapezoid, split_de
from .spectral import (
    BifurcationPoint,
    BoundaryReport,
    DispersionCurve,
    SpectralResult,
    dispersion_scan,
    eigen_bounds,
    eigenfunction_boundary_report,
    find_bifurcation_point,
    kernel_dimension_check,
    largest_eigenvalue,
    refine_eigenvalue,
    transversality_check,
)
from .specfun import digamma, f_n, gamma_fn, gauss_2f1, pochhammer, ring_integral

__version__ = "0.1.0"
