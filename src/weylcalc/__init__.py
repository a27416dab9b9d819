"""Numerical calculus for operators T = M - a z I on entire functions.

Truncated Taylor-series arithmetic, Weyl-operator algebra, kernel bases,
translate eigenfunctions, completeness experiments and explicit
approximate orbit constructions, plus a reproducible CLI.
"""

__version__ = "0.1.0"

from .errors import WeylcalcError
from .series import (
    DiskSpec,
    TaylorSeries,
    disk_sup_norm,
    gaussian_series,
    linear_combine,
    make_series,
    multiply_by_poly,
    translate,
)
from .operators import (
    CompositeOperator,
    ConvolutionOperator,
    WeylOperator,
    apply_composite,
    apply_conv,
    apply_weyl,
    commutator_matrix,
    decompose,
    diff_op,
    differentiate,
    ladder_check,
    matrix_on_monomials,
)
from .kernel_solver import KernelBasis, kernel_basis, kernel_residual
from .eigen import (
    CompletenessBasis,
    EigenFamily,
    FitReport,
    LambdaSet,
    completeness_bases,
    completeness_fit,
    composite_eigencheck,
    eigen_residual,
    eigenfunction,
)
from .orbit import (
    OrbitConstruction,
    OrbitProblem,
    construct_orbit,
    select_expanding_lambdas,
    verify_orbit,
)

__all__ = [
    "__version__",
    "WeylcalcError",
    "DiskSpec",
    "TaylorSeries",
    "disk_sup_norm",
    "gaussian_series",
    "linear_combine",
    "make_series",
    "multiply_by_poly",
    "translate",
    "CompositeOperator",
    "ConvolutionOperator",
    "WeylOperator",
    "apply_composite",
    "apply_conv",
    "apply_weyl",
    "commutator_matrix",
    "decompose",
    "diff_op",
    "differentiate",
    "ladder_check",
    "matrix_on_monomials",
    "KernelBasis",
    "kernel_basis",
    "kernel_residual",
    "CompletenessBasis",
    "EigenFamily",
    "FitReport",
    "LambdaSet",
    "completeness_bases",
    "completeness_fit",
    "composite_eigencheck",
    "eigen_residual",
    "eigenfunction",
    "OrbitConstruction",
    "OrbitProblem",
    "construct_orbit",
    "select_expanding_lambdas",
    "verify_orbit",
]
