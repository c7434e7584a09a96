"""Variational toolkit for the Dirichlet p-Laplacian problem
-div(|grad u|^(p-2) grad u) = f(x, u) + h on intervals and rectangles.

The package computes first eigenpairs of the p-Laplacian, minimizes the
associated energy functional, verifies weak solutions against truncated
test bases, and audits the solvability hypotheses of three nonresonance
theorems on a catalog of model nonlinearities.
"""

import os as _os

# PLAPVAR_THREADS, parsed once to a positive int or None, caps the BLAS/OpenMP
# pools before numpy is imported anywhere below; it overrides pool variables
# that are already set, so the manifest's thread_cap is the cap in force.
try:
    _thread_cap = max(int(_os.environ.get("PLAPVAR_THREADS", "")), 0) or None
except ValueError:
    _thread_cap = None
if _thread_cap is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ[_var] = str(_thread_cap)

__version__ = "0.1.0"

from .meshing import (
    Mesh,
    build_interval_mesh,
    build_rectangle_mesh,
    refine_structured,
)
from .assembly import (
    DiscreteField,
    DualVector,
    dirichlet_energy,
    interpolate,
    load_vector,
    lp_integral,
    make_dual,
    make_field,
    pairing,
    plap_residual,
    sup_norm,
    zero_dual,
    zero_field,
)
from .eigen import (
    EigenConvergenceError,
    EigenResult,
    collatz_wielandt_bracket,
    first_eigenpair,
    rayleigh_quotient,
)
from .nonlinearity import (
    NonlinearitySpec,
    SpatialWeight,
    as_weight,
    eval_F,
    eval_G,
    eval_f,
    modulated_resonance,
    power_perturbation,
    power_potential,
    sine_exp,
    weighted_absval,
    weighted_comparison,
)
from .conditions import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    ComparisonFunction,
    HypothesisReport,
    IncomparabilityTable,
    LimsupEstimate,
    Verdict,
    check_class_membership,
    check_f0,
    check_growth,
    check_superlinear_negativity,
    check_theorems,
    estimate_limsup,
    incomparability_suite,
    log_power_comparison,
    power_comparison,
    verify_comparison_function,
)
from .solver import (
    ResidualReport,
    SolveResult,
    UnboundedBelowError,
    assemble_phi,
    estimate_lambda_u,
    make_truncation,
    minimize_phi,
    phi_gradient,
    truncated_test_basis,
    verify_weak_solution,
)
from .cli import ConfigError, ExperimentConfig, main, parse_config

__all__ = [
    "__version__",
    # meshing
    "Mesh", "build_interval_mesh", "build_rectangle_mesh",
    "refine_structured",
    # assembly
    "DiscreteField", "DualVector", "make_field", "zero_field", "make_dual",
    "zero_dual", "interpolate", "dirichlet_energy", "lp_integral",
    "plap_residual", "pairing", "load_vector", "sup_norm",
    # eigen
    "EigenResult", "EigenConvergenceError", "first_eigenpair",
    "rayleigh_quotient", "collatz_wielandt_bracket",
    # nonlinearity
    "NonlinearitySpec", "SpatialWeight", "as_weight", "eval_f", "eval_F",
    "eval_G", "sine_exp", "power_perturbation", "power_potential",
    "weighted_comparison", "weighted_absval", "modulated_resonance",
    # conditions
    "HOLDS", "FAILS", "INCONCLUSIVE", "Verdict", "HypothesisReport",
    "LimsupEstimate", "ComparisonFunction", "power_comparison",
    "log_power_comparison", "estimate_limsup", "check_growth", "check_f0",
    "verify_comparison_function", "check_class_membership",
    "check_theorems", "check_superlinear_negativity",
    "incomparability_suite", "IncomparabilityTable",
    # solver
    "SolveResult", "ResidualReport", "UnboundedBelowError", "make_truncation",
    "truncated_test_basis", "assemble_phi", "phi_gradient", "minimize_phi",
    "estimate_lambda_u", "verify_weak_solution",
    # cli
    "ConfigError", "ExperimentConfig", "parse_config", "main",
]
