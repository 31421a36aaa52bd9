"""Numerical toolkit for the 1-D fractional heat equation on an interval.

Dense Dirichlet discretization of the fractional Laplacian in Riesz form,
Crank-Nicolson time stepping with stability diagnostics, and closed-form
recovery of a time-dependent source coefficient from weighted-integral
measurements, plus the convergence and noise-robustness studies around them.
"""

from .forward import (
    StabilityReport,
    StepOperators,
    cn_step,
    make_step_operators,
    run_forward,
    spectral_duhamel_oracle,
    stability_bounds,
)
from .grid import (
    CoefficientSeries,
    Grid,
    MeasurementSeries,
    ProblemData,
    SeparatedForcing,
    Trajectory,
    make_grid,
)
from .inverse import (
    DenominatorNearZero,
    NoiseSpec,
    discrete_measurement,
    measurements_from_trajectory,
    perturb_measurements,
    recover_r_step,
    run_inverse,
    run_inverse_batch,
    smooth_measurements,
)
from .manufactured import ManufacturedProblem, build_manufactured
from .riesz import (
    QuadratureConvergenceError,
    RieszOperator,
    assemble,
    exterior_tail,
    normalization_constant,
    quadrature_oracle,
)
from .solvers import (
    NotSpdError,
    SolverError,
    SpdFactorization,
    SpectralDecomposition,
    cg_solve,
    cholesky,
    eigendecompose,
)
from .studies import (
    ConvergenceTable,
    NoiseStudyResult,
    StudyConfig,
    convergence_study_space,
    convergence_study_time,
    emit_outputs,
    load_config,
    noise_study,
    rate_fit,
    run_inverse_case,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSeries",
    "ConvergenceTable",
    "DenominatorNearZero",
    "Grid",
    "ManufacturedProblem",
    "MeasurementSeries",
    "NoiseSpec",
    "NoiseStudyResult",
    "NotSpdError",
    "ProblemData",
    "QuadratureConvergenceError",
    "RieszOperator",
    "SeparatedForcing",
    "SolverError",
    "SpdFactorization",
    "SpectralDecomposition",
    "StabilityReport",
    "StepOperators",
    "StudyConfig",
    "Trajectory",
    "assemble",
    "build_manufactured",
    "cg_solve",
    "cholesky",
    "cn_step",
    "convergence_study_space",
    "convergence_study_time",
    "discrete_measurement",
    "eigendecompose",
    "emit_outputs",
    "exterior_tail",
    "load_config",
    "make_grid",
    "make_step_operators",
    "measurements_from_trajectory",
    "noise_study",
    "normalization_constant",
    "perturb_measurements",
    "quadrature_oracle",
    "rate_fit",
    "recover_r_step",
    "run_forward",
    "run_inverse",
    "run_inverse_batch",
    "run_inverse_case",
    "smooth_measurements",
    "spectral_duhamel_oracle",
    "stability_bounds",
]
