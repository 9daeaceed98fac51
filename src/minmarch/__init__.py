"""minmarch: uncertainty propagation for minimizers of parameterized optimization problems.

Given an optimization problem whose objective depends on uncertain
parameters, the toolkit approximates the minimizer at any sampled parameter
vector by integrating an ODE in pseudo-time whose right-hand side is the
post-optimality sensitivity operator -H^{-1} B applied to the parameter
displacement.  Only one optimization solve (at the nominal parameters) is
required; a Newton re-solve oracle is included for validation.
"""

from .derivatives import DerivativeCheckReport, check_derivatives
from .exceptions import (
    BvpSolveError,
    ConfigError,
    DegenerateBandwidthError,
    MinmarchError,
    NominalSolveError,
    StationarityError,
)
from .marching import MarchStatus, Scheme, Trajectory, march_block
from .newton import NewtonConfig, SolveResult, newton_solve, solve_nominal
from .problems import (
    _ADVDIFF_NAMES,
    DoubleWellProblem,
    LogisticWellProblem,
    ParameterBox,
    Problem,
    QuadraticProblem,
)
from .sensitivity import ParameterLine, SensitivityApply, post_optimality_apply
from .uq import (
    ConvergenceReport,
    DensityEstimate,
    SampleStudy,
    StudyErrorSummary,
    fit_loglog_slope,
    kde,
    propagate_study,
    silverman_bandwidth,
    summary_errors,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the advdiff names load scipy.linalg, so they are imported on first use
    if name in _ADVDIFF_NAMES:
        from . import problems

        return getattr(problems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdvDiffInverseProblem",
    "AdvectionDiffusionModel",
    "BvpSolveError",
    "ConfigError",
    "DegenerateBandwidthError",
    "DerivativeCheckReport",
    "DoubleWellProblem",
    "LogisticWellProblem",
    "MarchStatus",
    "MinmarchError",
    "NewtonConfig",
    "NominalSolveError",
    "ParameterBox",
    "ParameterLine",
    "Problem",
    "QuadraticProblem",
    "Scheme",
    "SensitivityApply",
    "SolveResult",
    "StationarityError",
    "Trajectory",
    "ConvergenceReport",
    "DensityEstimate",
    "SampleStudy",
    "StudyErrorSummary",
    "check_derivatives",
    "fit_loglog_slope",
    "kde",
    "make_advdiff_problem",
    "march_block",
    "newton_solve",
    "post_optimality_apply",
    "propagate_study",
    "silverman_bandwidth",
    "solve_nominal",
    "summary_errors",
    "synthesize_observations",
]
