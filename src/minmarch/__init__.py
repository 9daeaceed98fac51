"""minmarch: uncertainty propagation for minimizers of parameterized optimization problems.

Given an optimization problem whose objective depends on uncertain
parameters, the toolkit approximates the minimizer at any sampled parameter
vector by integrating an ODE in pseudo-time whose right-hand side is the
post-optimality sensitivity operator -H^{-1} B applied to the parameter
displacement.  Only one optimization solve (at the nominal parameters) is
required; a Newton re-solve oracle is included for validation.
"""

from .derivatives import check_derivatives
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
    DoubleWellProblem,
    LogisticWellProblem,
    ParameterBox,
    Problem,
    QuadraticProblem,
)
from .sensitivity import post_optimality_apply
from .uq import SampleStudy, fit_loglog_slope, kde, propagate_study, summary_errors

__version__ = "0.1.0"

__all__ = [
    "BvpSolveError",
    "ConfigError",
    "DegenerateBandwidthError",
    "DoubleWellProblem",
    "LogisticWellProblem",
    "MarchStatus",
    "MinmarchError",
    "NewtonConfig",
    "NominalSolveError",
    "ParameterBox",
    "Problem",
    "QuadraticProblem",
    "SampleStudy",
    "Scheme",
    "SolveResult",
    "StationarityError",
    "Trajectory",
    "check_derivatives",
    "fit_loglog_slope",
    "kde",
    "march_block",
    "newton_solve",
    "post_optimality_apply",
    "propagate_study",
    "solve_nominal",
    "summary_errors",
]
