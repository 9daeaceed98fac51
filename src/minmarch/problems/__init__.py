"""Built-in problems and the parameterized-problem contract."""

from .analytic import DoubleWellProblem, LogisticWellProblem, QuadraticProblem
from .base import ParameterBox, Problem, as_vector

# the advdiff module imports scipy.linalg, the package's only scipy module,
# which takes about 0.2 s to import and 0.04 s to tear down; only advdiff
# needs it, so its names are resolved on first use
_ADVDIFF_NAMES = (
    "AdvDiffInverseProblem",
    "AdvectionDiffusionModel",
    "make_advdiff_problem",
    "synthesize_observations",
)


def __getattr__(name):
    if name in _ADVDIFF_NAMES:
        from . import advdiff

        return getattr(advdiff, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdvDiffInverseProblem",
    "AdvectionDiffusionModel",
    "DoubleWellProblem",
    "LogisticWellProblem",
    "ParameterBox",
    "Problem",
    "QuadraticProblem",
    "as_vector",
    "make_advdiff_problem",
    "synthesize_observations",
]
