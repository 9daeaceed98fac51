"""Built-in problems and the parameterized-problem contract.

The advdiff problem lives in `minmarch.problems.advdiff`, imported by its
path: it is the only module that loads scipy (`scipy.linalg`, about 0.2 s
to import), so importing this package does not load it.
"""

from .analytic import DoubleWellProblem, LogisticWellProblem, QuadraticProblem
from .base import ParameterBox, Problem

__all__ = [
    "DoubleWellProblem",
    "LogisticWellProblem",
    "ParameterBox",
    "Problem",
    "QuadraticProblem",
]
