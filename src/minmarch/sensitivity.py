"""Post-optimality sensitivity operator and the parameter line it is applied along."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import IndefiniteHessianError
from .problems.base import as_vector

# relative eigenvalue threshold below which the Hessian counts as singular
_SINGULAR_RTOL = 1e-14


@dataclass(frozen=True)
class ParameterLine:
    """Straight segment from a nominal parameter vector to a sampled one."""

    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        start = as_vector(self.start, "start")
        end = as_vector(self.end, "end")
        if start.shape != end.shape:
            raise ValueError("start and end must have the same length")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @property
    def direction(self) -> np.ndarray:
        return self.end - self.start

    def at(self, t: float) -> np.ndarray:
        """Point on the segment at pseudo-time t; endpoints are returned exactly."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t={t!r} outside [0, 1]")
        if t == 0.0:
            return self.start.copy()
        if t == 1.0:
            return self.end.copy()
        return self.start + t * (self.end - self.start)


@dataclass(frozen=True)
class SensitivityApply:
    """Action of the post-optimality sensitivity operator on a direction.

    ``result`` solves H result = -B direction.  The smallest Hessian
    eigenvalue and a condition estimate are recorded at the evaluation point.
    """

    direction: np.ndarray
    result: np.ndarray
    hessian_min_eigenvalue: float
    condition_estimate: float


def post_optimality_apply(problem, m, theta, dtheta) -> SensitivityApply:
    """Apply D = -H^{-1} B to a parameter direction at the point (m, theta).

    Uses a dense symmetric eigendecomposition, which doubles as the
    definiteness diagnostic.  Raises IndefiniteHessianError when the Hessian
    is singular or not positive definite: continuing there would track a
    stationary point that is not a local minimizer.
    """
    m = np.asarray(m, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dtheta = np.asarray(dtheta, dtype=float)

    H, B = problem.hessian_and_mixed(m, theta)
    rhs = -(B @ dtheta)

    if H.shape == (1, 1):
        h = H[0, 0]
        if h <= 0.0:
            raise IndefiniteHessianError(
                f"Hessian is not positive definite (eigenvalue {h!r})", h
            )
        return SensitivityApply(dtheta, rhs / h, h, 1.0)

    evals, vecs = np.linalg.eigh(H)
    min_eig = float(evals[0])
    if min_eig <= 0.0 or min_eig <= _SINGULAR_RTOL * abs(float(evals[-1])):
        raise IndefiniteHessianError(
            f"Hessian is singular or indefinite (min eigenvalue {min_eig!r})",
            min_eig,
        )
    cond = float(evals[-1] / evals[0])
    result = vecs @ ((vecs.T @ rhs) / evals)
    return SensitivityApply(dtheta, result, min_eig, cond)

