"""Finite-difference verification of derivatives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems.base import derivatives_at

DEFAULT_FD_STEP = 1e-6


def _steps(x: np.ndarray, base: float) -> np.ndarray:
    # per-coordinate step, scaled away from zero components
    return base * np.maximum(1.0, np.abs(x))


def fd_jacobian(vecfunc, x: np.ndarray, base_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central differences of a vector function, one column per coordinate of x."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, base_step)
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        cols.append((vecfunc(xp) - vecfunc(xm)) / (2.0 * h[i]))
    return np.column_stack(cols)


def _richardson_jacobian(vecfunc, x: np.ndarray, base_step: float) -> np.ndarray:
    """Central differences at steps h and h/2 combined as (4 D(h/2) - D(h)) / 3.

    The h^2 truncation terms cancel, leaving O(h^4).
    """
    half = fd_jacobian(vecfunc, x, 0.5 * base_step)
    return (4.0 * half - fd_jacobian(vecfunc, x, base_step)) / 3.0


def _max_rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Worst relative discrepancies between supplied derivatives and FD."""

    max_rel_error_gradient: float
    max_rel_error_hessian: float
    max_rel_error_mixed: float
    fd_step: float

    def passed(self, tol: float) -> bool:
        return (
            self.max_rel_error_gradient <= tol
            and self.max_rel_error_hessian <= tol
            and self.max_rel_error_mixed <= tol
        )

    def worst(self) -> float:
        return max(
            self.max_rel_error_gradient,
            self.max_rel_error_hessian,
            self.max_rel_error_mixed,
        )


def check_derivatives(
    problem,
    m: np.ndarray,
    theta: np.ndarray,
    fd_step: float = DEFAULT_FD_STEP,
) -> DerivativeCheckReport:
    """Compare a problem's derivative evaluators against central differences.

    The gradient is checked against central differences of the objective.
    The Hessian and the mixed derivative are checked against Richardson-
    extrapolated central differences of the gradient, whose truncation error
    stays below roundoff where a single difference's does not (near the
    lower kappa edge of the advdiff basin, for one).
    Evaluation failures at perturbed points (e.g. a PDE solve breaking down)
    propagate rather than being skipped.
    """
    if not 0 < fd_step < np.inf:
        raise ValueError("fd_step must be positive and finite")
    m = np.asarray(m, dtype=float)
    theta = np.asarray(theta, dtype=float)

    g = problem.gradient(m, theta)
    g_fd = fd_jacobian(lambda mm: np.atleast_1d(problem.objective(mm, theta)), m, fd_step)[0]

    H = problem.hessian(m, theta)
    H_fd = _richardson_jacobian(lambda mm: problem.gradient(mm, theta), m, fd_step)

    B = derivatives_at(problem, m, theta)[3]
    B_fd = _richardson_jacobian(lambda tt: problem.gradient(m, tt), theta, fd_step)

    return DerivativeCheckReport(
        max_rel_error_gradient=_max_rel_error(g, g_fd),
        max_rel_error_hessian=_max_rel_error(H, H_fd),
        max_rel_error_mixed=_max_rel_error(B, B_fd),
        fd_step=fd_step,
    )

