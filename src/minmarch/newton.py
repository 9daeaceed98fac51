"""Reference solver: Newton's method with Armijo backtracking."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .exceptions import BvpSolveError, NominalSolveError
from .problems.base import ParameterBox, as_vector


@dataclass(frozen=True)
class NewtonConfig:
    grad_tol: float = 1e-10
    max_iters: int = 100
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 40

    def __post_init__(self):
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must be in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if self.max_iters < 1 or self.max_backtracks < 1:
            raise ValueError("max_iters and max_backtracks must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    """Per-iterate diagnostics; alpha and slope describe the step taken FROM here.

    ``polish`` marks steps whose predicted objective decrease was below
    floating-point resolution, accepted by gradient-norm contraction instead
    of the Armijo test.
    """

    objective: float
    grad_norm: float
    hessian_min_eigenvalue: float
    alpha: float | None = None
    directional_derivative: float | None = None
    polish: bool = False


@dataclass
class SolveResult:
    minimizer: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    hessian_min_eigenvalue: float
    history: list[IterationRecord] | None = field(default=None, repr=False)


def to_json_dict(obj) -> dict:
    """Fields of a NewtonConfig or SolveResult for JSON; the iteration history is dropped."""
    data = asdict(obj)
    data.pop("history", None)
    if "minimizer" in data:
        data["minimizer"] = data["minimizer"].tolist()
    return data


def _safe_objective(problem, m, theta) -> float:
    """Objective value, with evaluation failures treated as +inf for line search."""
    try:
        value = problem.objective(m, theta)
    except (BvpSolveError, FloatingPointError, OverflowError):
        return math.inf
    if not math.isfinite(value):
        return math.inf
    return value


def newton_solve(
    problem,
    theta,
    m0,
    config: NewtonConfig = NewtonConfig(),
    record_history: bool = False,
) -> SolveResult:
    """Minimize J(., theta) by damped Newton iteration.

    Search directions solve H p = -g; when H is not positive definite the
    step falls back to steepest descent so the iteration remains a descent
    method far from the minimizer.  Step lengths come from Armijo
    backtracking on J.  Convergence requires both the relative gradient test
    ||g|| <= grad_tol (1 + |J|) and a positive definite Hessian at the final
    iterate.
    """
    theta = np.asarray(theta, dtype=float)
    m = as_vector(m0, "m0").copy()
    history: list[IterationRecord] | None = [] if record_history else None

    iterations = 0
    while True:
        value, g = problem.objective_gradient(m, theta)
        grad_norm = float(np.linalg.norm(g))
        H = problem.hessian(m, theta)
        evals, vecs = np.linalg.eigh(H)
        min_eig = float(evals[0])

        if grad_norm <= config.grad_tol * (1.0 + abs(value)):
            if history is not None:
                history.append(IterationRecord(value, grad_norm, min_eig))
            return SolveResult(
                m, value, grad_norm, iterations, min_eig > 0.0, min_eig, history
            )
        if iterations >= config.max_iters:
            if history is not None:
                history.append(IterationRecord(value, grad_norm, min_eig))
            return SolveResult(m, value, grad_norm, iterations, False, min_eig, history)

        if min_eig > 0.0:
            p = -(vecs @ ((vecs.T @ g) / evals))
        else:
            p = -g
        slope = float(g @ p)

        # When the achievable decrease sits below roundoff on J, the Armijo
        # test cannot measure progress; accept the unit step iff it contracts
        # the gradient norm, which stays measurable down to machine precision.
        polish = abs(slope) <= 8.0 * np.finfo(float).eps * (1.0 + abs(value))
        alpha = 1.0
        accepted = False
        if polish:
            try:
                trial_grad = problem.gradient(m + p, theta)
            except BvpSolveError:
                accepted = False
            else:
                accepted = float(np.linalg.norm(trial_grad)) < grad_norm
        else:
            for _ in range(config.max_backtracks):
                trial = _safe_objective(problem, m + alpha * p, theta)
                if trial <= value + config.armijo_c * alpha * slope:
                    accepted = True
                    break
                alpha *= config.backtrack_factor
        if history is not None:
            history.append(
                IterationRecord(
                    value, grad_norm, min_eig, alpha if accepted else None, slope, polish
                )
            )
        if not accepted:
            return SolveResult(m, value, grad_norm, iterations, False, min_eig, history)

        m = m + alpha * p
        iterations += 1


def solve_nominal(
    problem, box: ParameterBox, config: NewtonConfig = NewtonConfig()
) -> SolveResult:
    """Solve at the nominal parameters from the problem's initial guess.

    This anchors every subsequent march.  Raises NominalSolveError unless the
    solve converged to a strict local minimizer (positive definite Hessian).
    """
    result = newton_solve(problem, box.nominal, problem.initial_guess(), config)
    if not result.converged:
        raise NominalSolveError(
            f"nominal solve did not converge (grad_norm={result.grad_norm!r} "
            f"after {result.iterations} iterations)"
        )
    if result.hessian_min_eigenvalue <= 0.0:
        raise NominalSolveError(
            "nominal stationary point is not a strict local minimizer "
            f"(min eigenvalue {result.hessian_min_eigenvalue!r})"
        )
    return result

