"""Reference solver: Newton's method with Armijo backtracking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NominalSolveError
from .problems.base import ParameterBox, as_vector, dot_rows
from .sensitivity import apply_inverse_hessian


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


@dataclass
class SolveResult:
    """One re-solve, or S of them as columns: minimizer (S, d), the other fields (S,).

    The fields describe the last iterate.  Iterate k of a solve is the last
    iterate of the same solve with ``NewtonConfig(max_iters=k)``.
    """

    minimizer: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    hessian_min_eigenvalue: float

    def row(self, s: int) -> "SolveResult":
        """Solve s of a stacked result, with scalar fields."""
        return SolveResult(
            self.minimizer[s].copy(),
            float(self.objective[s]),
            float(self.grad_norm[s]),
            int(self.iterations[s]),
            bool(self.converged[s]),
            float(self.hessian_min_eigenvalue[s]),
        )


def newton_solve(problem, theta, m0, config: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Minimize J(., theta) from m0 by damped Newton iteration.

    The S = 1 call of ``newton_solve_block``, which re-solves a stack of
    parameter vectors in lockstep; see there for the method.
    """
    theta = np.asarray(theta, dtype=float)
    block = newton_solve_block(problem, theta[None], as_vector(m0, "m0"), config)
    return block.row(0)


def newton_solve_block(problem, Theta, m0, config: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Minimize J(., Theta[s]) for each row s of Theta (S, p), in lockstep.

    Every row starts from ``m0``, one point (d,) or one per row (S, d).
    Search directions solve H p = -g; when H is not positive definite the
    step falls back to steepest descent so the iteration remains a descent
    method far from the minimizer.  Step lengths come from Armijo
    backtracking on J.  When the predicted decrease is below roundoff on J
    the Armijo test cannot measure progress, so the unit step is taken iff
    it contracts the gradient norm (a polish step).  A row converges when
    both ||g|| <= grad_tol (1 + |J|) and its Hessian is positive definite;
    it fails when that test holds with an indefinite Hessian, after
    ``max_iters`` steps, when no step length is accepted, or when its
    derivatives cannot be evaluated.

    Each iteration makes one ``problem.derivatives`` call, without
    directions since the oracle needs no mixed derivative, at the unit
    steps of all rows still iterating, and one ``values`` call per further
    backtracking round on the rows still searching.  The derivatives at an
    accepted unit step serve the next iteration; only the start and the
    iterates reached by a shorter step are evaluated anew.  A row that
    stops keeps its last iterate and is not evaluated again.  Every
    operation is row-wise, so a row's result does not depend on its block.

    Returns one ``SolveResult`` whose fields are columns over the S rows;
    ``SolveResult.row`` takes one of them out.  It describes each row's last
    iterate only; a solve with ``max_iters = k`` stops at iterate k or sooner.
    """
    Theta = np.asarray(Theta, dtype=float)
    S = Theta.shape[0]
    m0 = np.asarray(m0, dtype=float)
    M = np.array(np.broadcast_to(m0, (S, m0.shape[-1])))
    if not np.isfinite(M).all():
        raise ValueError("m0 contains non-finite entries")
    value, grad_norm, min_eig = np.full((3, S), np.nan)
    iterations = np.zeros(S, dtype=int)
    converged = np.zeros(S, dtype=bool)

    # derivatives at each row's current iterate, valid where ``known``: a
    # unit step evaluates them at its trial point, which the next iteration
    # reuses where that point becomes the iterate
    J_at = np.full(S, np.nan)
    g_at = np.full(M.shape, np.nan)
    H_at = np.full(M.shape + M.shape[1:], np.nan)
    known = np.zeros(S, dtype=bool)

    def evaluate(rows, points):
        J_at[rows], g_at[rows], H_at[rows], _ = problem.derivatives(points, Theta[rows])

    active = np.arange(S)  # rows still iterating
    while active.size:
        unknown = active[~known[active]]
        if unknown.size:
            evaluate(unknown, M[unknown])
        J, g, H = J_at[active], g_at[active], H_at[active]
        norm = np.sqrt(dot_rows(g, g))
        evaluable = np.isfinite(J) & np.isfinite(g).all(axis=1) & np.isfinite(H).all(axis=(1, 2))
        newton = apply_inverse_hessian(H, -g)
        eig = np.where(evaluable, newton.hessian_min_eigenvalue, np.nan)
        value[active], grad_norm[active], min_eig[active] = J, norm, eig

        small = norm <= config.grad_tol * (1.0 + np.abs(J))
        converged[active[small]] = eig[small] > 0.0
        stop = small | ~evaluable | (iterations[active] >= config.max_iters)
        go = np.flatnonzero(~stop)
        if not go.size:
            break
        rows, m, J, g, norm, eig = active[go], M[active[go]], J[go], g[go], norm[go], eig[go]

        p = np.where((eig > 0.0)[:, None], newton.result[go], -g)
        slope = dot_rows(g, p)
        polish = np.abs(slope) <= 8.0 * np.finfo(float).eps * (1.0 + np.abs(J))

        alpha = np.ones(go.size)
        accepted = np.zeros(go.size, dtype=bool)
        evaluate(rows, m + p)  # every unit step; a polish step needs its gradient
        trial_g = g_at[rows[polish]]
        accepted[polish] = np.sqrt(dot_rows(trial_g, trial_g)) < norm[polish]
        searching = np.flatnonzero(~polish)
        trial = J_at[rows[searching]]
        for k in range(config.max_backtracks):
            if not searching.size:
                break
            a = alpha[searching]
            if k:
                points = m[searching] + a[:, None] * p[searching]
                trial = problem.values(points, Theta[rows[searching]])
            ok = trial <= J[searching] + config.armijo_c * a * slope[searching]
            accepted[searching[ok]] = True
            searching = searching[~ok]
            alpha[searching] *= config.backtrack_factor

        M[rows[accepted]] = m[accepted] + alpha[accepted, None] * p[accepted]
        iterations[rows[accepted]] += 1
        known[rows] = accepted & (alpha == 1.0)
        active = rows[accepted]

    return SolveResult(M, value, grad_norm, iterations, converged, min_eig)


def solve_nominal(
    problem, box: ParameterBox, config: NewtonConfig = NewtonConfig()
) -> SolveResult:
    """Solve at the nominal parameters from the problem's initial guess.

    This anchors every subsequent march.  Raises NominalSolveError unless the
    solve converged to a strict local minimizer (positive definite Hessian).
    """
    result = newton_solve(problem, box.nominal, problem.initial_guess(), config)
    if result.converged:
        return result
    # a row stops on the gradient test whether or not its Hessian is definite
    stationary = result.grad_norm <= config.grad_tol * (1.0 + abs(result.objective))
    if stationary and result.hessian_min_eigenvalue <= 0.0:
        raise NominalSolveError(
            "nominal stationary point is not a strict local minimizer "
            f"(min eigenvalue {result.hessian_min_eigenvalue!r})"
        )
    raise NominalSolveError(
        f"nominal solve did not converge (grad_norm={result.grad_norm!r} "
        f"after {result.iterations} iterations)"
    )

