"""Steady advection-diffusion boundary value problem and the inverse problem on it.

The forward model is -kappa u'' + v u' = s on (0, 1) with Robin boundary
conditions kappa u'(0) = alpha u(0) and kappa u'(1) = -alpha u(1), where the
source s(x) = a exp(-200 (x - c)^2) is a localized bump of magnitude a at
location c.  The inverse problem estimates m = (kappa, v) from full-field
temperature observations, with parameters theta = (a, c, alpha) treated as
uncertain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from ..exceptions import BvpSolveError
from .base import Problem, as_vector


@dataclass(frozen=True)
class AdvectionDiffusionModel:
    """Second-order central-difference discretization on a uniform grid.

    Robin conditions are imposed through ghost nodes eliminated with the
    centered derivative, which keeps the boundary rows second order.
    """

    grid_cells: int = 200

    def __post_init__(self):
        if self.grid_cells < 16:
            raise ValueError("grid_cells must be >= 16")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_cells + 1)

    @property
    def dx(self) -> float:
        return 1.0 / self.grid_cells

    def source(self, a: float, c: float) -> np.ndarray:
        x = self.nodes
        return a * np.exp(-200.0 * (x - c) ** 2)

    def _bands(self, kappa: float, v: float, alpha: float):
        n = self.grid_cells
        dx = self.dx
        diag = np.full(n + 1, 2.0 * kappa / dx**2)
        lower = np.full(n, -kappa / dx**2 - v / (2.0 * dx))
        upper = np.full(n, -kappa / dx**2 + v / (2.0 * dx))
        diag[0] += 2.0 * alpha / dx + v * alpha / kappa
        diag[n] += 2.0 * alpha / dx - v * alpha / kappa
        upper[0] = -2.0 * kappa / dx**2
        lower[n - 1] = -2.0 * kappa / dx**2
        return lower, diag, upper

    def _solve_system(self, lower, diag, upper, rhs) -> np.ndarray:
        n = self.grid_cells
        ab = np.zeros((3, n + 1))
        ab[0, 1:] = upper
        ab[1, :] = diag
        ab[2, :-1] = lower
        try:
            return solve_banded((1, 1), ab, rhs)
        except np.linalg.LinAlgError as err:
            dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
            raise BvpSolveError(
                f"singular system (condition estimate {np.linalg.cond(dense):.3e})"
            ) from err

    def solve(
        self,
        m,
        theta,
        source_values: np.ndarray | None = None,
        robin_data: tuple[float, float] = (0.0, 0.0),
    ) -> np.ndarray:
        """Nodal temperatures for decision variables m=(kappa, v), theta=(a, c, alpha).

        ``source_values`` overrides the Gaussian source and ``robin_data``
        supplies inhomogeneous boundary data (kappa u'(0) - alpha u(0) = r0,
        kappa u'(1) + alpha u(1) = r1); both exist for manufactured-solution
        verification and default to the physical model.
        """
        kappa, v = float(m[0]), float(m[1])
        a, c, alpha = (float(t) for t in theta)
        if kappa <= 0.0:
            raise BvpSolveError(f"diffusion coefficient must be positive, got {kappa!r}")
        n = self.grid_cells
        dx = self.dx
        lower, diag, upper = self._bands(kappa, v, alpha)
        rhs = self.source(a, c) if source_values is None else np.array(source_values, dtype=float)
        r0, r1 = robin_data
        if r0 != 0.0 or r1 != 0.0:
            rhs = rhs.copy()
            rhs[0] -= 2.0 * r0 / dx + v * r0 / kappa
            rhs[n] += 2.0 * r1 / dx - v * r1 / kappa
        return self._solve_system(lower, diag, upper, rhs)

    def apply_operator(self, y, m, theta) -> np.ndarray:
        """A(m, theta) y, for residual checks."""
        kappa, v = float(m[0]), float(m[1])
        alpha = float(theta[2])
        lower, diag, upper = self._bands(kappa, v, alpha)
        out = diag * y
        out[1:] += lower * y[:-1]
        out[:-1] += upper * y[1:]
        return out

    def apply_dA_dkappa(self, y, m, theta) -> np.ndarray:
        kappa, v = float(m[0]), float(m[1])
        alpha = float(theta[2])
        dx = self.dx
        out = np.empty_like(y)
        out[1:-1] = -(y[:-2] - 2.0 * y[1:-1] + y[2:]) / dx**2
        out[0] = (2.0 / dx**2 - v * alpha / kappa**2) * y[0] - 2.0 / dx**2 * y[1]
        out[-1] = -2.0 / dx**2 * y[-2] + (2.0 / dx**2 + v * alpha / kappa**2) * y[-1]
        return out

    def apply_dA_dv(self, y, m, theta) -> np.ndarray:
        kappa = float(m[0])
        alpha = float(theta[2])
        dx = self.dx
        out = np.empty_like(y)
        out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dx)
        out[0] = (alpha / kappa) * y[0]
        out[-1] = -(alpha / kappa) * y[-1]
        return out

    def apply_dA_dalpha(self, y, m, theta) -> np.ndarray:
        kappa, v = float(m[0]), float(m[1])
        dx = self.dx
        out = np.zeros_like(y)
        out[0] = (2.0 / dx + v / kappa) * y[0]
        out[-1] = (2.0 / dx - v / kappa) * y[-1]
        return out


def synthesize_observations(
    model: AdvectionDiffusionModel,
    m_true,
    theta_data,
    noise_std: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Forward-solve at the data-generating point, optionally adding node noise."""
    u = model.solve(m_true, theta_data)
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        u = u + rng.normal(0.0, noise_std, u.size)
    return u


class AdvDiffInverseProblem(Problem):
    """Regularized least-squares fit of (kappa, v) to full-field observations.

    J(m, theta) = 0.5 * integral (u - u_obs)^2 dx + 0.5 * beta ||m - m_prior||^2
    with the misfit integral taken by the trapezoid rule on the solution grid.
    The gradient is exact for the discrete objective: forward sensitivities
    w_i solve A w_i = -(dA/dm_i) u, giving g_i = <u - u_obs, w_i> + beta
    (m_i - m_prior_i).

    Second derivatives are exact for the discrete objective too, by the
    second-order adjoint method.  With x = (kappa, v, a, c, alpha), W the
    trapezoid weights and subscripts for derivatives in x, three banded
    solves with the one matrix A(m, theta) or its transpose give the state u
    (A u = s), the sensitivities u_j (A u_j = s_j - A_j u) and the adjoint
    lambda (A^T lambda = W (u - u_obs)).  Then for m_i in m and x_j in x

        d2J/(dm_i dx_j) = u_i^T W u_j - lambda^T (A_ij u + A_i u_j + A_j u_i)
                          + beta delta_ij,

    where A_ij is nonzero only in the two boundary diagonal entries, through
    +-v alpha / kappa, and s_ij = 0 because the source does not depend on m.
    """

    d = 2
    p = 3

    def __init__(
        self,
        model: AdvectionDiffusionModel,
        u_obs: np.ndarray,
        m_prior,
        beta: float,
        basin_hint=(np.array([0.005, -0.5]), np.array([0.5, 1.5])),
    ):
        u_obs = np.asarray(u_obs, dtype=float)
        if u_obs.shape != (model.grid_cells + 1,):
            raise ValueError("u_obs must live on the model grid")
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        self.model = model
        self.u_obs = u_obs
        self.m_prior = as_vector(m_prior, "m_prior")
        self.beta = float(beta)
        self.basin_hint = basin_hint
        # trapezoid weights, including dx
        w = np.full(model.grid_cells + 1, model.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        self._trap = w

    def _misfit_and_residual(self, u):
        r = u - self.u_obs
        return 0.5 * float(self._trap @ r**2), r

    def objective(self, m, theta):
        u = self.model.solve(m, theta)
        misfit, _ = self._misfit_and_residual(u)
        dm = np.asarray(m, dtype=float) - self.m_prior
        return misfit + 0.5 * self.beta * float(dm @ dm)

    def objective_gradient(self, m, theta):
        u = self.model.solve(m, theta)
        misfit, r = self._misfit_and_residual(u)
        dm = np.asarray(m, dtype=float) - self.m_prior
        value = misfit + 0.5 * self.beta * float(dm @ dm)

        kappa, v = float(m[0]), float(m[1])
        alpha = float(theta[2])
        lower, diag, upper = self.model._bands(kappa, v, alpha)
        rhs = -np.column_stack(
            [
                self.model.apply_dA_dkappa(u, m, theta),
                self.model.apply_dA_dv(u, m, theta),
            ]
        )
        w = self.model._solve_system(lower, diag, upper, rhs)
        g = (self._trap * r) @ w + self.beta * dm
        return value, g

    def gradient(self, m, theta):
        return self.objective_gradient(m, theta)[1]

    def hessian(self, m, theta):
        return self.hessian_and_mixed(m, theta)[0]

    def mixed(self, m, theta):
        return self.hessian_and_mixed(m, theta)[1]

    def hessian_and_mixed(self, m, theta):
        model = self.model
        kappa, v = float(m[0]), float(m[1])
        a, c, alpha = (float(t) for t in theta)
        u = model.solve(m, theta)
        lower, diag, upper = model._bands(kappa, v, alpha)
        dA = (model.apply_dA_dkappa, model.apply_dA_dv, model.apply_dA_dalpha)
        bump = model.source(1.0, c)
        rhs = np.column_stack(
            [
                -dA[0](u, m, theta),
                -dA[1](u, m, theta),
                bump,
                400.0 * a * (model.nodes - c) * bump,
                -dA[2](u, m, theta),
            ]
        )
        U = model._solve_system(lower, diag, upper, rhs)
        # A^T has the off-diagonal bands swapped
        lam = model._solve_system(upper, diag, lower, self._trap * (u - self.u_obs))

        # P[k, j] = lambda^T A_k u_j; rows a and c stay zero since A does not
        # depend on them
        P = np.zeros((5, 5))
        P[[0, 1, 4]] = [lam @ op(U, m, theta) for op in dA]
        # lambda^T A_ij u: only the boundary diagonal terms +-v alpha / kappa
        # have second derivatives
        q = lam[0] * u[0] - lam[-1] * u[-1]
        curvature = q * np.array(
            [
                [2.0 * v * alpha / kappa**3, -alpha / kappa**2, 0.0, 0.0, -v / kappa**2],
                [-alpha / kappa**2, 0.0, 0.0, 0.0, 1.0 / kappa],
            ]
        )
        F = U[:, :2].T @ (self._trap[:, None] * U) - P[:2] - P[:, :2].T - curvature
        H = F[:, :2] + self.beta * np.eye(2)
        return 0.5 * (H + H.T), F[:, 2:]

    def initial_guess(self):
        return self.m_prior.copy()


def make_advdiff_problem(
    grid_cells: int = 200,
    m_true=(0.05, 0.4),
    theta_data=(10.0, 0.05, 1.0),
    beta: float = 1e-3,
    m_prior=(0.06, 0.32),
    noise_std: float = 0.0,
    noise_seed: int = 0,
) -> AdvDiffInverseProblem:
    """Build the inverse problem with synthetic observations.

    Defaults generate noiseless data at the nominal parameters, with a prior
    deliberately offset from the data-generating decision variables so the
    regularization term is exercised without dominating.
    """
    model = AdvectionDiffusionModel(grid_cells)
    u_obs = synthesize_observations(model, as_vector(m_true), as_vector(theta_data), noise_std, noise_seed)
    return AdvDiffInverseProblem(model, u_obs, m_prior, beta)
