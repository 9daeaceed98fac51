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
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..exceptions import BvpSolveError
from .base import Problem, as_vector, dot_rows

_GTSV = get_lapack_funcs(("gtsv",), (np.empty(0),))[0]
# rows per stacked solve: an evaluation holds a few (rows, grid_cells + 1, k)
# float arrays at once, k = 2 sensitivity columns (3 with directions): at
# most 33 kB per row without directions and 41 kB with them on the default
# grid (tracemalloc peak of one 256-row call)
STACK_ROWS = 256


def _solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """x with A x = rhs for the tridiagonal A with these three bands.

    Calls LAPACK gtsv, the routine ``solve_banded((1, 1), ...)`` calls, so
    the result is the same bit for bit without its argument handling.
    Non-finite input raises ValueError, as ``check_finite`` does there, and a
    zero pivot raises BvpSolveError.
    """
    for band in (lower, diag, upper, rhs):
        if not np.isfinite(band).all():
            raise ValueError("array must not contain infs or NaNs")
    *_, x, info = _GTSV(lower, diag, upper, rhs)
    if info > 0:
        raise BvpSolveError(f"singular system (zero pivot in row {info})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def _flat(bands):
    """Padded bands, (n+1,) or (S, n+1), as the bands of one tridiagonal matrix."""
    lower, diag, upper = bands
    return lower.ravel()[:-1], diag.ravel(), upper.ravel()[:-1]


def _powers(x, exponent):
    """x ** exponent by Python's float power, entry by entry for an array.

    numpy's array power differs from it in the last bit for some inputs.
    """
    if np.ndim(x) == 0:
        return x**exponent
    return np.array([t**exponent for t in x.ravel().tolist()]).reshape(x.shape)


@dataclass(frozen=True)
class AdvectionDiffusionModel:
    """Second-order central-difference discretization on a uniform grid.

    Robin conditions are imposed through ghost nodes eliminated with the
    centered derivative, which keeps the boundary rows second order.

    ``source``, ``_bands`` and the ``_dA_*`` kernels also serve S points at
    once: their coefficients are then (S, 1) columns instead of floats, and
    ``source`` returns (S, n+1).  The kernels always act on a stack of
    vectors, (S, n+1, k), a single point's included.
    """

    grid_cells: int = 200

    def __post_init__(self):
        if self.grid_cells < 16:
            raise ValueError("grid_cells must be >= 16")

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(0.0, 1.0, self.grid_cells + 1)
        nodes.flags.writeable = False
        return nodes

    @property
    def dx(self) -> float:
        return 1.0 / self.grid_cells

    def source(self, a, c) -> np.ndarray:
        return a * np.exp(-200.0 * (self.nodes - c) ** 2)

    def _bands(self, kappa, v, alpha):
        """Sub-, main and super-diagonal of A, each padded to n+1 entries.

        The last entry of each off-diagonal is 0; ``_flat`` drops it.  For
        (S, 1) coefficient columns the bands are (S, n+1), and flattened they
        are those of one matrix of size S (n+1) with the S systems side by
        side and these zeros as the coupling entries between consecutive
        systems.  gtsv's elimination factor is 0 at a zero coupling, so it
        never pivots across systems, and each system's solution equals its
        own solve's bit for bit.  The adjoint solve swaps the off-diagonal
        bands, which transposes every system.
        """
        n = self.grid_cells
        dx = self.dx
        shape = np.shape(kappa)[:-1] + (n + 1,)
        diag = np.full(shape, 2.0 * kappa / dx**2)
        lower = np.full(shape, -kappa / dx**2 - v / (2.0 * dx))
        upper = np.full(shape, -kappa / dx**2 + v / (2.0 * dx))
        diag[..., :1] += 2.0 * alpha / dx + v * alpha / kappa
        diag[..., n:] += 2.0 * alpha / dx - v * alpha / kappa
        upper[..., :1] = -2.0 * kappa / dx**2
        lower[..., n - 1 : n] = -2.0 * kappa / dx**2
        # the last entry of a system's off-diagonal couples it to the next one
        lower[..., n] = upper[..., n] = 0.0
        return lower, diag, upper

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
        _require_positive_kappa(kappa)
        n = self.grid_cells
        dx = self.dx
        lower, diag, upper = _flat(self._bands(kappa, v, alpha))
        rhs = self.source(a, c) if source_values is None else np.array(source_values, dtype=float)
        r0, r1 = robin_data
        if r0 != 0.0 or r1 != 0.0:
            rhs = rhs.copy()
            rhs[0] -= 2.0 * r0 / dx + v * r0 / kappa
            rhs[n] += 2.0 * r1 / dx - v * r1 / kappa
        return _solve_tridiagonal(lower, diag, upper, rhs)

    def apply_operator(self, y, m, theta) -> np.ndarray:
        """A(m, theta) y, for residual checks."""
        kappa, v = float(m[0]), float(m[1])
        alpha = float(theta[2])
        lower, diag, upper = _flat(self._bands(kappa, v, alpha))
        out = diag * y
        out[1:] += lower * y[:-1]
        out[:-1] += upper * y[1:]
        return out

    def _dA_dkappa(self, y, kappa, v, alpha):
        dx = self.dx
        boundary = v * alpha / _powers(kappa, 2)
        out = np.empty_like(y)
        out[:, 1:-1] = -(y[:, :-2] - 2.0 * y[:, 1:-1] + y[:, 2:]) / dx**2
        out[:, 0] = (2.0 / dx**2 - boundary) * y[:, 0] - 2.0 / dx**2 * y[:, 1]
        out[:, -1] = -2.0 / dx**2 * y[:, -2] + (2.0 / dx**2 + boundary) * y[:, -1]
        return out

    def _dA_dv(self, y, kappa, v, alpha):
        dx = self.dx
        out = np.empty_like(y)
        out[:, 1:-1] = (y[:, 2:] - y[:, :-2]) / (2.0 * dx)
        out[:, 0] = (alpha / kappa) * y[:, 0]
        out[:, -1] = -(alpha / kappa) * y[:, -1]
        return out

    def _dAT_dkappa(self, y, kappa, v, alpha):
        """A_kappa^T y: the off-diagonal bands of ``_dA_dkappa`` swapped."""
        dx = self.dx
        boundary = v * alpha / _powers(kappa, 2)
        out = np.empty_like(y)
        out[:, 1:-1] = -(y[:, :-2] - 2.0 * y[:, 1:-1] + y[:, 2:]) / dx**2
        out[:, 1] -= y[:, 0] / dx**2
        out[:, -2] -= y[:, -1] / dx**2
        out[:, 0] = (2.0 / dx**2 - boundary) * y[:, 0] - y[:, 1] / dx**2
        out[:, -1] = -y[:, -2] / dx**2 + (2.0 / dx**2 + boundary) * y[:, -1]
        return out

    def _dAT_dv(self, y, kappa, v, alpha):
        """A_v^T y: the off-diagonal bands of ``_dA_dv`` swapped."""
        dx = self.dx
        out = np.empty_like(y)
        out[:, 1:-1] = (y[:, :-2] - y[:, 2:]) / (2.0 * dx)
        out[:, 1] = -y[:, 2] / (2.0 * dx)
        out[:, -2] = y[:, -3] / (2.0 * dx)
        out[:, 0] = (alpha / kappa) * y[:, 0] - y[:, 1] / (2.0 * dx)
        out[:, -1] = -(alpha / kappa) * y[:, -1] + y[:, -2] / (2.0 * dx)
        return out

    def _dA_dalpha(self, y, kappa, v, alpha):
        dx = self.dx
        out = np.zeros_like(y)
        out[:, 0] = (2.0 / dx + v / kappa) * y[:, 0]
        out[:, -1] = (2.0 / dx - v / kappa) * y[:, -1]
        return out


def _require_positive_kappa(kappa: float) -> None:
    if kappa <= 0.0:
        raise BvpSolveError(f"diffusion coefficient must be positive, got {kappa!r}")


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


def _decision_pair(x, name: str) -> np.ndarray:
    """x as the decision variables (kappa, v); any other length is an error."""
    x = as_vector(x, name)
    if x.size != 2:
        raise ValueError(f"{name} must have 2 entries (kappa, v), got {x.size}")
    return x


class AdvDiffInverseProblem(Problem):
    """Regularized least-squares fit of (kappa, v) to full-field observations.

    J(m, theta) = 0.5 * integral (u - u_obs)^2 dx + 0.5 * beta ||m - m_prior||^2
    with the misfit integral taken by the trapezoid rule on the solution grid.
    All derivatives are exact for the discrete objective.  With
    x = (kappa, v, a, c, alpha), W the trapezoid weights and subscripts for
    derivatives in x, three banded solves with the one matrix A(m, theta) or
    its transpose give the state u (A u = s), the sensitivities u_j
    (A u_j = s_j - A_j u) and the adjoint lambda (A^T lambda = W (u - u_obs)).
    The gradient is g_i = u_i^T W (u - u_obs) + beta (m_i - m_prior_i), and
    by the second-order adjoint method, for m_i in m and x_j in x,

        d2J/(dm_i dx_j) = u_i^T W u_j - lambda^T (A_ij u + A_i u_j + A_j u_i)
                          + beta delta_ij,

    where A_ij is nonzero only in the two boundary diagonal entries, through
    +-v alpha / kappa, and s_ij = 0 because the source does not depend on m.
    The Hessian needs the sensitivities u_kappa and u_v alone.  The mixed
    derivative is only ever applied to a direction dtheta, and then needs one
    more sensitivity, u_dtheta = sum_j dtheta_j u_j, from one more column of
    the same solve, A u_dtheta = dtheta_a s_a + dtheta_c s_c - dtheta_alpha A_alpha u:

        b_i = (B dtheta)_i = u_i^T W u_dtheta
                             - lambda^T (A_i u_dtheta + A_dtheta u_i + A_i,dtheta u),

    with A_dtheta = dtheta_alpha A_alpha and A_i,dtheta = dtheta_alpha A_i,alpha,
    since alpha alone of the parameters enters A.  The terms lambda^T A_i y
    are taken as (A_i^T lambda)^T y.

    ``derivatives`` evaluates a stack of S points with these three solves,
    the middle one with two columns, or three with directions, and ``values``
    with the state solve alone; each is one LAPACK gtsv call on the
    block-diagonal matrix of the S systems side by side, and the dot
    products are stacked matmuls, so every row equals its S = 1 value bit
    for bit.  gtsv solves each right-hand-side column on its own, so J, g
    and H are the same bit for bit with or without directions.
    """

    d = 2
    p = 3
    basin_hint = (np.array([0.005, -0.5]), np.array([0.5, 1.5]))

    def __init__(self, model: AdvectionDiffusionModel, u_obs: np.ndarray, m_prior, beta: float):
        u_obs = np.asarray(u_obs, dtype=float)
        if u_obs.shape != (model.grid_cells + 1,):
            raise ValueError("u_obs must live on the model grid")
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        self.model = model
        self.u_obs = u_obs
        self.m_prior = _decision_pair(m_prior, "m_prior")
        self.beta = float(beta)
        # trapezoid weights, including dx
        w = np.full(model.grid_cells + 1, model.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        self._trap = w

    def values(self, M, Theta):
        """J at S points from one stacked state solve; +inf where it cannot be evaluated."""
        with np.errstate(over="ignore", invalid="ignore"):
            J = self._evaluate(self._values, M, Theta, [((), np.inf)])[0]
        J[~np.isfinite(J)] = np.inf
        return J

    def derivatives(self, M, Theta, dTheta=None):
        """J, g, H and B dTheta at S points from three stacked solves; NaN rows where they fail."""
        d = self.d
        fills = [((), np.nan), ((d,), np.nan), ((d, d), np.nan)]
        if dTheta is None:
            return (*self._evaluate(self._derivatives, M, Theta, fills), None)
        fills.append(((d,), np.nan))
        return tuple(self._evaluate(self._derivatives, M, Theta, fills, dTheta))

    def _evaluate(self, kernel, M, Theta, fills, dTheta=None):
        """``kernel`` on the rows whose systems can be solved; the other rows keep their fill.

        A row is left out when kappa <= 0 or a coefficient, a direction, a
        band entry or the source is not finite.  ``kernel(M, Theta, bands)``,
        or ``kernel(M, Theta, bands, dTheta)`` with directions, gets the rows
        left in and their bands, each (S, n+1), and returns one array per
        entry of ``fills``, which gives that output's shape past the row axis
        and its value for the rows left out.  It gets at most STACK_ROWS rows
        at a time.  If a stacked solve meets a zero pivot, its rows are
        solved one at a time, so that only the singular row is left out.
        """
        M = np.asarray(M, dtype=float)
        Theta = np.asarray(Theta, dtype=float)
        directions = [] if dTheta is None else [np.asarray(dTheta, dtype=float)]
        outs = [np.full((M.shape[0],) + shape, fill) for shape, fill in fills]
        with np.errstate(all="ignore"):
            bands = self.model._bands(M[:, :1], M[:, 1:], Theta[:, 2:])
        solvable = M[:, 0] > 0.0
        for x in (Theta, *directions, *bands):
            solvable &= np.isfinite(x).all(axis=1)

        def fill(rows):
            parts = M[rows], Theta[rows], [b[rows] for b in bands], *(x[rows] for x in directions)
            for out, value in zip(outs, kernel(*parts)):
                out[rows] = value

        solvable = np.flatnonzero(solvable)
        for start in range(0, solvable.size, STACK_ROWS):
            rows = solvable[start : start + STACK_ROWS]
            try:
                fill(rows)
            except BvpSolveError:
                for s in rows:
                    try:
                        fill(slice(s, s + 1))
                    except BvpSolveError:
                        pass
        return outs

    def _objective(self, u, M):
        """J of S rows from their states, with the reductions of one-point dot products."""
        r = u - self.u_obs
        dm = M - self.m_prior
        return 0.5 * dot_rows(r**2, self._trap) + 0.5 * self.beta * dot_rows(dm, dm)

    def _values(self, M, Theta, bands):
        lower, diag, upper = _flat(bands)
        a, c = Theta[:, :1], Theta[:, 1:2]
        u = _solve_tridiagonal(lower, diag, upper, self.model.source(a, c).ravel())
        return (self._objective(u.reshape(a.shape[0], -1), M),)

    def _derivatives(self, M, Theta, bands, dTheta=None):
        """J, g, H and, with directions, B dTheta of S solvable rows by three stacked solves.

        The sensitivity solve has the columns u_kappa and u_v, and u_dtheta
        with directions; J, g and H come from the first two alone, with the
        same operations whether the third is there or not.
        """
        model = self.model
        kappa, v = M.T[:, :, None]
        a, c, alpha = Theta.T[:, :, None]
        lower, diag, upper = _flat(bands)
        # source(a, c) is a * bump exactly, since bump = 1.0 * exp(...)
        bump = model.source(1.0, c)
        u = _solve_tridiagonal(lower, diag, upper, (a * bump).ravel()).reshape(bump.shape)
        dA = (model._dA_dkappa, model._dA_dv)
        columns = [-op(u[..., None], kappa, v, alpha) for op in dA]
        if dTheta is not None:
            da, dc, dalpha = dTheta.T[:, :, None]
            source_dtheta = da * bump + dc * (400.0 * a * (model.nodes - c) * bump)
            A_alpha_u = model._dA_dalpha(u[..., None], kappa, v, alpha)
            columns.append(source_dtheta[..., None] - dalpha[..., None] * A_alpha_u)
        rhs = np.concatenate(columns, axis=-1)
        U = _solve_tridiagonal(lower, diag, upper, rhs.reshape(-1, len(columns)))
        U = U.reshape(rhs.shape)
        # A^T has the off-diagonal bands swapped
        residual = u - self.u_obs
        lam = _solve_tridiagonal(upper, diag, lower, (self._trap * residual).ravel())
        lam = lam.reshape(u.shape)

        # Um are the sensitivities of u to m, so
        # g = Um^T W (u - u_obs) + beta (m - m_prior)
        Um = U[:, :, :2]
        g = ((self._trap * residual)[:, None] @ Um)[:, 0] + self.beta * (M - self.m_prior)
        # LT[:, k] = (A_k^T lambda)^T for k in m, so that
        # P[:, k, j] = lambda^T A_k u_j = LT[:, k] @ u_j
        lam3 = lam[..., None]
        LT = np.concatenate(
            [model._dAT_dkappa(lam3, kappa, v, alpha), model._dAT_dv(lam3, kappa, v, alpha)],
            axis=-1,
        ).swapaxes(1, 2)
        P = LT @ Um
        # lambda^T A_ij u: only the boundary diagonal terms +-v alpha / kappa
        # have second derivatives, each a multiple of this boundary term
        boundary = lam[:, 0] * u[:, 0] - lam[:, -1] * u[:, -1]
        kappa, v, alpha = kappa[:, 0], v[:, 0], alpha[:, 0]
        kappa2 = _powers(kappa, 2)
        curvature = np.zeros((M.shape[0], 2, 2))
        curvature[:, 0, 0] = 2.0 * v * alpha / _powers(kappa, 3)
        curvature[:, 0, 1] = curvature[:, 1, 0] = -alpha / kappa2
        curvature *= boundary[:, None, None]
        UmT = Um.swapaxes(1, 2)
        H = UmT @ (self._trap[:, None] * Um) - P - P.swapaxes(1, 2) - curvature
        H = H + self.beta * np.eye(2)
        outputs = self._objective(u, M), g, 0.5 * (H + H.swapaxes(1, 2))
        if dTheta is None:
            return outputs
        # b_i = u_i^T W u_dtheta - lambda^T (A_i u_dtheta + A_dtheta u_i + A_i,dtheta u),
        # where alpha alone enters A: A_dtheta = dalpha A_alpha, whose only
        # nonzero entries are the first and last diagonal ones, 2/dx +- v/kappa,
        # and lambda^T A_i,alpha u is -v/kappa^2 and 1/kappa times the boundary term
        ud = U[:, :, 2:]
        first, last = (2.0 / model.dx + v / kappa)[:, None], (2.0 / model.dx - v / kappa)[:, None]
        lam_A_alpha_Um = first * lam[:, :1] * Um[:, 0] + last * lam[:, -1:] * Um[:, -1]
        lam_A_alpha_i_u = np.stack([-v / kappa2, 1.0 / kappa], axis=1) * boundary[:, None]
        b = (UmT @ (self._trap[:, None] * ud) - LT @ ud)[:, :, 0] - dalpha * (
            lam_A_alpha_Um + lam_A_alpha_i_u
        )
        return (*outputs, b)

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
    m_true = _decision_pair(m_true, "m_true")
    u_obs = synthesize_observations(model, m_true, as_vector(theta_data), noise_std, noise_seed)
    return AdvDiffInverseProblem(model, u_obs, m_prior, beta)
