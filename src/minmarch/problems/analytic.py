"""Closed-form test problems with known minimizer behavior."""

from __future__ import annotations

import abc

import numpy as np
from scipy.special import expit

from .base import Problem


class _ClosedFormProblem(Problem):
    """Problem with d = 1 whose second derivatives are written once, as one formula.

    ``_second_derivatives(m, theta)`` accepts one point, (1,) and (p,), or a
    stack, (S, 1) and (S, p), and returns the Hessian entry and the tuple of
    mixed-derivative entries, as scalars or as arrays of shape (S,).  A
    single point is evaluated on scalars, which keeps the Newton oracle's
    many single-point calls cheap.
    """

    @abc.abstractmethod
    def _second_derivatives(self, m, theta):
        """(d2J/dm2, (d2J/(dm dtheta_k) for each k)) at one point or a stack."""

    def hessian_and_mixed(self, m, theta):
        h, b = self._second_derivatives(np.asarray(m), np.asarray(theta))
        return np.array([[h]]), np.array([b])

    def hessian_and_mixed_stack(self, M, Theta):
        h, b = self._second_derivatives(M, Theta)
        return h[:, None, None], np.stack(b, axis=-1)[:, None, :]

    def hessian(self, m, theta):
        return self.hessian_and_mixed(m, theta)[0]

    def mixed(self, m, theta):
        return self.hessian_and_mixed(m, theta)[1]


class QuadraticProblem(_ClosedFormProblem):
    """J(m, theta) = 0.5 (m - theta_1)^2.

    The minimizer is theta_1 itself, so the minimizer map is linear in the
    parameter and every sane scheme reproduces it exactly.
    """

    d = 1
    p = 1
    basin_hint = None

    def objective(self, m, theta):
        return 0.5 * (m[0] - theta[0]) ** 2

    def gradient(self, m, theta):
        return np.array([m[0] - theta[0]])

    def _second_derivatives(self, m, theta):
        one = np.ones_like(m[..., 0])
        return one, (-one,)

    def initial_guess(self):
        return np.array([0.0])

    def minimizer(self, theta) -> np.ndarray:
        """Closed-form argmin."""
        return np.array([theta[0]])


class DoubleWellProblem(_ClosedFormProblem):
    """Quartic objective whose gradient factors as (m-theta_1)(m-0.5)(m-theta_2).

    For theta_1 < 0.5 < theta_2 there are two local minima, at theta_1 and at
    theta_2.  The basin hint (0.5, 1.0) restricts attention to the upper well,
    where the minimizer is exactly theta_2.
    """

    d = 1
    p = 2
    basin_hint = (np.array([0.5]), np.array([1.0]))

    @staticmethod
    def _check_theta(theta):
        # one parameter vector (2,) or a stack of them (S, 2)
        theta = np.reshape(theta, (-1, 2))
        bad = ~((theta[:, 0] < 0.5) & (0.5 < theta[:, 1]))
        if np.any(bad):
            t1, t2 = theta[np.argmax(bad)]
            raise ValueError(f"requires theta_1 < 0.5 < theta_2, got {t1!r}, {t2!r}")

    def objective(self, m, theta):
        # antiderivative of (m-t1)(m-0.5)(m-t2), constant of integration zero
        self._check_theta(theta)
        t1, t2 = theta
        x = m[0]
        return (
            x**4 / 4.0
            - (t1 + t2 + 0.5) * x**3 / 3.0
            + (0.5 * (t1 + t2) + t1 * t2) * x**2 / 2.0
            - 0.5 * t1 * t2 * x
        )

    def gradient(self, m, theta):
        self._check_theta(theta)
        t1, t2 = theta
        x = m[0]
        return np.array([(x - t1) * (x - 0.5) * (x - t2)])

    def _second_derivatives(self, m, theta):
        self._check_theta(theta)
        t1, t2 = theta.T
        x = m[..., 0]
        h = (x - 0.5) * (x - t2) + (x - t1) * (x - t2) + (x - t1) * (x - 0.5)
        return h, (-(x - 0.5) * (x - t2), -(x - t1) * (x - 0.5))

    def initial_guess(self):
        return np.array([0.8])

    def minimizer(self, theta) -> np.ndarray:
        """Closed-form argmin in the upper well."""
        self._check_theta(theta)
        return np.array([theta[1]])


class LogisticWellProblem(_ClosedFormProblem):
    """J(m, theta) = theta_1 / (1 + exp(theta_2 m)) + theta_3 m^2.

    A sigmoid drop plus a quadratic penalty; the single parameter-dependent
    minimizer sits where the sigmoid slope balances the penalty.  For
    theta > 0 the stationary point is unique and lies at positive m.
    """

    d = 1
    p = 3
    basin_hint = (np.array([0.0]), np.array([3.0]))

    def objective(self, m, theta):
        t1, t2, t3 = theta
        x = m[0]
        return t1 * expit(-t2 * x) + t3 * x**2

    def gradient(self, m, theta):
        t1, t2, t3 = theta
        x = m[0]
        s = expit(t2 * x) * expit(-t2 * x)
        return np.array([-t1 * t2 * s + 2.0 * t3 * x])

    def _second_derivatives(self, m, theta):
        t1, t2, t3 = theta.T
        x = m[..., 0]
        sp = expit(t2 * x)
        sm = expit(-t2 * x)
        s = sp * sm
        h = t1 * t2**2 * sp * sm * (sp - sm) + 2.0 * t3
        return h, (-t2 * s, -t1 * s * (1.0 - t2 * x * (sp - sm)), 2.0 * x)

    def initial_guess(self):
        return np.array([0.5])
