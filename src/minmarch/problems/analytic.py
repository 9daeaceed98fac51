"""Closed-form test problems with known minimizer behavior."""

from __future__ import annotations

import abc

import numpy as np

# expit stays, although loading scipy.special is most of the package's import
# time: it rounds as libm's exp does, and the logistic1d artifacts depend on
# those bits.  numpy's SIMD exp differs from libm in 4.7% of 200k uniform
# inputs on [-10, 10], and longdouble exp rounded to double in 0.096%.  An
# exact element-wise 1 / (1 + math.exp(-x)) costs about 180 ns per element
# against 12-28 ns for expit, and a 3000-sample logistic1d study evaluates
# 182,870 (Euler with the oracle) to 714,040 (RK4) elements, 33-128 ms more
# than its whole 40-90 ms propagate (2-core x86-64, Python 3.11, numpy 2.4).
from scipy.special import expit

from .base import Problem, mixed_action


class _ClosedFormProblem(Problem):
    """Problem with d = 1 whose objective and derivatives are written once, as formulas.

    ``_formulas(x, t)`` takes the decision variable x of shape (S,) and the
    tuple t of the p parameter columns, each (S,), and returns J, the
    gradient, the Hessian entry and the tuple of mixed-derivative entries,
    all of shape (S,).  ``derivatives`` forms the full B and applies it to
    the directions; the base class's ``values`` keeps its J, which the
    Newton oracle needs for its rare second and later backtracking steps
    alone.
    """

    @abc.abstractmethod
    def _formulas(self, x, t):
        """(J, dJ/dm, d2J/dm2, (d2J/(dm dtheta_k) for each k)) at S points."""

    def derivatives(self, M, Theta, dTheta=None):
        J, g, h, b = self._formulas(M[:, 0], tuple(Theta.T))
        return J, g[:, None], h[:, None, None], mixed_action(np.stack(b, -1)[:, None], dTheta)


class QuadraticProblem(_ClosedFormProblem):
    """J(m, theta) = 0.5 (m - theta_1)^2.

    The minimizer is theta_1 itself, so the minimizer map is linear in the
    parameter and every sane scheme reproduces it exactly.
    """

    d = 1
    p = 1
    basin_hint = None

    def _formulas(self, x, t):
        one = np.ones_like(x)
        return 0.5 * (x - t[0]) ** 2, x - t[0], one, (-one,)

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
    def _check_theta(t):
        """The parameter columns (t1, t2), once every row has t1 < 0.5 < t2."""
        t1, t2 = t
        bad = ~((t1 < 0.5) & (0.5 < t2))
        if np.any(bad):
            s = np.argmax(bad)
            raise ValueError(f"requires theta_1 < 0.5 < theta_2, got {t1[s]!r}, {t2[s]!r}")
        return t1, t2

    def _formulas(self, x, t):
        t1, t2 = self._check_theta(t)
        # antiderivative of (m-t1)(m-0.5)(m-t2), constant of integration zero
        J = (
            x**4 / 4.0
            - (t1 + t2 + 0.5) * x**3 / 3.0
            + (0.5 * (t1 + t2) + t1 * t2) * x**2 / 2.0
            - 0.5 * t1 * t2 * x
        )
        g = (x - t1) * (x - 0.5) * (x - t2)
        h = (x - 0.5) * (x - t2) + (x - t1) * (x - t2) + (x - t1) * (x - 0.5)
        return J, g, h, (-(x - 0.5) * (x - t2), -(x - t1) * (x - 0.5))

    def initial_guess(self):
        return np.array([0.8])

    def minimizer(self, theta) -> np.ndarray:
        """Closed-form argmin in the upper well."""
        self._check_theta(np.reshape(theta, (2, 1)))
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

    def _formulas(self, x, t):
        t1, t2, t3 = t
        sp = expit(t2 * x)
        sm = expit(-t2 * x)
        s = sp * sm
        J = t1 * sm + t3 * x**2
        g = -t1 * t2 * s + 2.0 * t3 * x
        h = t1 * t2**2 * sp * sm * (sp - sm) + 2.0 * t3
        return J, g, h, (-t2 * s, -t1 * s * (1.0 - t2 * x * (sp - sm)), 2.0 * x)

    def initial_guess(self):
        return np.array([0.5])
