"""Parameterized-problem contract and the uncertainty box for its parameters."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..exceptions import BvpSolveError


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-d float array of length >= 1."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class Problem(abc.ABC):
    """Optimization problem whose objective depends on uncertain parameters.

    Concrete problems evaluate the objective J(m, theta), its gradient in the
    decision variable m, the Hessian in m, and the mixed second derivative
    once in m and once in theta.  ``d`` and ``p`` are the lengths of m and
    theta.  ``basin_hint``, when set, is an open box in decision space inside
    which the minimizer is assumed unique for all admissible parameters; it
    is diagnostic only and never enforced.
    """

    d: int
    p: int
    basin_hint: tuple[np.ndarray, np.ndarray] | None = None

    @abc.abstractmethod
    def objective(self, m: np.ndarray, theta: np.ndarray) -> float:
        """J(m, theta)."""

    @abc.abstractmethod
    def gradient(self, m: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """dJ/dm, shape (d,)."""

    @abc.abstractmethod
    def hessian(self, m: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """d2J/dm2, shape (d, d), symmetric."""

    @abc.abstractmethod
    def mixed(self, m: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """d2J/(dm dtheta), shape (d, p)."""

    def objective_gradient(self, m, theta) -> tuple[float, np.ndarray]:
        """J and dJ/dm together; override when they share work."""
        return self.objective(m, theta), self.gradient(m, theta)

    def hessian_and_mixed(self, m, theta) -> tuple[np.ndarray, np.ndarray]:
        """Hessian and mixed derivative together; override when they share work."""
        return self.hessian(m, theta), self.mixed(m, theta)

    def hessian_and_mixed_stack(self, M, Theta) -> tuple[np.ndarray, np.ndarray]:
        """Hessians (S, d, d) and mixed derivatives (S, d, p) of S points at once.

        Row s is ``hessian_and_mixed(M[s], Theta[s])`` for M of shape (S, d)
        and Theta of shape (S, p).  A row whose evaluation raises
        BvpSolveError comes back as NaN, so one failed point does not stop
        the others.  This default loops over the rows.  The closed-form
        problems override it with broadcasting formulas, and advdiff with
        three block-diagonal tridiagonal solves for the whole stack.
        """
        S, d = M.shape
        H = np.empty((S, d, d))
        B = np.empty((S, d, Theta.shape[1]))
        for s in range(S):
            try:
                H[s], B[s] = self.hessian_and_mixed(M[s], Theta[s])
            except BvpSolveError:
                H[s] = B[s] = np.nan
        return H, B

    def initial_guess(self) -> np.ndarray:
        """Default starting point for the nominal solve."""
        raise NotImplementedError

    def in_basin(self, m: np.ndarray):
        """Whether points lie strictly inside basin_hint (always, when no hint is set).

        ``m`` is one point (d,), the iterates of one march (n, d), or the
        iterates of S marches (n, S, d).  The first two give one bool, inside
        only when every point is; a stack of marches gives a bool array of
        shape (S,), one answer per march.  The marcher checks all iterates of
        a block of marches in one call, so overrides must accept all three.
        """
        m = np.asarray(m)
        if self.basin_hint is None:
            inside = np.ones(m.shape[:-1], dtype=bool)
        else:
            lo, hi = self.basin_hint
            inside = np.all((m > lo) & (m < hi), axis=-1)
        return inside.all(axis=0) if m.ndim == 3 else bool(inside.all())


@dataclass(frozen=True)
class ParameterBox:
    """Hyper-rectangle of admissible parameters around a nominal vector.

    Coordinate k admits values within ``half_widths[k]`` of ``nominal[k]``.
    """

    nominal: np.ndarray
    half_widths: np.ndarray

    def __post_init__(self):
        nominal = as_vector(self.nominal, "nominal")
        hw = as_vector(self.half_widths, "half_widths")
        if hw.shape != nominal.shape:
            raise ValueError("half_widths must have the same length as nominal")
        if np.any(hw < 0):
            raise ValueError("half_widths must be nonnegative")
        object.__setattr__(self, "nominal", nominal)
        object.__setattr__(self, "half_widths", hw)

    @classmethod
    def relative(cls, nominal, fraction) -> "ParameterBox":
        """Build a box with half-widths ``fraction * |nominal|`` per coordinate.

        ``fraction`` may be a scalar or a per-coordinate sequence.
        """
        nominal = as_vector(nominal, "nominal")
        frac = np.broadcast_to(np.asarray(fraction, dtype=float), nominal.shape)
        if np.any(frac < 0):
            raise ValueError("relative fraction must be nonnegative")
        return cls(nominal, frac * np.abs(nominal))

    @property
    def p(self) -> int:
        return self.nominal.size

    @property
    def lower(self) -> np.ndarray:
        return self.nominal - self.half_widths

    @property
    def upper(self) -> np.ndarray:
        return self.nominal + self.half_widths

    def contains(self, theta) -> bool:
        # compared with the rounded bounds, not |theta - nominal| <= half_widths:
        # that form rejects draws of ``sample`` that round past a tiny half-width
        theta = np.asarray(theta, dtype=float)
        return bool(np.all((self.lower <= theta) & (theta <= self.upper)))

    def require_member(self, theta) -> np.ndarray:
        """Validate membership, naming the first violating coordinate."""
        theta = as_vector(theta, "theta")
        if theta.shape != self.nominal.shape:
            raise ValueError(
                f"theta has length {theta.size}, expected {self.p}"
            )
        outside = (theta < self.lower) | (theta > self.upper)
        if np.any(outside):
            k = int(np.argmax(outside))
            raise ValueError(
                f"theta_{k + 1}={theta[k]!r} lies outside "
                f"[{self.lower[k]!r}, {self.upper[k]!r}]"
            )
        return theta

    def sample(self, seed: int, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. uniform samples, one row per sample.

        Sample i is generated from its own random stream derived from
        ``seed`` and i, so subsets and orderings never affect the values
        drawn for a given index.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        out = np.empty((count, self.p))
        for i in range(count):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            out[i] = self.nominal + self.half_widths * rng.uniform(-1.0, 1.0, self.p)
        return out
