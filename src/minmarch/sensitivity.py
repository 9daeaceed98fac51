"""Post-optimality sensitivity operator and the parameter line it is applied along."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import IndefiniteHessianError
from .problems.base import as_vector

# relative eigenvalue threshold below which the Hessian counts as singular
_SINGULAR_RTOL = 1e-14


@dataclass(frozen=True)
class ParameterLine:
    """Straight segments from a nominal parameter vector to sampled ones.

    ``end`` is one sampled vector (p,) or a stack of them (S, p), one segment
    per row, all starting at ``start``.  ``direction`` = end - start is
    computed once, and ``at`` adds it to the start repeated in end's shape.
    """

    start: np.ndarray
    end: np.ndarray
    direction: np.ndarray = field(init=False, repr=False)
    _start_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        start = as_vector(self.start, "start")
        end = np.asarray(self.end, dtype=float)
        if end.ndim == 2:
            as_vector(end.ravel(), "end")
        else:
            end = as_vector(end, "end")
        if end.shape[-1] != start.size:
            raise ValueError("start and end must have the same length")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "direction", end - start)
        object.__setattr__(self, "_start_rows", np.broadcast_to(start, end.shape).copy())

    def at(self, t: float) -> np.ndarray:
        """Point on each segment at pseudo-time t; endpoints are returned exactly."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t={t!r} outside [0, 1]")
        if t == 0.0:
            return self._start_rows.copy()
        if t == 1.0:
            return self.end.copy()
        return self._start_rows + t * self.direction


@dataclass(frozen=True)
class SensitivityApply:
    """Action of the inverse Hessian at a point.

    ``result`` solves H result = -B dtheta for the march and H result = -g
    for a Newton step, and the smallest Hessian eigenvalue is recorded.
    For a stack of points every field has one row per point, and
    ``definite`` marks the rows whose Hessian is positive definite; a single
    point with an indefinite Hessian raises instead.
    """

    result: np.ndarray
    hessian_min_eigenvalue: float | np.ndarray
    definite: bool | np.ndarray = True


def post_optimality_apply(problem, m, theta, dtheta) -> SensitivityApply:
    """Apply D = -H^{-1} B to a parameter direction at the point (m, theta).

    ``m``, ``theta`` and ``dtheta`` are one point, (d,), (p,) and (p,), or S
    points stacked row-wise, (S, d), (S, p) and (S, p); every operation is
    row-wise, so a row's result does not depend on its stack.  One
    ``problem.derivatives(M, Theta, dTheta)`` call gives H and b = B dtheta,
    and the result solves H result = -b (see ``apply_inverse_hessian``).  A
    singular or indefinite Hessian raises IndefiniteHessianError for a
    single point and clears ``definite`` for a stacked row: continuing there
    would track a stationary point that is not a local minimizer.
    """
    single = np.ndim(m) == 1
    M = np.atleast_2d(np.asarray(m, dtype=float))
    Theta = np.atleast_2d(np.asarray(theta, dtype=float))
    dTheta = np.atleast_2d(np.asarray(dtheta, dtype=float))

    _, _, H, b = problem.derivatives(M, Theta, dTheta)
    apply = apply_inverse_hessian(H, -b)
    if not single:
        return apply
    if not apply.definite[0]:
        min_eig = apply.hessian_min_eigenvalue[0]
        raise IndefiniteHessianError(
            f"Hessian is singular or not positive definite (min eigenvalue {min_eig!r})",
            float(min_eig),
        )
    return SensitivityApply(apply.result[0], float(apply.hessian_min_eigenvalue[0]))


def apply_inverse_hessian(H, rhs) -> SensitivityApply:
    """Stacked ``SensitivityApply`` of result = H^{-1} rhs, row by row.

    ``rhs`` is (S, d) and ``H`` either (S, d, d), one Hessian per row, or
    (1, d, d), one Hessian shared by all rows, which is then decomposed
    once.  This is the one place a Hessian is decomposed: the march applies
    it to -B dtheta and the Newton oracle to -g.  A dense symmetric
    eigendecomposition per Hessian doubles as the definiteness diagnostic;
    a row's result is the same bit for bit whether its Hessian is shared or
    its own.  Rows with a non-finite Hessian get NaN as result and smallest
    eigenvalue, and rows with a non-finite rhs a non-finite result.
    """
    shape = rhs.shape[:1]
    # rows with a zero eigenvalue divide by it; they are flagged below
    with np.errstate(divide="ignore", invalid="ignore"):
        if H.shape[1] == 1:
            # NaN for a non-finite H, as in the eigh branch: +inf would give a
            # zero result and -inf a negative eigenvalue
            finite = np.isfinite(H)
            if not finite.all():
                H = np.where(finite, H, np.nan)
            min_eig = H[:, 0, 0]
            indefinite = min_eig <= 0.0
            result = rhs / H[:, 0]
        else:
            # eigh reads one triangle and has no defined result for non-finite
            # input, so those rows stay NaN
            finite = np.isfinite(H).all(axis=(1, 2))
            evals = np.full(H.shape[:2], np.nan)
            vecs = np.full(H.shape, np.nan)
            evals[finite], vecs[finite] = np.linalg.eigh(H[finite])
            min_eig = evals[:, 0]
            indefinite = (min_eig <= 0.0) | (
                min_eig <= _SINGULAR_RTOL * np.abs(evals[:, -1])
            )
            coords = (vecs.swapaxes(1, 2) @ rhs[..., None])[..., 0] / evals
            result = (vecs @ coords[..., None])[..., 0]
    if len(H) != len(rhs):  # one Hessian shared by every row
        min_eig, indefinite = (np.broadcast_to(x, shape) for x in (min_eig, indefinite))
    return SensitivityApply(result, min_eig, ~indefinite)
