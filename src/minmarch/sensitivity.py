"""Post-optimality sensitivity operator: the one Hessian solve of the march and the oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative eigenvalue threshold below which the Hessian counts as singular
_SINGULAR_RTOL = 1e-14


@dataclass(frozen=True)
class SensitivityApply:
    """Action of the inverse Hessian at a stack of S points, one row per point.

    ``result`` (S, d) solves H result = -B dtheta for the march and
    H result = -g for a Newton step; ``hessian_min_eigenvalue`` (S,) is the
    smallest Hessian eigenvalue, and ``definite`` (S,) marks the rows whose
    Hessian is positive definite.
    """

    result: np.ndarray
    hessian_min_eigenvalue: np.ndarray
    definite: np.ndarray


def post_optimality_apply(problem, M, Theta, dTheta) -> SensitivityApply:
    """Apply D = -H^{-1} B to parameter directions at S stacked points.

    Row s of M (S, d), Theta (S, p) and dTheta (S, p) is the point
    (M[s], Theta[s]) and its direction; every operation is row-wise, so a
    row's result does not depend on its stack.  One
    ``problem.derivatives(M, Theta, dTheta)`` call gives H and b = B dtheta,
    and the result solves H result = -b (see ``apply_inverse_hessian``).  A
    row whose Hessian is singular or indefinite has ``definite`` False: the
    march stops there, since it would track a stationary point that is not a
    local minimizer.
    """
    _, _, H, b = problem.derivatives(M, Theta, dTheta)
    return apply_inverse_hessian(H, -b)


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
