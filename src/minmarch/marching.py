"""Explicit time stepping of the minimizer-transport initial value problem."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import StationarityError
from .problems.base import as_vector, derivatives_at
from .sensitivity import ParameterLine, apply_inverse_hessian, post_optimality_apply

STATIONARITY_TOL = 1e-8


class Scheme(str, enum.Enum):
    FORWARD_EULER = "euler"
    HEUN = "heun"
    RK4 = "rk4"


@dataclass(frozen=True)
class Tableau:
    """Explicit Runge-Kutta scheme in Butcher form.

    Stage i of step n evaluates the right-hand side at pseudo-time
    (n + nodes[i]) / N and at the state m_n + sum_j a_ij h k_j, where
    ``couplings[i]`` lists only the nonzero (j, a_ij).  The step increment is
    sum_i weights[i] k_i / denominator, summed in stage order.
    """

    nodes: tuple[float, ...]
    couplings: tuple[tuple[tuple[int, float], ...], ...]
    weights: tuple[int, ...]
    denominator: int


TABLEAUX = {
    Scheme.FORWARD_EULER: Tableau((0.0,), ((),), (1,), 1),
    Scheme.HEUN: Tableau((0.0, 1.0), ((), ((0, 1.0),)), (1, 1), 2),
    Scheme.RK4: Tableau(
        (0.0, 0.5, 0.5, 1.0),
        ((), ((0, 0.5),), ((1, 0.5),), ((2, 1.0),)),
        (1, 2, 2, 1),
        6,
    ),
}


class MarchStatus(str, enum.Enum):
    COMPLETED = "completed"
    ABORTED_INDEFINITE = "aborted_indefinite"
    ABORTED_NONFINITE = "aborted_nonfinite"


@dataclass(frozen=True)
class MarchConfig:
    num_steps: int
    scheme: Scheme = Scheme.FORWARD_EULER

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        object.__setattr__(self, "scheme", Scheme(self.scheme))


@dataclass
class Trajectory:
    """Iterates of one march from the nominal parameters to a sample.

    ``BlockMarch.trajectory`` cuts one from a block; an aborted march ends
    at its last good state, at pseudo-time times[-1].
    ``min_eigenvalues[n]`` is the smallest Hessian eigenvalue seen among the
    stage evaluations of step n.
    ``left_basin`` flags any iterate that exited the problem's basin hint;
    marching continues regardless, since the hint is analytical.
    """

    times: np.ndarray
    states: np.ndarray
    min_eigenvalues: np.ndarray
    status: MarchStatus
    left_basin: bool = False

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class BlockMarch:
    """Marches of S samples taken in lockstep; index s on any axis is sample s.

    ``states`` (N+1, S, d) holds the iterates; from the step where a sample's
    march aborts on, its row repeats the last good state.  ``steps_done``
    counts each sample's completed steps, so an aborted march failed at
    pseudo-time steps_done / N.  ``min_eigenvalues`` (N, S) is NaN past a
    sample's completed steps.  ``statuses`` (S,) holds each march's
    ``MarchStatus`` value as a string, a row of ``SampleStudy.march_status``,
    and ``rhs_evals`` the stage evaluations made for each sample.
    """

    num_steps: int
    states: np.ndarray
    steps_done: np.ndarray
    statuses: np.ndarray
    rhs_evals: np.ndarray
    min_eigenvalues: np.ndarray
    left_basin: np.ndarray

    @property
    def finals(self) -> np.ndarray:
        return self.states[-1]

    def trajectory(self, s: int) -> Trajectory:
        """Sample s's march on its own."""
        n = int(self.steps_done[s])
        return Trajectory(
            times=np.arange(n + 1) / self.num_steps,
            states=self.states[: n + 1, s].copy(),
            min_eigenvalues=self.min_eigenvalues[:n, s].copy(),
            status=MarchStatus(self.statuses[s]),
            left_basin=bool(self.left_basin[s]),
        )


def march_block(problem, start_minimizer, lines: ParameterLine, config: MarchConfig) -> BlockMarch:
    """March the minimizer from lines.start to each row of lines.end in lockstep.

    ``lines.end`` is a stack (S, p) of sampled parameters; all S marches
    start from ``start_minimizer``, which must already be stationary at
    lines.start: the marcher refuses to repair a bad initial condition
    silently.  Each of the num_steps steps of length h = 1/num_steps runs the
    stages of the scheme's tableau on the samples still marching; forward
    Euler applies exactly m_{n+1} = m_n + h f(t_n, m_n).  A sample whose
    Hessian turns indefinite (ABORTED_INDEFINITE) or whose right-hand side
    or next state is non-finite (ABORTED_NONFINITE) stops at its last good
    state and is not evaluated again; the others march on.  Every operation
    is row-wise, so a sample's march does not depend on its blockmates.

    The stationarity check makes one p-row ``derivatives`` call at
    (start_minimizer, lines.start) (see ``derivatives_at``), which also gives
    the Hessian H0 and the full mixed derivative B0 there.  Every march's
    first stage of step 0 is at that point, so it is -H0^{-1} B0 dtheta_s
    with one eigendecomposition of H0, and no other evaluation is made
    there; every later stage is one ``post_optimality_apply`` call on the
    samples still marching, whose states and lines are kept as compact
    rows, gathered again only in a stage or step where some sample aborts.
    """
    m0 = as_vector(start_minimizer, "start_minimizer")
    value, g, H0, B0 = derivatives_at(problem, m0, lines.start)
    if np.linalg.norm(g) > STATIONARITY_TOL * (1.0 + abs(value)):
        raise StationarityError(
            f"start_minimizer is not stationary at the line start: "
            f"||g||={np.linalg.norm(g)!r} exceeds "
            f"{STATIONARITY_TOL!r}*(1+|J|)"
        )

    tableau = TABLEAUX[config.scheme]
    N = config.num_steps
    h = 1.0 / N
    S, d = lines.end.shape[0], m0.size
    first_stage = apply_inverse_hessian(H0[None], -(B0 @ lines.direction[..., None])[..., 0])
    states = np.empty((N + 1, S, d))
    states[0] = m0
    steps_done = np.full(S, N)
    statuses = np.full(S, MarchStatus.COMPLETED.value)
    rhs_evals = np.full(S, N * len(tableau.nodes))
    min_eigs = np.full((N, S), np.nan)
    # the samples not aborted yet, as compact rows of states (and of `lines`),
    # and the stage evaluations made so far for each of them
    marching, m, evals = np.arange(S), states[0], 0

    def abort(failed, status, n):
        nonlocal statuses
        rows = marching[failed]
        if rows.size:
            # as wide as the longest status present, as np.array(..., dtype=str) makes it
            dtype = np.promote_types(statuses.dtype, f"U{len(status.value)}")
            statuses = statuses.astype(dtype, copy=False)
            statuses[rows] = status.value
            steps_done[rows], rhs_evals[rows] = n, evals

    for n in range(N):
        if not marching.size:
            states[n + 1 :] = states[n]
            break
        ks, step_min = [], np.inf
        for i, (c, couplings) in enumerate(zip(tableau.nodes, tableau.couplings)):
            state = m
            for j, a in couplings:
                state = state + (a * h) * ks[j]
            apply = first_stage if n == i == 0 else post_optimality_apply(
                problem, state, lines.at((n + c) / N), lines.direction
            )
            evals += 1
            ks.append(apply.result)
            step_min = np.minimum(step_min, apply.hessian_min_eigenvalue)
            healthy = apply.definite & np.isfinite(apply.result).all(axis=1)
            if not healthy.all():
                abort(~apply.definite, MarchStatus.ABORTED_INDEFINITE, n)
                abort(apply.definite & ~healthy, MarchStatus.ABORTED_NONFINITE, n)
                # compact now, so that no aborted row is evaluated again
                marching, m, step_min = marching[healthy], m[healthy], step_min[healthy]
                ks = [k[healthy] for k in ks]
                if not marching.size:
                    break
                lines = ParameterLine(lines.start, lines.end[healthy])

        increment = tableau.weights[0] * ks[0]
        for w, k in zip(tableau.weights[1:], ks[1:]):
            increment = increment + w * k
        m = m + h * (increment / tableau.denominator)
        finite = np.isfinite(m).all(axis=1)
        if not finite.all():
            abort(~finite, MarchStatus.ABORTED_NONFINITE, n)
            marching, m, step_min = marching[finite], m[finite], step_min[finite]
            if marching.size:
                lines = ParameterLine(lines.start, lines.end[finite])
        # aborted samples keep their last good state
        states[n + 1] = states[n]
        states[n + 1, marching] = m
        min_eigs[n, marching] = step_min

    return BlockMarch(
        num_steps=N,
        states=states,
        steps_done=steps_done,
        statuses=statuses,
        rhs_evals=rhs_evals,
        min_eigenvalues=min_eigs,
        left_basin=~problem.in_basin(states),
    )
