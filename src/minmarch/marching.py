"""Explicit time stepping of the minimizer-transport initial value problem."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import StationarityError
from .problems.base import as_vector, derivatives_at
from .sensitivity import apply_inverse_hessian, post_optimality_apply

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


@dataclass(frozen=True)
class Anchor:
    """``minimizer`` (d,), stationary at ``theta`` (p,), with H0 and B0 there: (d, d), (d, p)."""

    minimizer: np.ndarray
    theta: np.ndarray
    hessian: np.ndarray
    mixed: np.ndarray


def anchor(problem, start_minimizer, theta_start) -> Anchor:
    """The ``Anchor`` at (start_minimizer, theta_start), from one p-row ``derivatives_at``.

    Its gradient norm must not exceed STATIONARITY_TOL (1 + |J|): the marcher
    refuses to repair a bad initial condition silently.
    """
    m0 = as_vector(start_minimizer, "start_minimizer")
    theta0 = as_vector(theta_start, "theta_start")
    for name, x, n in (("start_minimizer", m0, problem.d), ("theta_start", theta0, problem.p)):
        if x.size != n:
            raise ValueError(f"{name} must have length {n}, got {x.size}")
    value, g, H0, B0 = derivatives_at(problem, m0, theta0)
    if np.linalg.norm(g) > STATIONARITY_TOL * (1.0 + abs(value)):
        raise StationarityError(
            f"start_minimizer is not stationary at theta_start: ||g||={np.linalg.norm(g)!r} "
            f"exceeds {STATIONARITY_TOL!r}*(1+|J|)"
        )
    return Anchor(m0, theta0, H0, B0)


def march_block(
    problem, start: Anchor, thetas, num_steps: int, scheme=Scheme.FORWARD_EULER
) -> BlockMarch:
    """March the minimizer from the anchor ``start`` to each row of thetas in lockstep.

    ``thetas`` is a stack (S, p) of sampled parameters; sample s moves along
    the segment start.theta + t (thetas[s] - start.theta), t in [0, 1], from
    start.minimizer (see ``anchor``, which checks it).  Each of the
    num_steps (>= 1) steps of length h = 1/num_steps runs the stages of the
    tableau of ``scheme`` (a ``Scheme`` or its value) on the samples still
    marching; forward Euler applies exactly m_{n+1} = m_n + h f(t_n, m_n),
    and a stage at t = 1 is at thetas[s] itself.  A sample whose Hessian
    turns indefinite (ABORTED_INDEFINITE) or whose right-hand side or next
    state is non-finite (ABORTED_NONFINITE) stops at its last good state and
    is not evaluated again; the others march on.  Every operation is
    row-wise, so a sample's march does not depend on its blockmates.

    Every march's first stage of step 0 is at the anchor: -H0^{-1} B0 dtheta_s,
    with one eigendecomposition of H0 and no ``derivatives`` call; every later
    stage is one ``post_optimality_apply`` call on the samples still marching,
    whose states and segments are kept as compact rows.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    tableau = TABLEAUX[Scheme(scheme)]
    m0, theta0, H0, B0 = start.minimizer, start.theta, start.hessian, start.mixed
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape[1:] != (problem.p,) or not len(thetas):
        raise ValueError(f"thetas must have shape (S, {problem.p}) with S >= 1, got {thetas.shape}")
    as_vector(thetas.ravel(), "thetas")  # rejects non-finite entries

    N, h, S = num_steps, 1.0 / num_steps, len(thetas)
    direction = thetas - theta0
    first_stage = apply_inverse_hessian(H0[None], -(B0 @ direction[..., None])[..., 0])
    states = np.empty((N + 1, S, m0.size))
    states[0] = m0
    steps_done = np.full(S, N)
    statuses = np.full(S, MarchStatus.COMPLETED.value)
    rhs_evals = np.full(S, N * len(tableau.nodes))
    min_eigs = np.full((N, S), np.nan)
    # the samples not aborted yet, as compact rows of states and segments (starts
    # contiguous: a broadcast is slower), and the stage evaluations made so far
    marching, m, evals = np.arange(S), states[0], 0
    starts, ends = np.broadcast_to(theta0, thetas.shape).copy(), thetas

    def drop(keep, n, *failures):
        """Record each (failed, status) row's abort at step n, then keep only rows `keep`."""
        nonlocal statuses, marching, m, starts, ends, direction, ks, step_min
        for failed, status in failures:
            rows = marching[failed]
            if rows.size:
                # as wide as the longest status present, as np.array(..., dtype=str) makes it
                dtype = np.promote_types(statuses.dtype, f"U{len(status.value)}")
                statuses = statuses.astype(dtype, copy=False)
                statuses[rows] = status.value
                steps_done[rows], rhs_evals[rows] = n, evals
        marching, m, starts, ends, direction, step_min = (
            x[keep] for x in (marching, m, starts, ends, direction, step_min)
        )
        ks = [k[keep] for k in ks]

    for n in range(N):
        if not marching.size:
            states[n + 1 :] = states[n]
            break
        ks, step_min = [], np.inf
        for i, (c, couplings) in enumerate(zip(tableau.nodes, tableau.couplings)):
            state = m
            for j, a in couplings:
                state = state + (a * h) * ks[j]
            if n == i == 0:
                apply = first_stage
            else:
                t = (n + c) / N
                theta = ends if t == 1.0 else starts + t * direction
                apply = post_optimality_apply(problem, state, theta, direction)
            evals += 1
            ks.append(apply.result)
            step_min = np.minimum(step_min, apply.hessian_min_eigenvalue)
            healthy = apply.definite & np.isfinite(apply.result).all(axis=1)
            if not healthy.all():
                # compact now, so that no aborted row is evaluated again
                drop(healthy, n, (~apply.definite, MarchStatus.ABORTED_INDEFINITE),
                     (apply.definite & ~healthy, MarchStatus.ABORTED_NONFINITE))
                if not marching.size:
                    break

        increment = tableau.weights[0] * ks[0]
        for w, k in zip(tableau.weights[1:], ks[1:]):
            increment = increment + w * k
        m = m + h * (increment / tableau.denominator)
        finite = np.isfinite(m).all(axis=1)
        if not finite.all():
            drop(finite, n, (~finite, MarchStatus.ABORTED_NONFINITE))
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
