"""Explicit time stepping of the minimizer-transport initial value problem."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BvpSolveError, IndefiniteHessianError, StationarityError
from .problems.base import as_vector
from .sensitivity import ParameterLine, post_optimality_apply

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
    record_trajectory: bool = False

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        object.__setattr__(self, "scheme", Scheme(self.scheme))


@dataclass
class Trajectory:
    """Iterates of one march from the nominal parameters to a sample.

    ``min_eigenvalues[n]`` is the smallest Hessian eigenvalue seen among the
    stage evaluations of step n.  ``rhs_values`` holds the first-stage
    right-hand side per step when the march was run with record_trajectory.
    ``left_basin`` flags any iterate that exited the problem's basin hint;
    marching continues regardless, since the hint is analytical.
    """

    times: np.ndarray
    states: np.ndarray
    rhs_evals: int
    min_eigenvalues: np.ndarray
    status: MarchStatus
    left_basin: bool = False
    rhs_values: np.ndarray | None = field(default=None, repr=False)
    failure_time: float | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def march(problem, start_minimizer, line: ParameterLine, config: MarchConfig) -> Trajectory:
    """March the minimizer from line.start to line.end in pseudo-time.

    ``start_minimizer`` must already be stationary at the starting
    parameters; the marcher refuses to repair a bad initial condition
    silently.  Each of the num_steps steps of length h = 1/num_steps runs
    the stages of the scheme's tableau; forward Euler applies exactly
    m_{n+1} = m_n + h f(t_n, m_n).  The final state approximates the
    minimizer at line.end.
    """
    m = as_vector(start_minimizer, "start_minimizer").copy()
    value, g = problem.objective_gradient(m, line.start)
    if np.linalg.norm(g) > STATIONARITY_TOL * (1.0 + abs(value)):
        raise StationarityError(
            f"start_minimizer is not stationary at the line start: "
            f"||g||={np.linalg.norm(g)!r} exceeds "
            f"{STATIONARITY_TOL!r}*(1+|J|)"
        )

    tableau = TABLEAUX[config.scheme]
    N = config.num_steps
    h = 1.0 / N
    direction = line.direction
    states = [m]
    min_eigs: list[float] = []
    rhs_log: list[np.ndarray] = []
    rhs_evals = 0
    status = MarchStatus.COMPLETED
    failure_time = None

    for n in range(N):
        ks: list[np.ndarray] = []
        eigs: list[float] = []
        try:
            for c, couplings in zip(tableau.nodes, tableau.couplings):
                state = m
                for j, a in couplings:
                    state = state + (a * h) * ks[j]
                apply = post_optimality_apply(problem, state, line.at((n + c) / N), direction)
                rhs_evals += 1
                ks.append(apply.result)
                eigs.append(apply.hessian_min_eigenvalue)
        except IndefiniteHessianError:
            status = MarchStatus.ABORTED_INDEFINITE
        except BvpSolveError:
            status = MarchStatus.ABORTED_NONFINITE
        else:
            increment = tableau.weights[0] * ks[0]
            for w, k in zip(tableau.weights[1:], ks[1:]):
                increment = increment + w * k
            m_next = m + h * (increment / tableau.denominator)
            if not np.all(np.isfinite(m_next)):
                status = MarchStatus.ABORTED_NONFINITE
        if status is not MarchStatus.COMPLETED:
            failure_time = n / N
            break

        min_eigs.append(min(eigs))
        if config.record_trajectory:
            rhs_log.append(ks[0])
        m = m_next
        states.append(m)

    stacked = np.vstack(states)
    return Trajectory(
        times=np.arange(len(states)) / N,
        states=stacked,
        rhs_evals=rhs_evals,
        min_eigenvalues=np.asarray(min_eigs),
        status=status,
        left_basin=not problem.in_basin(stacked),
        rhs_values=np.vstack(rhs_log) if rhs_log else None,
        failure_time=failure_time,
    )


def march_error_vs_oracle(
    problem,
    start_minimizer,
    line: ParameterLine,
    N_list,
    oracle_minimizer,
    scheme: Scheme = Scheme.FORWARD_EULER,
) -> list[tuple[int, float]]:
    """March with each step count and measure the gap to a reference minimizer.

    Failed marches are recorded with error NaN so downstream slope fits can
    exclude and count them.
    """
    oracle = as_vector(oracle_minimizer, "oracle_minimizer")
    out = []
    for N in N_list:
        traj = march(problem, start_minimizer, line, MarchConfig(N, scheme))
        if traj.status is MarchStatus.COMPLETED:
            err = float(np.linalg.norm(traj.final_state - oracle))
        else:
            err = float("nan")
        out.append((int(N), err))
    return out
