import numpy as np
import pytest

import minmarch as mm
from minmarch.derivatives import fd_jacobian
from minmarch.marching import anchor
from minmarch.problems.base import mixed_action

THETA_LOGISTIC = np.array([1.0, 3.0, 0.1])
THETA_ADVDIFF = np.array([10.0, 0.05, 1.0])


def rendered(study, directory) -> list[str]:
    """The lines of samples.csv of study, written under directory."""
    from minmarch.reporting import write_samples_csv

    write_samples_csv(directory / "samples.csv", study)
    return (directory / "samples.csv").read_text().splitlines(keepends=True)


def march_one(problem, start, theta_bar, theta_end, num_steps, scheme=mm.Scheme.FORWARD_EULER):
    """The march of one sample to theta_end: a one-row ``march_block`` from (start, theta_bar)."""
    start = anchor(problem, start, theta_bar)
    return mm.march_block(problem, start, theta_end[None], num_steps, scheme)


def fd_gradient(func, x):
    """Central differences of a scalar function: the one-row ``fd_jacobian``."""
    return fd_jacobian(lambda xx: np.atleast_1d(func(xx)), x)[0]


def integral(est) -> float:
    """The trapezoid-rule integral of a ``DensityEstimate`` over its grid."""
    if est.dimension == 1:
        return float(np.trapezoid(est.density, est.axes[0]))
    inner = np.trapezoid(est.density, est.axes[1], axis=1)
    return float(np.trapezoid(inner, est.axes[0]))


def objective_second_differences(problem, m, theta, step=1e-5):
    """Hessian and mixed derivative from 4-point second differences of J alone.

    No gradient is involved, so this is an oracle independent of both the
    problem's second derivatives and its gradient.
    """

    def d2(i_kind, i, j_kind, j):
        def shifted(si, sj):
            mm_, th_ = m.copy(), theta.copy()
            (mm_ if i_kind == "m" else th_)[i] += si * step
            (mm_ if j_kind == "m" else th_)[j] += sj * step
            return problem.objective(mm_, th_)

        return (
            shifted(+1, +1) - shifted(+1, -1) - shifted(-1, +1) + shifted(-1, -1)
        ) / (4.0 * step**2)

    H = np.array([[d2("m", i, "m", j) for j in range(m.size)] for i in range(m.size)])
    B = np.array([[d2("m", i, "t", j) for j in range(theta.size)] for i in range(m.size)])
    return H, B


def gradient_differences(problem, m, theta):
    """Hessian, symmetrized as (H + H^T)/2, and mixed derivative from central
    differences of the problem's exact gradient."""
    H = fd_jacobian(lambda mm_: problem.gradient(mm_, theta), m)
    B = fd_jacobian(lambda tt: problem.gradient(m, tt), theta)
    return 0.5 * (H + H.T), B


@pytest.fixture(scope="session")
def quadratic():
    return mm.QuadraticProblem()


@pytest.fixture(scope="session")
def double_well():
    return mm.DoubleWellProblem()


@pytest.fixture(scope="session")
def logistic():
    return mm.LogisticWellProblem()


@pytest.fixture(scope="session")
def advdiff():
    from minmarch.problems.advdiff import make_advdiff_problem

    return make_advdiff_problem()


@pytest.fixture
def forked_blocks(monkeypatch):
    """Studies split into blocks start their worker processes, however cheap a block is."""
    from minmarch import uq

    monkeypatch.setattr(uq, "WORKER_MIN_BLOCK_S", 0.0)


@pytest.fixture(scope="session")
def quadratic_box():
    return mm.ParameterBox.relative(np.array([0.4]), 0.40)


@pytest.fixture(scope="session")
def cubic_box():
    return mm.ParameterBox(np.array([0.3, 0.75]), np.array([0.1, 0.1]))


@pytest.fixture(scope="session")
def logistic_box():
    return mm.ParameterBox.relative(THETA_LOGISTIC, 0.40)


@pytest.fixture(scope="session")
def advdiff_box():
    return mm.ParameterBox.relative(THETA_ADVDIFF, 0.20)


class ConcaveProblem(mm.Problem):
    """J = -0.5 m^2 + theta m: every stationary point is a maximum."""

    d = 1
    p = 1
    basin_hint = None

    def values(self, M, Theta):
        return -0.5 * M[:, 0] ** 2 + Theta[:, 0] * M[:, 0]

    def derivatives(self, M, Theta, dTheta=None):
        ones = np.ones((len(M), 1, 1))
        return self.values(M, Theta), Theta - M, -ones, mixed_action(ones, dTheta)

    def initial_guess(self):
        return np.array([0.0])


class FragileProblem(mm.Problem):
    """Quadratic bowl that loses positive definiteness for theta_1 <= 0.

    J = 0.5 theta_1 m^2: the minimizer is 0 while theta_1 > 0, and the
    stationary point turns into a maximizer across theta_1 = 0.  Used to
    exercise abort/failure accounting.
    """

    d = 1
    p = 1
    basin_hint = None

    def values(self, M, Theta):
        return 0.5 * Theta[:, 0] * M[:, 0] ** 2

    def derivatives(self, M, Theta, dTheta=None):
        B = M[:, :, None]
        return self.values(M, Theta), Theta * M, Theta[:, :, None], mixed_action(B, dTheta)

    def initial_guess(self):
        return np.array([0.0])


class Recording(mm.Problem):
    """A problem that records the rows and directions of every ``derivatives`` call."""

    def __init__(self, problem):
        self.problem = problem
        self.d, self.p, self.basin_hint = problem.d, problem.p, problem.basin_hint
        self.calls = []

    def values(self, M, Theta):
        return self.problem.values(M, Theta)

    def derivatives(self, M, Theta, dTheta=None):
        self.calls.append((M.copy(), Theta.copy(), None if dTheta is None else dTheta.copy()))
        return self.problem.derivatives(M, Theta, dTheta)

    def initial_guess(self):
        return self.problem.initial_guess()


@pytest.fixture
def concave_problem():
    return ConcaveProblem()


@pytest.fixture
def fragile_problem():
    return FragileProblem()
