import numpy as np
import pytest

import minmarch as mm
from minmarch.marching import TABLEAUX, MarchStatus, Scheme, anchor, march_block
from minmarch.problems.base import mixed_action

from conftest import THETA_LOGISTIC, FragileProblem, Recording, march_one


def test_zero_direction_trajectory_is_constant(logistic, logistic_box):
    nominal = mm.solve_nominal(logistic, logistic_box)
    traj = march_one(
        logistic, nominal.minimizer, THETA_LOGISTIC, THETA_LOGISTIC, 5
    ).trajectory(0)
    assert traj.status is MarchStatus.COMPLETED
    for state in traj.states:
        assert np.array_equal(state, nominal.minimizer)


def test_quadratic_single_step_is_exact(quadratic):
    traj = march_one(
        quadratic, np.array([0.4]), np.array([0.4]), np.array([0.7]), 1
    ).trajectory(0)
    np.testing.assert_allclose(traj.final_state, [0.7], rtol=1e-15)


@pytest.mark.parametrize(
    "scheme,evals_per_step",
    [(Scheme.FORWARD_EULER, 1), (Scheme.HEUN, 2), (Scheme.RK4, 4)],
)
def test_rhs_evaluation_accounting(logistic, logistic_box, scheme, evals_per_step):
    nominal = mm.solve_nominal(logistic, logistic_box)
    block = march_one(
        logistic, nominal.minimizer, THETA_LOGISTIC, np.array([1.2, 2.6, 0.12]),
        7, scheme,
    )
    assert block.trajectory(0).status is MarchStatus.COMPLETED
    assert block.rhs_evals[0] == 7 * evals_per_step


def test_completed_trajectory_invariants(logistic, logistic_box):
    nominal = mm.solve_nominal(logistic, logistic_box)
    traj = march_one(
        logistic, nominal.minimizer, THETA_LOGISTIC, np.array([0.8, 3.9, 0.08]), 12
    ).trajectory(0)
    assert traj.status is MarchStatus.COMPLETED
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.isfinite(traj.states))
    assert traj.min_eigenvalues.shape == (12,)
    assert np.all(traj.min_eigenvalues > 0)


def test_logistic_march_close_to_newton(logistic, logistic_box):
    nominal = mm.solve_nominal(logistic, logistic_box)
    for theta_end in logistic_box.sample(seed=5, count=20):
        traj = march_one(
            logistic, nominal.minimizer, logistic_box.nominal, theta_end, 20
        ).trajectory(0)
        oracle = mm.newton_solve(logistic, theta_end, nominal.minimizer)
        assert np.linalg.norm(traj.final_state - oracle.minimizer) <= 1e-2


def test_first_order_convergence_average_slope(logistic, logistic_box):
    """Per-sample Euler error decays like h, averaged over 50 random samples."""
    nominal = mm.solve_nominal(logistic, logistic_box)
    N_list = [2, 4, 8, 16, 32]
    h = np.array([1.0 / N for N in N_list])
    thetas = logistic_box.sample(seed=31, count=50)
    start = anchor(logistic, nominal.minimizer, logistic_box.nominal)
    oracles = [mm.newton_solve(logistic, t, nominal.minimizer).minimizer for t in thetas]
    errors = np.array([
        march_errors(march_block(logistic, start, thetas, N), oracles)
        for N in N_list
    ])
    slopes = []
    for errs in errors.T:
        slope = mm.fit_loglog_slope(h, errs)
        if np.isfinite(slope):
            slopes.append(slope)
    assert len(slopes) >= 45
    assert 0.8 <= np.mean(slopes) <= 1.2


def march_errors(block, oracles) -> list[float]:
    """Each row's distance from its oracle minimizer; NaN where the march aborted."""
    return [
        float(np.linalg.norm(final - oracle)) if status == MarchStatus.COMPLETED.value else np.nan
        for final, status, oracle in zip(block.finals, block.statuses, oracles, strict=True)
    ]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 16, 64])
def test_exactness_on_affine_minimizer_maps(quadratic, double_well, N):
    # the rhs is constant along the exact path, so Euler is exact for any N
    cases = [
        (quadratic, np.array([0.4]), np.array([0.62]), lambda th: np.array([th[0]])),
        (
            double_well,
            np.array([0.3, 0.75]),
            np.array([0.35, 0.8]),
            lambda th: np.array([th[1]]),
        ),
    ]
    for problem, theta_bar, theta_end, argmin in cases:
        block = march_one(problem, argmin(theta_bar), theta_bar, theta_end, N)
        traj = block.trajectory(0)
        assert traj.status is MarchStatus.COMPLETED
        assert np.linalg.norm(traj.final_state - argmin(theta_end)) <= 1e-12


def test_aborted_indefinite_keeps_last_good_state(concave_problem):
    # stationary start, but the Hessian is negative definite everywhere
    traj = march_one(
        concave_problem, np.array([1.0]), np.array([1.0]), np.array([2.0]), 4
    ).trajectory(0)
    assert traj.status is MarchStatus.ABORTED_INDEFINITE
    assert traj.times[-1] == 0.0
    np.testing.assert_array_equal(traj.final_state, [1.0])
    assert traj.times.size == 1


def test_aborted_midway_on_degenerating_hessian(fragile_problem):
    # theta(t) crosses zero at t = 0.5; steps before that succeed
    traj = march_one(
        fragile_problem, np.array([0.0]), np.array([1.0]), np.array([-1.0]), 4
    ).trajectory(0)
    assert traj.status is MarchStatus.ABORTED_INDEFINITE
    assert traj.times[-1] == 0.5  # two completed steps out of four


class _NonfiniteRhsProblem(mm.Problem):
    d = 1
    p = 1
    basin_hint = None

    def values(self, M, Theta):
        return 0.5 * M[:, 0] ** 2

    def derivatives(self, M, Theta, dTheta=None):
        S = len(M)
        B = np.full((S, 1, 1), np.inf)
        return self.values(M, Theta), M.copy(), np.ones((S, 1, 1)), mixed_action(B, dTheta)


def test_aborted_nonfinite(concave_problem):
    problem = _NonfiniteRhsProblem()
    traj = march_one(
        problem, np.array([0.0]), np.array([0.0]), np.array([1.0]), 3
    ).trajectory(0)
    assert traj.status is MarchStatus.ABORTED_NONFINITE
    assert np.all(np.isfinite(traj.final_state))


class _HessianPoleProblem(mm.Problem):
    """J = 0.5 m^2 - theta m, minimizer m = theta; its Hessian reads +inf from m = 0.6 on."""

    d = 1
    p = 1
    basin_hint = None

    def values(self, M, Theta):
        return 0.5 * M[:, 0] ** 2 - Theta[:, 0] * M[:, 0]

    def derivatives(self, M, Theta, dTheta=None):
        H = np.where(M[:, :, None] >= 0.6, np.inf, 1.0)
        B = -np.ones((len(M), 1, 1))
        return self.values(M, Theta), M - Theta, H, mixed_action(B, dTheta)


def test_nonfinite_hessian_aborts_a_one_dimensional_march():
    # an infinite 1x1 Hessian must not read as a zero velocity
    traj = march_one(
        _HessianPoleProblem(), np.array([0.4]), np.array([0.4]), np.array([0.8]), 4
    ).trajectory(0)
    assert traj.status is MarchStatus.ABORTED_NONFINITE
    assert traj.times[-1] == 0.5
    np.testing.assert_array_equal(traj.states[:, 0], [0.4, 0.5, 0.6])


def test_stationarity_precondition(logistic):
    with pytest.raises(mm.StationarityError, match="^start_minimizer is not stationary"):
        anchor(logistic, np.array([0.5]), THETA_LOGISTIC)


def test_basin_exit_sets_flag_but_continues(quadratic):
    problem = mm.QuadraticProblem()
    problem.basin_hint = (np.array([0.35]), np.array([0.45]))  # deliberately tiny
    traj = march_one(
        problem, np.array([0.4]), np.array([0.4]), np.array([0.9]), 4
    ).trajectory(0)
    assert traj.status is MarchStatus.COMPLETED
    assert traj.left_basin
    np.testing.assert_allclose(traj.final_state, [0.9], rtol=1e-14)


def test_march_is_deterministic(logistic, logistic_box):
    nominal = mm.solve_nominal(logistic, logistic_box)
    end = np.array([1.3, 3.3, 0.13])
    a = march_one(logistic, nominal.minimizer, THETA_LOGISTIC, end, 9).trajectory(0)
    b = march_one(logistic, nominal.minimizer, THETA_LOGISTIC, end, 9).trajectory(0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_march_errors_record_nan_on_failure(fragile_problem):
    start, theta_bar, end = np.array([0.0]), np.array([1.0]), np.array([-1.0])
    errs = {}
    for N in (1, 4):
        block = march_one(fragile_problem, start, theta_bar, end, N)
        errs[N] = march_errors(block, [np.array([0.0])])[0]
    # N=1 evaluates only at t=0 (healthy); N=4 hits the degenerate region
    assert np.isfinite(errs[1])
    assert np.isnan(errs[4])


def test_march_config_validation(quadratic, logistic):
    start, thetas = anchor(quadratic, np.array([0.4]), np.array([0.4])), np.array([[0.7]])
    with pytest.raises(ValueError):
        march_block(quadratic, start, thetas, 0)
    heun = march_block(quadratic, start, thetas, 4, "heun")
    assert heun.rhs_evals[0] == 4 * len(TABLEAUX[Scheme.HEUN].nodes)
    with pytest.raises(ValueError):
        march_block(quadratic, start, thetas, 4, "midpoint")
    # the anchor's start must fit the problem's d and p (thetas: see the next test)
    mismatched = [
        (quadratic, "start_minimizer", np.array([0.4, 5.0]), np.array([0.4])),
        (logistic, "start_minimizer", np.array([0.5, 5.0]), THETA_LOGISTIC),
        (quadratic, "theta_start", np.array([0.4]), np.array([0.4, 0.4])),
        (logistic, "theta_start", np.array([0.5]), THETA_LOGISTIC[:2]),
    ]
    for problem, name, *args in mismatched:
        with pytest.raises(ValueError, match=f"^{name} "):
            anchor(problem, *args)


def test_march_rejects_malformed_thetas(quadratic):
    # thetas is a finite, non-empty stack (S, p), one sample included
    start = anchor(quadratic, np.array([0.4]), np.array([0.4]))
    malformed = [
        np.array([[1.0, 2.0]]),
        np.array([1.0]),
        np.array([[0.7], [np.nan]]),
        np.empty((0, 1)),
    ]
    for thetas in malformed:
        with pytest.raises(ValueError, match="^thetas "):
            march_block(quadratic, start, thetas, 4)


class _SinhProblem(mm.Problem):
    """J = (sinh m - theta)^2 / 2: m*(theta) = asinh(theta), and the rhs depends on m."""

    d = 1
    p = 1
    basin_hint = None

    def values(self, M, Theta):
        return 0.5 * (np.sinh(M[:, 0]) - Theta[:, 0]) ** 2

    def derivatives(self, M, Theta, dTheta=None):
        s, c = np.sinh(M), np.cosh(M)
        g = (s - Theta) * c
        H = c**2 + (s - Theta) * s
        return self.values(M, Theta), g, H[:, :, None], mixed_action(-c[:, :, None], dTheta)


@pytest.mark.parametrize(
    "scheme,order", [(Scheme.FORWARD_EULER, 1), (Scheme.HEUN, 2), (Scheme.RK4, 4)]
)
def test_tableau_convergence_order(scheme, order):
    # a wrong tableau coupling, node or weight lowers the fitted order
    start, end = np.array([0.0]), np.array([3.0])
    N_list = [4, 8, 16, 32]
    errors = [
        march_errors(
            march_one(_SinhProblem(), start, start, end, N, scheme),
            [np.array([np.arcsinh(3.0)])],
        )[0]
        for N in N_list
    ]
    slope = mm.fit_loglog_slope([1.0 / N for N in N_list], errors)
    assert abs(slope - order) <= 0.25


def test_higher_order_schemes_are_sharper(logistic, logistic_box):
    # same interface, visibly higher order at a fixed step count
    nominal = mm.solve_nominal(logistic, logistic_box)
    tight = mm.NewtonConfig(grad_tol=1e-13)
    for theta_end in logistic_box.sample(seed=77, count=3):
        oracle = mm.newton_solve(logistic, theta_end, nominal.minimizer, tight)
        errs = {}
        for scheme in Scheme:
            block = march_one(
                logistic, nominal.minimizer, logistic_box.nominal, theta_end, 8, scheme
            )
            traj = block.trajectory(0)
            errs[scheme] = np.linalg.norm(traj.final_state - oracle.minimizer)
        assert errs[Scheme.HEUN] <= 0.1 * errs[Scheme.FORWARD_EULER]
        assert errs[Scheme.RK4] <= 0.01 * errs[Scheme.HEUN]


def _assert_same_march(block_a, s, block_b, k):
    """Row s of block_a and row k of block_b agree bit for bit."""
    assert block_a.rhs_evals[s] == block_b.rhs_evals[k]
    a, b = block_a.trajectory(s), block_b.trajectory(k)
    assert a.status is b.status
    assert a.left_basin == b.left_basin
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.min_eigenvalues, b.min_eigenvalues)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_block_march_equals_single_marches(
    name, scheme, quadratic, double_well, logistic, advdiff,
    quadratic_box, cubic_box, logistic_box, advdiff_box,
):
    # every kernel operation is row-wise, so a sample's march cannot depend
    # on the block it is marched in
    problem, box, count, N_list = {
        "quadratic": (quadratic, quadratic_box, 20, (1, 3, 8)),
        "cubic": (double_well, cubic_box, 20, (1, 3, 8)),
        "logistic1d": (logistic, logistic_box, 40, (1, 3, 8)),
        "advdiff": (advdiff, advdiff_box, 3, (1, 3)),
    }[name]
    start = mm.solve_nominal(problem, box).minimizer
    thetas = box.sample(seed=13, count=count)
    for N in N_list:
        block = march_block(problem, anchor(problem, start, box.nominal), thetas, N, scheme)
        for s, theta in enumerate(thetas):
            single = march_one(problem, start, box.nominal, theta, N, scheme)
            _assert_same_march(block, s, single, 0)
            assert np.array_equal(block.finals[s], single.trajectory(0).final_state)
            assert block.statuses[s] == single.trajectory(0).status.value
            assert block.left_basin[s] == single.trajectory(0).left_basin


class _FragileWithPole(FragileProblem):
    """FragileProblem whose mixed derivative is infinite for theta_1 >= 2."""

    def derivatives(self, M, Theta, dTheta=None):
        J, g, H, b = super().derivatives(M, Theta, dTheta)
        return J, g, H, None if b is None else np.where(Theta >= 2.0, np.inf, b)


@pytest.mark.parametrize(
    "scheme,failure_steps",
    [
        (Scheme.FORWARD_EULER, [None, 2, 4, 3, None, 5]),
        (Scheme.HEUN, [None, 1, 3, 2, None, 4]),
        (Scheme.RK4, [None, 1, 3, 2, None, 4]),
    ],
)
def test_mixed_block_abort_accounting(scheme, failure_steps):
    # theta_1(t) = 1 + t (end - 1) crosses zero at t = 1 / (1 - end) for a
    # negative end: 0.25, 0.5 and 0.625 here, and reaches the pole at 2 at
    # t = 1/3 for the end 4; the ends 0.5 and 1.5 stay healthy.  A step
    # fails when one of its stages, at pseudo-times (n + c) / N, gets there:
    # Heun and RK4 evaluate at (n + 1) / N, so they fail a step earlier.
    problem = _FragileWithPole()
    start, theta_bar = np.array([0.0]), np.array([1.0])
    ends = np.array([[0.5], [-3.0], [-1.0], [4.0], [1.5], [-0.6]])
    statuses = [
        MarchStatus.COMPLETED,
        MarchStatus.ABORTED_INDEFINITE,
        MarchStatus.ABORTED_INDEFINITE,
        MarchStatus.ABORTED_NONFINITE,
        MarchStatus.COMPLETED,
        MarchStatus.ABORTED_INDEFINITE,
    ]
    N = 8
    block = march_block(problem, anchor(problem, start, theta_bar), ends, N, scheme)

    for s, (status, step) in enumerate(zip(statuses, failure_steps)):
        traj = block.trajectory(s)
        _assert_same_march(block, s, march_one(problem, start, theta_bar, ends[s], N, scheme), 0)
        assert traj.status is status
        done = N if step is None else step
        assert block.steps_done[s] == done
        assert traj.min_eigenvalues.shape == (done,)
        # the row stays frozen at its last good state
        assert np.array_equal(block.states[done:, s], np.repeat(traj.states[-1:], N + 1 - done, 0))
        assert np.all(np.isnan(block.min_eigenvalues[done:, s]))

    # failing rows neither stop nor perturb their blockmates
    healthy = [0, 4]
    alone = march_block(problem, anchor(problem, start, theta_bar), ends[healthy], N, scheme)
    for k, s in enumerate(healthy):
        _assert_same_march(block, s, alone, k)


class _BowlWithSolverFailure(mm.Problem):
    """J = |m - theta_1 (1, 1)|^2 / 2, which cannot be evaluated for theta_1 > 1.5."""

    d = 2
    p = 1
    basin_hint = None

    def values(self, M, Theta):
        J = 0.5 * np.sum((M - Theta) ** 2, axis=1)
        return np.where(Theta[:, 0] > 1.5, np.inf, J)

    def derivatives(self, M, Theta, dTheta=None):
        S = len(M)
        J, g = self.values(M, Theta), M - Theta
        H = np.broadcast_to(np.eye(2), (S, 2, 2)).copy()
        b = mixed_action(-np.ones((S, 2, 1)), dTheta)
        # a failed evaluation is NaN in every output of its row
        failed = Theta[:, 0] > 1.5
        for out in (J, g, H) if b is None else (J, g, H, b):
            out[failed] = np.nan
        return J, g, H, b


def test_block_row_solver_failure_aborts_only_that_row():
    # theta_1(t) = 1 + t (end - 1) exceeds 1.5 past t = 0.25 for the end 3, so
    # the step from t = 3/8 fails
    problem = _BowlWithSolverFailure()
    start, theta_bar = np.array([1.0, 1.0]), np.array([1.0])
    ends = np.array([[0.5], [3.0], [1.4]])
    block = march_block(problem, anchor(problem, start, theta_bar), ends, 8)
    assert block.statuses.tolist() == [
        MarchStatus.COMPLETED.value,
        MarchStatus.ABORTED_NONFINITE.value,
        MarchStatus.COMPLETED.value,
    ]
    assert block.trajectory(1).times[-1] == 3 / 8
    np.testing.assert_allclose(block.finals[[0, 2]], [[0.5, 0.5], [1.4, 1.4]], rtol=1e-14)
    # frozen after three good steps of 2 h each
    np.testing.assert_allclose(block.finals[1], [1.75, 1.75], rtol=1e-14)
    for s, end in enumerate(ends):
        _assert_same_march(block, s, march_one(problem, start, theta_bar, end, 8), 0)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("name", ["logistic1d", "advdiff"])
def test_block_march_evaluates_its_start_once(
    name, scheme, logistic, advdiff, logistic_box, advdiff_box
):
    """The anchor's one p-row call at (m0, theta0) serves the stationarity check and
    every first stage: the march itself makes no call there."""
    problem, box = {"logistic1d": (logistic, logistic_box), "advdiff": (advdiff, advdiff_box)}[name]
    start = mm.solve_nominal(problem, box).minimizer
    recording = Recording(problem)
    N = 3
    at = anchor(recording, start, box.nominal)
    assert len(recording.calls) == 1
    block = march_block(recording, at, box.sample(seed=21, count=6), N, scheme)
    assert (block.statuses == MarchStatus.COMPLETED.value).all()
    at_start = [
        np.all((M == start) & (Theta == box.nominal).all(axis=1, keepdims=True), axis=1)
        for M, Theta, _ in recording.calls
    ]
    assert at_start[0].tolist() == [True] * box.p
    assert not any(rows.any() for rows in at_start[1:])
    # every stage evaluates every sample once, except the shared first one
    stages = len(TABLEAUX[scheme].nodes)
    assert block.rhs_evals.tolist() == [stages * N] * 6
    assert sum(len(M) for M, _, _ in recording.calls) == box.p + 6 * (stages * N - 1)


def _record_fragile_march(scheme):
    """A block of _FragileWithPole marches, N = 8, whose rows abort at different stages.

    theta_1(t) = 1 + t (end - 1): the ends 0.5 and 1.5 stay healthy, the
    negative ends cross zero at t = 0.25, 0.5, 0.625 and 2 / 7 (between the
    nodes 2 / 8 and 2.5 / 8, so RK4 aborts that row in the middle of a step),
    and the ends 4 and 3.5 reach the pole at t = 1 / 3 and 0.4.
    """
    problem = _FragileWithPole()
    recording = Recording(problem)
    ends = np.array([[0.5], [-3.0], [-1.0], [4.0], [1.5], [-0.6], [-2.5], [3.5]])
    # the anchor is built on the unrecorded problem: its call is not the march's
    at = anchor(problem, np.array([0.0]), np.array([1.0]))
    block = march_block(recording, at, ends, 8, scheme)
    return recording, ends, block


@pytest.mark.parametrize("scheme", list(Scheme))
def test_compact_march_passes_the_stage_parameters_of_the_rows_marching(scheme):
    # a row marches on while every stage so far saw theta_1 in (0, 2), where
    # the problem is healthy; each later call gets exactly its stage point
    # and direction, and at t = 1 the sampled end itself
    recording, ends, block = _record_fragile_march(scheme)
    N, start = block.num_steps, np.array([1.0])
    direction = ends - start
    marching = np.ones(len(ends), dtype=bool)
    calls = iter(recording.calls)
    for n in range(N):
        for i, c in enumerate(TABLEAUX[scheme].nodes):
            t = (n + c) / N
            theta = ends if t == 1.0 else start + t * direction
            if (n, i) != (0, 0) and marching.any():
                _, Theta, dTheta = next(calls)
                assert np.array_equal(Theta, theta[marching])
                assert np.array_equal(dTheta, direction[marching])
                if n + c == N:
                    assert np.array_equal(Theta, ends[marching])
            marching &= (theta[:, 0] > 0.0) & (theta[:, 0] < 2.0)
    assert next(calls, None) is None
    assert [block.trajectory(s).status is MarchStatus.COMPLETED for s in range(8)] == (
        [True, False, False, False, True, False, False, False]
    )


@pytest.mark.parametrize("scheme", [Scheme.HEUN, Scheme.RK4])
def test_stage_at_t_one_is_at_the_sampled_rows_themselves(scheme, quadratic):
    # theta_start + 1.0 * (end - theta_start) rounds away from these ends,
    # so the last stage sees them only if it takes the rows of thetas as given
    theta_bar, ends = np.array([0.3]), np.array([[-1.8975812444104436], [-0.49660633350713024]])
    assert np.all(theta_bar + 1.0 * (ends - theta_bar) != ends)
    recording = Recording(quadratic)
    march_block(recording, anchor(quadratic, theta_bar, theta_bar), ends, 2, scheme)
    assert np.array_equal(recording.calls[-1][1], ends)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_derivative_rows_under_aborts(scheme):
    # the propagate_study identity with one step count: every counted stage
    # evaluation is one row passed, but for the S first stages, taken from the
    # anchor; so no row is evaluated after it aborts
    recording, ends, block = _record_fragile_march(scheme)
    rows = sum(len(M) for M, _, _ in recording.calls)
    assert rows == block.rhs_evals.sum() - len(ends)


@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_shared_first_stage_is_the_sensitivity_at_the_start(
    name, quadratic, double_well, logistic, advdiff,
    quadratic_box, cubic_box, logistic_box, advdiff_box,
):
    """The shared first stage is post_optimality_apply at (m0, theta0): bit for bit
    where b is B dtheta's arithmetic, and to roundoff for advdiff's directional b.

    Forward Euler with N = 1 takes the one step m0 + k1, so its final state
    shows the first stage k1.
    """
    problem, box = {
        "quadratic": (quadratic, quadratic_box),
        "cubic": (double_well, cubic_box),
        "logistic1d": (logistic, logistic_box),
        "advdiff": (advdiff, advdiff_box),
    }[name]
    start = mm.solve_nominal(problem, box).minimizer
    thetas = box.sample(seed=22, count=8)
    final = march_block(problem, anchor(problem, start, box.nominal), thetas, 1).finals
    S = len(thetas)
    expected = start + mm.post_optimality_apply(
        problem, np.tile(start, (S, 1)), np.tile(box.nominal, (S, 1)), thetas - box.nominal
    ).result
    if name == "advdiff":
        scale = np.linalg.norm(expected - start, axis=1)
        assert np.all(np.linalg.norm(final - expected, axis=1) <= 1e-12 * scale)
    else:
        assert np.array_equal(final, expected)
