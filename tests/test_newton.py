import numpy as np
import pytest

import minmarch as mm
from minmarch.newton import newton_solve_block
from minmarch.problems.base import dot_rows, mixed_action

from conftest import THETA_LOGISTIC, FragileProblem

# independent oracle: bisection on the closed-form gradient over [0.5, 1.5]
# at the nominal parameters (1, 3, 0.1); frozen from a 200-step run
LOGISTIC_NOMINAL_MINIMIZER = 0.8955334912681419


def bisect_gradient_root(problem, theta, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if problem.gradient(np.array([mid]), theta)[0] > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_quadratic_converges_in_one_full_step(quadratic):
    result = mm.newton_solve(
        quadratic, np.array([0.4]), np.array([0.0]), record_history=True
    )
    assert result.converged
    assert result.iterations == 1
    np.testing.assert_allclose(result.minimizer, [0.4], rtol=1e-15)
    assert result.history[0].alpha == 1.0


def test_logistic_nominal_against_bisection(logistic):
    oracle = bisect_gradient_root(logistic, THETA_LOGISTIC, 0.5, 1.5)
    assert oracle == pytest.approx(LOGISTIC_NOMINAL_MINIMIZER, abs=1e-14)

    result = mm.newton_solve(logistic, THETA_LOGISTIC, np.array([0.5]))
    assert result.converged
    assert result.minimizer[0] == pytest.approx(LOGISTIC_NOMINAL_MINIMIZER, abs=1e-9)
    assert abs(logistic.gradient(result.minimizer, THETA_LOGISTIC)[0]) <= 1e-10


def test_cubic_from_upper_basin(double_well):
    result = mm.newton_solve(double_well, np.array([0.3, 0.75]), np.array([0.8]))
    assert result.converged
    assert result.minimizer[0] == pytest.approx(0.75, abs=1e-10)


def test_armijo_and_descent_properties(logistic):
    """Each accepted step satisfies its acceptance test; J never increases."""
    result = mm.newton_solve(
        logistic, THETA_LOGISTIC, np.array([5.0]), record_history=True
    )
    assert result.converged
    hist = result.history
    eps = np.finfo(float).eps
    for before, after in zip(hist[:-1], hist[1:]):
        assert before.alpha is not None
        if before.polish:
            assert after.grad_norm < before.grad_norm
            # J may move by roundoff only
            assert after.objective <= before.objective + 8 * eps * (
                1 + abs(before.objective)
            )
        else:
            armijo_bound = (
                before.objective
                + 1e-4 * before.alpha * before.directional_derivative
            )
            assert after.objective <= armijo_bound
            assert after.objective <= before.objective


def test_quadratic_convergence_diagnostic(logistic):
    result = mm.newton_solve(
        logistic, THETA_LOGISTIC, np.array([0.3]), record_history=True
    )
    grads = [h.grad_norm for h in result.history if h.grad_norm > 0]
    # contraction ratio |g_{k+1}| / |g_k|^2 stays bounded near the minimizer;
    # logged for inspection, no hard threshold
    ratios = [b / a**2 for a, b in zip(grads[:-1], grads[1:]) if a < 1e-2]
    print(f"quadratic-convergence ratios: {ratios}")
    assert all(np.isfinite(r) for r in ratios)


def test_consistency_between_initial_points(quadratic, double_well, logistic, advdiff):
    cases = [
        (quadratic, np.array([0.4]), [np.array([-1.0]), np.array([1.5])]),
        (double_well, np.array([0.3, 0.75]), [np.array([0.6]), np.array([0.95])]),
        (logistic, THETA_LOGISTIC, [np.array([0.1]), np.array([2.0])]),
        (
            advdiff,
            np.array([10.0, 0.05, 1.0]),
            [np.array([0.06, 0.32]), np.array([0.05, 0.4])],
        ),
    ]
    for problem, theta, starts in cases:
        results = [mm.newton_solve(problem, theta, m0) for m0 in starts]
        assert all(r.converged for r in results)
        assert (
            np.linalg.norm(results[0].minimizer - results[1].minimizer) <= 1e-8
        )


def test_max_iters_exceeded_reports_best_iterate(logistic):
    config = mm.NewtonConfig(max_iters=1)
    result = mm.newton_solve(logistic, THETA_LOGISTIC, np.array([5.0]), config)
    assert not result.converged
    assert result.iterations == 1
    assert np.all(np.isfinite(result.minimizer))


def test_stationary_maximum_is_not_converged(concave_problem):
    # gradient vanishes at the start, but the Hessian is negative
    result = mm.newton_solve(concave_problem, np.array([0.7]), np.array([0.7]))
    assert not result.converged
    assert result.hessian_min_eigenvalue < 0


def test_solve_nominal(logistic, logistic_box, concave_problem):
    nominal = mm.solve_nominal(logistic, logistic_box)
    assert nominal.converged
    assert nominal.hessian_min_eigenvalue > 0

    bad_box = mm.ParameterBox.relative([0.7], 0.1)
    with pytest.raises(mm.NominalSolveError):
        mm.solve_nominal(concave_problem, bad_box)


def test_solve_nominal_at_a_stationary_maximum_names_it(concave_problem):
    # the start is stationary at theta = 0, so the gradient test holds at
    # once with a negative Hessian
    box = mm.ParameterBox(np.array([0.0]), np.array([0.1]))
    with pytest.raises(mm.NominalSolveError, match="not a strict local minimizer") as err:
        mm.solve_nominal(concave_problem, box)
    assert "min eigenvalue -1.0" in str(err.value)


def test_newton_config_validation():
    with pytest.raises(ValueError):
        mm.NewtonConfig(armijo_c=1.5)
    with pytest.raises(ValueError):
        mm.NewtonConfig(backtrack_factor=0.0)


class TestReferenceDistribution:
    """Newton re-solves over a sample set, warm-started from the nominal
    minimizer as the study oracle runs them."""

    def test_degenerate_samples_return_nominal(self, logistic, logistic_box):
        nominal = mm.solve_nominal(logistic, logistic_box)
        for theta in np.tile(THETA_LOGISTIC, (5, 1)):
            r = mm.newton_solve(logistic, theta, nominal.minimizer)
            assert r.converged
            assert np.array_equal(r.minimizer, nominal.minimizer)
            assert r.iterations == 0

    def test_logistic_batch_all_converge(self, logistic, logistic_box):
        nominal = mm.solve_nominal(logistic, logistic_box)
        for theta in logistic_box.sample(seed=13, count=1000):
            assert mm.newton_solve(logistic, theta, nominal.minimizer).converged

    def test_cold_start_uses_initial_guess(self, logistic, logistic_box):
        nominal = mm.solve_nominal(logistic, logistic_box)
        for theta in logistic_box.sample(seed=13, count=5):
            warm = mm.newton_solve(logistic, theta, nominal.minimizer)
            cold = mm.newton_solve(logistic, theta, logistic.initial_guess())
            assert warm.converged and cold.converged
            assert np.linalg.norm(warm.minimizer - cold.minimizer) <= 1e-8


def assert_same_solve(a, b):
    """Two SolveResults agree in every field bit for bit, histories included."""
    assert np.array_equal(a.minimizer, b.minimizer)
    for name in ("objective", "grad_norm", "hessian_min_eigenvalue"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    assert (a.history is None) == (b.history is None)
    for x, y in zip(a.history or [], b.history or [], strict=True):
        assert np.array_equal(
            [x.objective, x.grad_norm, x.hessian_min_eigenvalue],
            [y.objective, y.grad_norm, y.hessian_min_eigenvalue],
            equal_nan=True,
        )
        assert (x.alpha, x.directional_derivative, x.polish) == (
            y.alpha, y.directional_derivative, y.polish
        )


@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_newton_block_equals_single_solves(
    name, quadratic, double_well, logistic, advdiff,
    quadratic_box, cubic_box, logistic_box, advdiff_box,
):
    # every operation is row-wise, so a re-solve does not depend on its block;
    # warm starts as the study oracle runs them, cold starts for longer paths
    problem, box, count = {
        "quadratic": (quadratic, quadratic_box, 20),
        "cubic": (double_well, cubic_box, 30),
        "logistic1d": (logistic, logistic_box, 60),
        "advdiff": (advdiff, advdiff_box, 6),
    }[name]
    thetas = box.sample(seed=21, count=count)
    for start in (mm.solve_nominal(problem, box).minimizer, problem.initial_guess()):
        block = newton_solve_block(problem, thetas, start, record_history=True)
        assert block.minimizer.shape == (count, problem.d)
        assert len(block.history) == count
        for s, theta in enumerate(thetas):
            result = block.row(s)
            single = mm.newton_solve(problem, theta, start, record_history=True)
            assert_same_solve(result, single)
            assert len(result.history) == result.iterations + 1


class _WalledFragile(FragileProblem):
    """FragileProblem that cannot be evaluated past a wall at m = 1.

    Like a PDE whose solve fails for kappa <= 0: ``values`` is +inf there
    and ``derivatives`` NaN in every output.
    """

    def values(self, M, Theta):
        return np.where(M[:, 0] > 1.0, np.inf, super().values(M, Theta))

    def derivatives(self, M, Theta, dTheta=None):
        wall = M[:, 0] > 1.0
        outs = super().derivatives(M, Theta, dTheta)
        outs = [None if out is None else np.array(out, dtype=float) for out in outs]
        for out in outs:
            if out is not None:
                out[wall] = np.nan
        return tuple(outs)


def test_mixed_block_failure_paths():
    """Each way a re-solve ends, side by side in one block.

    J = theta m^2 / 2: for theta = 1 the unit Newton step lands on the
    minimizer 0; for theta = -1 the Hessian is indefinite, so the step is
    steepest descent, which doubles m.
    """
    problem = _WalledFragile()
    config = mm.NewtonConfig(max_iters=20, max_backtracks=4)
    rows = [
        (1.0, 0.5),  # converges in one Newton step
        (-1.0, 1e-7),  # steepest descent until max_iters
        (1.0, 1e-9),  # slope below roundoff on J: a polish step
        (-1.0, 0.0),  # stationary, but a maximum
        (-1.0, 0.9),  # every trial 0.9 (1 + 2^-k), k < 4, lies past the wall
        (1.0, 2.0),  # the start itself cannot be evaluated
    ]
    Theta = np.array([[t] for t, _ in rows])
    M0 = np.array([[m] for _, m in rows])
    block = newton_solve_block(problem, Theta, M0, config, record_history=True)
    for s, (theta, m0) in enumerate(rows):
        single = mm.newton_solve(problem, [theta], [m0], config, record_history=True)
        assert_same_solve(block.row(s), single)
    converged, steepest, polished, maximum, rejected, wall = map(block.row, range(len(rows)))

    assert converged.converged and converged.iterations == 1
    assert converged.minimizer[0] == 0.0

    assert not steepest.converged and steepest.iterations == config.max_iters
    assert steepest.minimizer[0] == 1e-7 * 2.0**20
    assert all(h.hessian_min_eigenvalue < 0 and h.alpha == 1.0 for h in steepest.history[:-1])

    assert polished.converged and polished.iterations == 1
    assert polished.history[0].polish and polished.history[0].alpha == 1.0

    assert not maximum.converged and maximum.iterations == 0
    assert maximum.hessian_min_eigenvalue == -1.0

    assert not rejected.converged and rejected.iterations == 0
    assert rejected.history[0].alpha is None and not rejected.history[0].polish
    assert rejected.minimizer[0] == 0.9

    assert not wall.converged and wall.iterations == 0
    assert np.isnan(wall.objective) and wall.minimizer[0] == 2.0


def test_advdiff_trial_step_with_nonpositive_kappa_backtracks(advdiff):
    # from kappa = 0.006 the Newton step reaches kappa < 0, where the state
    # cannot be solved; the line search backtracks, and its blockmates are
    # untouched
    theta = np.array([10.0, 0.05, 1.0])
    M0 = np.array([[0.006, 1.0], [0.06, 0.32], [0.05, 0.4]])
    _, g, H, _ = advdiff.derivatives(M0[:1], theta[None])
    assert M0[0, 0] - np.linalg.solve(H[0], g[0])[0] <= 0.0
    Theta = np.tile(theta, (3, 1))
    block = newton_solve_block(advdiff, Theta, M0, record_history=True)
    assert block.converged[0] and block.history[0][0].alpha < 1.0
    for s in range(3):
        single = mm.newton_solve(advdiff, theta, M0[s], record_history=True)
        assert_same_solve(block.row(s), single)
        assert single.converged


class _FiniteHessianOnly(mm.Problem):
    """J = theta |m|^2 / 2 in d dimensions, whose J or g is NaN past m_0 = 1.

    The Hessian theta I stays finite there, so only the oracle's own
    evaluability mask can tell such a row apart.
    """

    p = 1

    def __init__(self, d, broken):
        self.d, self.broken = d, broken

    def values(self, M, Theta):
        return 0.5 * Theta[:, 0] * dot_rows(M, M)

    def derivatives(self, M, Theta, dTheta=None):
        H = Theta[:, :, None] * np.eye(self.d)
        b = None if dTheta is None else M * dTheta
        outs = [self.values(M, Theta), Theta * M, H, b]
        outs[self.broken][M[:, 0] > 1.0] = np.nan
        return tuple(outs)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("broken", ["J", "g"])
def test_row_with_finite_hessian_but_nonfinite_value_stops(d, broken):
    problem = _FiniteHessianOnly(d, ("J", "g").index(broken))
    Theta = np.array([[1.0], [1.0], [-1.0], [2.0]])
    M0 = np.zeros((4, d))
    M0[:, 0] = [0.5, 2.0, 3.0, 0.25]  # rows 1 and 2 start past the wall
    block = newton_solve_block(problem, Theta, M0, record_history=True)
    for s in range(4):
        single = mm.newton_solve(problem, Theta[s], M0[s], record_history=True)
        assert_same_solve(block.row(s), single)
    assert block.converged.tolist() == [True, False, False, True]
    for s in (1, 2):
        wall = block.row(s)
        assert wall.iterations == 0 and wall.minimizer[0] == M0[s, 0]
        assert np.isnan(wall.hessian_min_eigenvalue)
        assert np.isnan(wall.history[0].hessian_min_eigenvalue)


class _PseudoHuber(mm.Problem):
    """J = sqrt(1 + (m - theta)^2), which implements ``derivatives`` alone.

    The minimizer is theta.  From r = m - theta, a unit Newton step lands on
    -r^3, so for |r| >= 1 the line search backtracks, and its second round
    on calls ``values``.
    """

    d = p = 1

    def derivatives(self, M, Theta, dTheta=None):
        r = M[:, 0] - Theta[:, 0]
        J = np.sqrt(1.0 + r**2)
        H = (1.0 / J**3)[:, None, None]
        return J, (r / J)[:, None], H, mixed_action(-H, dTheta)

    def initial_guess(self):
        return np.array([0.0])


class _PseudoHuberWithValues(_PseudoHuber):
    """The same problem with ``values`` written out; it counts its calls."""

    values_calls = 0

    def values(self, M, Theta):
        self.values_calls += 1
        return np.sqrt(1.0 + (M[:, 0] - Theta[:, 0]) ** 2)


def test_problem_with_derivatives_alone_runs_the_oracle():
    """The base ``values`` gives the study of a problem that writes it out, bit for bit."""
    box = mm.ParameterBox([0.0], [2.0])
    args = (box, 200, [1, 4], 3)
    alone = mm.propagate_study(_PseudoHuber(), *args, workers=1)
    twin = _PseudoHuberWithValues()
    written = mm.propagate_study(twin, *args, workers=1)
    assert twin.values_calls > 0  # the line search reached its second round
    assert written.oracle.converged.all()
    for name in ("theta", "march_finals", "march_status", "left_basin"):
        assert np.array_equal(getattr(alone, name), getattr(written, name))
    for name in ("minimizer", "objective", "grad_norm", "iterations", "converged",
                 "hessian_min_eigenvalue"):
        assert np.array_equal(getattr(alone.oracle, name), getattr(written.oracle, name))
    assert alone.counters == written.counters


def test_base_values_are_inf_where_the_objective_is_not_finite():
    class Identity(_PseudoHuber):
        def derivatives(self, M, Theta, dTheta=None):
            return M[:, 0], None, None, None

    M = np.array([[np.nan], [np.inf], [-np.inf], [0.25]])
    values = Identity().values(M, np.zeros((4, 1)))
    assert values.tolist() == [np.inf, np.inf, np.inf, 0.25]
