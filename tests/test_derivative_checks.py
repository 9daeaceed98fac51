import numpy as np
import pytest

import minmarch as mm
from minmarch.cli import PROBLEMS
from minmarch.derivatives import fd_gradient

from conftest import (
    THETA_ADVDIFF,
    THETA_LOGISTIC,
    gradient_differences,
    objective_second_differences,
)


def test_quadratic_check_is_exact_to_roundoff(quadratic):
    report = mm.check_derivatives(quadratic, np.array([0.3]), np.array([0.1]))
    assert report.worst() <= 1e-7
    assert report.passed(1e-7)


def test_logistic_check(logistic):
    report = mm.check_derivatives(logistic, np.array([0.9]), THETA_LOGISTIC)
    assert report.worst() <= 1e-6


def test_advdiff_check_at_truth(advdiff):
    report = mm.check_derivatives(advdiff, np.array([0.05, 0.4]), THETA_ADVDIFF)
    assert report.worst() <= 1e-6


def test_advdiff_check_near_lower_kappa_edge(advdiff):
    # a single central difference of the gradient is 1.1e-6 off the exact
    # Hessian here (truncation error grows as kappa shrinks); correct
    # derivatives must still pass the check tolerance
    m = np.array([0.0057, 1.447])
    theta = np.array([9.19, 0.046, 1.16])
    report = mm.check_derivatives(advdiff, m, theta)
    assert report.passed(PROBLEMS["advdiff"]["check"][1])


def test_fd_step_validation(quadratic):
    with pytest.raises(ValueError):
        mm.check_derivatives(quadratic, np.array([0.3]), np.array([0.1]), fd_step=0.0)


def test_fd_second_derivatives_quadratic(quadratic):
    H, B = gradient_differences(quadratic, np.array([0.3]), np.array([0.1]))
    np.testing.assert_allclose(H, [[1.0]], atol=1e-9)
    np.testing.assert_allclose(B, [[-1.0]], atol=1e-9)


def test_fd_second_derivatives_cubic(double_well):
    # oracle: expand g = m^3 - (t1+t2+0.5) m^2 + (0.5(t1+t2)+t1 t2) m - 0.5 t1 t2
    # and differentiate the expansion by hand
    m, (t1, t2) = 0.75, (0.3, 0.75)
    H_expected = 3 * m**2 - 2 * (t1 + t2 + 0.5) * m + 0.5 * (t1 + t2) + t1 * t2
    B_expected = np.array([-(m - 0.5) * (m - t2), -(m - t1) * (m - 0.5)])
    assert H_expected == pytest.approx(0.1125)

    H, B = gradient_differences(double_well, np.array([m]), np.array([t1, t2]))
    np.testing.assert_allclose(H, [[H_expected]], atol=1e-6)
    np.testing.assert_allclose(B, [B_expected], atol=1e-6)


def test_fd_second_derivatives_advdiff_vs_pure_objective_differences(advdiff):
    # oracle: 4-point second differences of J alone, no gradient involved
    m = np.array([0.06, 0.32])
    theta = THETA_ADVDIFF.copy()
    H_oracle, B_oracle = objective_second_differences(advdiff, m, theta)

    H, B = gradient_differences(advdiff, m, theta)
    np.testing.assert_allclose(H, H_oracle, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(B, B_oracle, rtol=1e-4, atol=1e-6)


def test_evaluation_failure_propagates(advdiff):
    # kappa so small the FD perturbation crosses zero: the solver error
    # must surface, not be skipped
    with pytest.raises(mm.BvpSolveError):
        mm.check_derivatives(advdiff, np.array([1e-7, 0.4]), THETA_ADVDIFF)


def _random_points(problem, box, count, rng, fallback_m):
    for _ in range(count):
        if problem.basin_hint is not None:
            lo, hi = problem.basin_hint
            m = rng.uniform(lo, hi)
        else:
            m = fallback_m + rng.uniform(-0.3, 0.3, len(fallback_m))
        theta = box.nominal + box.half_widths * rng.uniform(-1.0, 1.0, box.p)
        yield m, theta


@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_gradient_fd_invariant_random_points(
    name, quadratic, double_well, logistic, advdiff,
    quadratic_box, cubic_box, logistic_box, advdiff_box,
):
    """Gradient matches FD of the objective at 20 random points per problem."""
    problem, box, fallback = {
        "quadratic": (quadratic, quadratic_box, np.array([0.3])),
        "cubic": (double_well, cubic_box, np.array([0.75])),
        "logistic1d": (logistic, logistic_box, np.array([0.9])),
        "advdiff": (advdiff, advdiff_box, np.array([0.05, 0.4])),
    }[name]
    rng = np.random.default_rng(17)
    for m, theta in _random_points(problem, box, 20, rng, fallback):
        g = problem.gradient(m, theta)
        g_fd = fd_gradient(lambda mm_: problem.objective(mm_, theta), m)
        denom = np.maximum(1.0, np.maximum(np.abs(g), np.abs(g_fd)))
        assert np.max(np.abs(g - g_fd) / denom) <= 1e-5


def taylor_remainders(problem, m, theta, dm, dtheta, steps):
    """Remainders ||g(x + e dx) - g(x) - e D dx|| for D = H (x = m) and D = B (x = theta).

    B dtheta is taken twice: from the full B of ``mixed`` and as the
    directional b of ``derivatives``.  All perturbed points of one kind are
    evaluated as one stack.
    """
    K = steps.size
    _, g0, H, b = problem.derivatives(m[None], theta[None], dtheta[None])
    B = problem.mixed(m, theta)
    g_m = problem.derivatives(m + steps[:, None] * dm, np.tile(theta, (K, 1)))[1]
    g_t = problem.derivatives(np.tile(m, (K, 1)), theta + steps[:, None] * dtheta)[1]
    r_m = np.linalg.norm(g_m - g0 - steps[:, None] * (H[0] @ dm), axis=1)
    r_t = np.linalg.norm(g_t - g0 - steps[:, None] * (B @ dtheta), axis=1)
    r_b = np.linalg.norm(g_t - g0 - steps[:, None] * b[0], axis=1)
    return r_m, r_t, r_b


@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_taylor_remainder_decays_at_second_order(
    name, quadratic, double_well, logistic, advdiff,
    quadratic_box, cubic_box, logistic_box, advdiff_box,
):
    """H, B and b = B dtheta are the derivatives of g: the first-order Taylor remainder of g is O(e^2).

    The rate is fitted over e = 2^-2 .. 2^-13, so neither FD truncation nor
    roundoff at one step decides the outcome (dolfin-adjoint's taylor_test).
    The quadratic's gradient is affine, so its remainder is roundoff at
    every step and is checked as such.
    """
    problem, box = {
        "quadratic": (quadratic, quadratic_box),
        "cubic": (double_well, cubic_box),
        "logistic1d": (logistic, logistic_box),
        "advdiff": (advdiff, advdiff_box),
    }[name]
    rng = np.random.default_rng(31)
    lo, hi = problem.basin_hint or (np.array([-0.5]), np.array([1.5]))
    points = [
        (rng.uniform(lo, hi), box.nominal + box.half_widths * rng.uniform(-1.0, 1.0, box.p))
        for _ in range(5)
    ]
    if name == "advdiff":
        # FD roundoff fails the derivative check here, with correct derivatives
        points.append((np.array([0.05134, 0.2388]), np.array([9.804, 0.04188, 0.8922])))
    steps = 2.0 ** -np.arange(2, 14)
    for m, theta in points:
        # perturbed points stay in the basin: e |dm| < (distance to its edge) / 4
        dm = np.minimum(m - lo, hi - m) * rng.uniform(-1.0, 1.0, m.size)
        dtheta = 0.2 * box.half_widths * rng.uniform(-1.0, 1.0, box.p)
        remainders = taylor_remainders(problem, m, theta, dm, dtheta, steps)
        if name == "quadratic":
            assert all(np.all(r <= 1e-14) for r in remainders)
            continue
        for r in remainders:
            rate = np.polyfit(np.log(steps), np.log(r), 1)[0]
            assert abs(rate - 2.0) <= 0.2, f"rate {rate:.3f} at m={m}, theta={theta}"


# the point where FD roundoff fails the advdiff derivative check
FOUND_M, FOUND_THETA = np.array([0.05134, 0.2388]), np.array([9.804, 0.04188, 0.8922])


def _stack_with_directions(name, problems, count, seed):
    """Problem, and M, Theta and dTheta stacks of ``count`` random points.

    dTheta spans the box's half-widths; advdiff gets the FOUND point too.
    """
    problem, box, fallback = problems[name]
    rng = np.random.default_rng(seed)
    points = list(_random_points(problem, box, count, rng, fallback))
    if name == "advdiff":
        points.append((FOUND_M, FOUND_THETA))
    M, Theta = (np.array(column) for column in zip(*points))
    dTheta = box.half_widths * rng.uniform(-1.0, 1.0, Theta.shape)
    return problem, M, Theta, dTheta


@pytest.fixture
def problems(quadratic, double_well, logistic, advdiff, quadratic_box, cubic_box,
             logistic_box, advdiff_box):
    return {
        "quadratic": (quadratic, quadratic_box, np.array([0.4])),
        "cubic": (double_well, cubic_box, np.array([0.75])),
        "logistic1d": (logistic, logistic_box, np.array([0.9])),
        "advdiff": (advdiff, advdiff_box, np.array([0.05, 0.4])),
    }


@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_directional_mixed_is_full_mixed_times_direction(name, problems):
    """b = B dtheta from derivatives agrees with the full B of ``mixed`` applied to dtheta."""
    problem, M, Theta, dTheta = _stack_with_directions(name, problems, 12, seed=5)
    b = problem.derivatives(M, Theta, dTheta)[3]
    assert b.shape == M.shape
    for s in range(len(M)):
        expected = problem.mixed(M[s], Theta[s]) @ dTheta[s]
        assert np.linalg.norm(b[s] - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_directions_do_not_change_value_gradient_or_hessian(name, problems):
    """J, g and H are the same bit for bit without directions and with any."""
    problem, M, Theta, dTheta = _stack_with_directions(name, problems, 12, seed=6)
    without = problem.derivatives(M, Theta)
    assert without[3] is None
    p = Theta.shape[1]
    unit = np.eye(p)[np.arange(len(M)) % p]
    for directions in (dTheta, np.zeros_like(dTheta), 1e6 * dTheta, unit):
        with_directions = problem.derivatives(M, Theta, directions)
        for a, b in zip(without[:3], with_directions[:3]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_directional_stack_equals_row_loop_bit_for_bit(name, problems):
    problem, M, Theta, dTheta = _stack_with_directions(name, problems, 9, seed=7)
    stacked = problem.derivatives(M, Theta, dTheta)
    for s in range(len(M)):
        row = problem.derivatives(M[s : s + 1], Theta[s : s + 1], dTheta[s : s + 1])
        assert all(np.array_equal(a[s], b[0]) for a, b in zip(stacked, row))
