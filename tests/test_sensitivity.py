import numpy as np
import pytest

import minmarch as mm
from minmarch.sensitivity import apply_inverse_hessian

from conftest import THETA_LOGISTIC


class TestPostOptimalityApply:
    def test_quadratic_identity_sensitivity(self, quadratic):
        # m*(theta) = theta, so the operator is the identity
        apply = mm.post_optimality_apply(
            quadratic, np.array([[0.4]]), np.array([[0.4]]), np.array([[0.3]])
        )
        np.testing.assert_allclose(apply.result[0], [0.3], rtol=1e-14)
        assert apply.hessian_min_eigenvalue[0] == 1.0

    def test_cubic_tracks_second_parameter_only(self, double_well):
        # oracle: FD of the closed-form minimizer theta_2 in each parameter
        theta = np.array([0.3, 0.75])
        m = double_well.minimizer(theta)
        delta = 1e-6
        fd = np.empty(2)
        for k in range(2):
            tp, tm_ = theta.copy(), theta.copy()
            tp[k] += delta
            tm_[k] -= delta
            fd[k] = (
                double_well.minimizer(tp)[0] - double_well.minimizer(tm_)[0]
            ) / (2 * delta)
        np.testing.assert_allclose(fd, [0.0, 1.0])

        dtheta = np.array([0.05, -0.03])
        apply = mm.post_optimality_apply(double_well, m[None], theta[None], dtheta[None])
        np.testing.assert_allclose(apply.result[0], [fd @ dtheta], atol=1e-10)

    def test_cubic_operator_invariant_across_box(self, double_well, cubic_box):
        # evaluated at the minimizer, the operator is (0, 1) for every
        # admissible parameter vector: theta_1 never moves the upper well
        rng = np.random.default_rng(29)
        for theta in cubic_box.sample(seed=41, count=15):
            m = double_well.minimizer(theta)
            dtheta = rng.uniform(-0.1, 0.1, 2)
            apply = mm.post_optimality_apply(double_well, m[None], theta[None], dtheta[None])
            assert apply.result[0, 0] == pytest.approx(dtheta[1], abs=1e-10)

    def test_logistic_matches_newton_fd(self, logistic):
        # oracle: Newton re-solves at theta +- delta e1
        nominal = mm.newton_solve(logistic, THETA_LOGISTIC, np.array([0.5]))
        delta = 1e-4
        e1 = np.array([1.0, 0.0, 0.0])
        plus = mm.newton_solve(
            logistic, THETA_LOGISTIC + delta * e1, nominal.minimizer
        )
        minus = mm.newton_solve(
            logistic, THETA_LOGISTIC - delta * e1, nominal.minimizer
        )
        fd = (plus.minimizer - minus.minimizer) / (2 * delta) * 0.1

        apply = mm.post_optimality_apply(
            logistic, nominal.minimizer[None], THETA_LOGISTIC[None], e1[None] * 0.1
        )
        np.testing.assert_allclose(apply.result[0], fd, rtol=1e-4)

    def test_indefinite_hessian_is_flagged(self, double_well):
        # between the wells the curvature is negative
        apply = mm.post_optimality_apply(
            double_well, np.array([[0.6]]), np.array([[0.3, 0.75]]), np.array([[0.0, 0.1]])
        )
        assert not apply.definite[0]
        assert apply.hessian_min_eigenvalue[0] < 0.0

    @pytest.mark.parametrize("name", ["quadratic", "double_well", "logistic", "advdiff"])
    def test_no_rows_give_no_rows(self, request, name):
        # minmarch trajectory writes an empty sensitivity.csv from these
        problem = request.getfixturevalue(name)
        empty = np.empty((0, problem.p))
        apply = mm.post_optimality_apply(problem, np.empty((0, problem.d)), empty, empty)
        assert apply.result.shape == (0, problem.d) and apply.definite.shape == (0,)

    def test_residual_of_linear_solve(self, logistic, advdiff):
        points = [
            (logistic, np.array([0.9]), THETA_LOGISTIC, np.array([0.2, -0.5, 0.01])),
            (
                advdiff,
                np.array([0.05, 0.4]),
                np.array([10.0, 0.05, 1.0]),
                np.array([1.0, -0.002, 0.1]),
            ),
        ]
        for problem, m, theta, dtheta in points:
            H, B = problem.hessian_and_mixed(m, theta)
            apply = mm.post_optimality_apply(problem, m[None], theta[None], dtheta[None])
            residual = H @ apply.result[0] + B @ dtheta
            rhs_norm = np.linalg.norm(B @ dtheta)
            assert np.max(np.abs(residual)) <= 1e-10 * (rhs_norm + 1.0)


def ivp_rhs(problem, theta_start, theta_end, t, m):
    """Right-hand side of the minimizer-transport ODE at pseudo-time t on the segment
    from theta_start to theta_end, which it evaluates as ``march_block`` does."""
    direction = theta_end - theta_start
    theta = theta_end if t == 1.0 else theta_start + t * direction
    return mm.post_optimality_apply(problem, m[None], theta[None], direction[None]).result[0]


class TestIvpRhs:
    def test_zero_direction_gives_zero(self, logistic):
        rhs = ivp_rhs(logistic, THETA_LOGISTIC, THETA_LOGISTIC, 0.3, np.array([0.9]))
        np.testing.assert_array_equal(rhs, [0.0])

    def test_quadratic_rhs_constant(self, quadratic):
        for t in (0.0, 0.25, 1.0):
            rhs = ivp_rhs(quadratic, np.array([0.4]), np.array([0.7]), t, np.array([0.4 + 0.3 * t]))
            np.testing.assert_allclose(rhs, [0.3], rtol=1e-14)

    def test_linearity_in_direction(self, logistic):
        theta_end = np.array([1.3, 2.5, 0.12])
        m = np.array([0.9])
        base = ivp_rhs(logistic, THETA_LOGISTIC, theta_end, 0.0, m)
        for alpha in (0.25, 2.0, -1.0):
            scaled_end = THETA_LOGISTIC + alpha * (theta_end - THETA_LOGISTIC)
            scaled = ivp_rhs(logistic, THETA_LOGISTIC, scaled_end, 0.0, m)
            np.testing.assert_allclose(scaled, alpha * base, rtol=1e-12)

    def test_logistic_rhs_matches_argmin_derivative(self, logistic):
        # oracle: Newton re-solves at theta_bar +- delta * dtheta
        theta_end = np.array([1.2, 3.5, 0.08])
        nominal = mm.newton_solve(logistic, THETA_LOGISTIC, np.array([0.5]))
        rhs = ivp_rhs(logistic, THETA_LOGISTIC, theta_end, 0.0, nominal.minimizer)

        delta = 1e-4
        dtheta = theta_end - THETA_LOGISTIC
        plus = mm.newton_solve(logistic, THETA_LOGISTIC + delta * dtheta, nominal.minimizer)
        minus = mm.newton_solve(logistic, THETA_LOGISTIC - delta * dtheta, nominal.minimizer)
        fd = (plus.minimizer - minus.minimizer) / (2 * delta)
        np.testing.assert_allclose(rhs, fd, rtol=1e-3)


@pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
def test_rhs_consistency_with_minimizer_path(
    name, quadratic, double_well, logistic, advdiff,
    quadratic_box, cubic_box, logistic_box, advdiff_box,
):
    """At t=0 the rhs equals d/dt of the Newton-solved minimizer along the line."""
    problem, box = {
        "quadratic": (quadratic, quadratic_box),
        "cubic": (double_well, cubic_box),
        "logistic1d": (logistic, logistic_box),
        "advdiff": (advdiff, advdiff_box),
    }[name]
    nominal = mm.solve_nominal(problem, box)
    tight = mm.NewtonConfig(grad_tol=1e-12)
    n_checked = 0
    for theta_end in box.sample(seed=23, count=10):
        rhs = ivp_rhs(problem, box.nominal, theta_end, 0.0, nominal.minimizer)
        delta = 1e-4
        dtheta = theta_end - box.nominal
        plus = mm.newton_solve(problem, box.nominal + delta * dtheta, nominal.minimizer, tight)
        minus = mm.newton_solve(problem, box.nominal - delta * dtheta, nominal.minimizer, tight)
        fd = (plus.minimizer - minus.minimizer) / (2 * delta)
        if np.linalg.norm(fd) < 1e-12:
            continue  # degenerate direction, nothing to compare against
        np.testing.assert_allclose(rhs, fd, rtol=1e-3, atol=1e-12)
        n_checked += 1
    assert n_checked >= 8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shared_hessian_equals_its_copies_bit_for_bit(d):
    """One (1, d, d) Hessian for all rows gives each row what its own copy gives."""
    rng = np.random.default_rng(d)
    for _ in range(20):
        A = rng.normal(size=(d, d))
        H = A @ A.T + 0.1 * np.eye(d)
        rhs = rng.normal(size=(30, d))
        shared = apply_inverse_hessian(H[None], rhs)
        copies = apply_inverse_hessian(np.repeat(H[None], 30, axis=0), rhs)
        for field in ("result", "hessian_min_eigenvalue", "definite"):
            assert np.array_equal(getattr(shared, field), getattr(copies, field))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
@pytest.mark.parametrize("d", [1, 2])
def test_nonfinite_hessian_gives_nan_for_every_d(d, value):
    """A row whose Hessian has a non-finite entry gets NaN; its blockmate keeps its bits."""
    H = np.repeat(np.eye(d)[None], 2, axis=0)
    H[0, 0, 0] = value
    apply = apply_inverse_hessian(H, np.ones((2, d)))
    assert np.isnan(apply.result[0]).all()
    assert np.isnan(apply.hessian_min_eigenvalue[0])
    assert np.array_equal(apply.result[1], np.ones(d))
    assert apply.hessian_min_eigenvalue[1] == 1.0


@pytest.mark.parametrize("shared", [False, True], ids=["stacked", "shared"])
def test_1d_kernel_is_the_nan_mapped_division_bit_for_bit(shared):
    """d = 1 rows of finite, NaN and +-inf Hessians: result rhs / H, eigenvalue H,
    with every non-finite H read as NaN, so such a row is NaN but not indefinite."""
    rng = np.random.default_rng(11)
    special = np.array([np.nan, np.inf, -np.inf, 0.0])
    for _ in range(50):
        S = int(rng.integers(1, 40))
        H = rng.normal(size=(1 if shared else S, 1, 1))
        mix = rng.random(H.shape) < rng.random()
        H[mix] = rng.choice(special, size=int(mix.sum()))
        rhs = rng.normal(size=(S, 1))
        apply = apply_inverse_hessian(H, rhs)
        with np.errstate(divide="ignore", invalid="ignore"):
            mapped = np.broadcast_to(np.where(np.isfinite(H), H, np.nan), (S, 1, 1))
            expected = (rhs / mapped[:, 0], mapped[:, 0, 0], ~(mapped[:, 0, 0] <= 0.0))
        for got, want in zip(
            (apply.result, apply.hessian_min_eigenvalue, apply.definite), expected, strict=True
        ):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
