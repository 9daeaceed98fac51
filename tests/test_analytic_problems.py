import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmarch as mm


def test_quadratic_closed_form(quadratic):
    theta = np.array([0.7])
    np.testing.assert_array_equal(quadratic.minimizer(theta), [0.7])
    assert quadratic.objective(np.array([0.7]), theta) == 0.0


def test_double_well_minimizer_is_upper_root(double_well):
    theta = np.array([0.3, 0.75])
    assert double_well.gradient(np.array([0.75]), theta)[0] == 0.0
    assert double_well.hessian(np.array([0.75]), theta)[0, 0] > 0.0
    # the lower root is a minimum too, but outside the basin hint
    assert double_well.gradient(np.array([0.3]), theta)[0] == 0.0
    # two marches of one iterate each, at 0.3 and 0.75
    assert double_well.in_basin(np.array([[[0.3], [0.75]]])).tolist() == [False, True]


def test_double_well_rejects_bad_theta(double_well):
    with pytest.raises(ValueError):
        double_well.objective(np.array([0.7]), np.array([0.6, 0.75]))
    with pytest.raises(ValueError):
        double_well.gradient(np.array([0.7]), np.array([0.3, 0.4]))


@settings(max_examples=40, deadline=None)
@given(
    t1=st.floats(0.2, 1.4),
    t2=st.floats(1.8, 4.2),
    t3=st.floats(0.06, 0.14),
)
def test_logistic_value_at_origin(t1, t2, t3):
    """J(0, theta) = theta_1 / 2 exactly, for any parameters."""
    problem = mm.LogisticWellProblem()
    assert problem.objective(np.array([0.0]), np.array([t1, t2, t3])) == t1 / 2.0


def test_logistic_gradient_sign_structure(logistic):
    theta = np.array([1.0, 3.0, 0.1])
    # strictly decreasing at the origin, increasing far out: a single
    # positive minimizer in between
    assert logistic.gradient(np.array([0.0]), theta)[0] < 0.0
    assert logistic.gradient(np.array([3.0]), theta)[0] > 0.0


def test_logistic_far_out_gives_the_sigmoid_limits(logistic):
    """Where |theta_2 m| >= 710, exp(theta_2 m) overflows, and no warning may escape.

    The sigmoid is then exactly 0 or 1 and its slope 0, so every output is
    that of the quadratic penalty alone, plus theta_1 on the left.
    """
    t1, t2, t3 = theta = np.array([1.0, 3.0, 0.1])
    M = np.array([[-300.0], [300.0], [-237.0], [250.0]])
    m = M[:, 0]
    Theta = np.tile(theta, (len(M), 1))
    dTheta = np.array([[1.0, 1.0, 1.0], [0.5, -2.0, 3.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    J, g, H, b = logistic.derivatives(M, Theta, dTheta)
    np.testing.assert_array_equal(J, t1 * (m < 0.0) + t3 * m**2)
    np.testing.assert_array_equal(g[:, 0], 2.0 * t3 * m)
    np.testing.assert_array_equal(H[:, 0, 0], np.full(len(M), 2.0 * t3))
    np.testing.assert_array_equal(b[:, 0], 2.0 * m * dTheta[:, 2])
    np.testing.assert_array_equal(logistic.values(M, Theta), J)


def test_initial_guesses_are_finite(quadratic, double_well, logistic, advdiff):
    for prob in (quadratic, double_well, logistic, advdiff):
        m0 = prob.initial_guess()
        assert m0.shape == (prob.d,)
        assert np.all(np.isfinite(m0))
