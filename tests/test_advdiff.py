import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

import minmarch as mm
import minmarch.problems.advdiff as advdiff_module
from minmarch.derivatives import _max_rel_error
from minmarch.problems.advdiff import AdvectionDiffusionModel
from minmarch.problems.base import derivatives_at

from conftest import (
    THETA_ADVDIFF,
    fd_gradient,
    gradient_differences,
    objective_second_differences,
)

M_TRUE = np.array([0.05, 0.4])


def test_zero_source_gives_zero_solution():
    model = AdvectionDiffusionModel(64)
    u = model.solve(M_TRUE, THETA_ADVDIFF, source_values=np.zeros(65))
    np.testing.assert_allclose(u, 0.0, atol=1e-13)


def test_manufactured_solution_second_order():
    """Max-norm error against u(x) = cos(pi x) decays like 1/n^2.

    Forcing and Robin data come from substituting u into the operator:
    s = kappa pi^2 cos(pi x) - v pi sin(pi x), r0 = r1 = -alpha.
    """
    kappa, v, alpha = 0.05, 0.4, 1.0
    theta = np.array([0.0, 0.5, alpha])  # a, c unused with an explicit source
    errors = []
    ns = [32, 64, 128, 256]
    for n in ns:
        model = AdvectionDiffusionModel(n)
        x = model.nodes
        u_exact = np.cos(np.pi * x)
        forcing = kappa * np.pi**2 * np.cos(np.pi * x) - v * np.pi * np.sin(np.pi * x)
        u = model.solve(
            np.array([kappa, v]),
            theta,
            source_values=forcing,
            robin_data=(-alpha, -alpha),
        )
        errors.append(np.max(np.abs(u - u_exact)))
    slope = mm.fit_loglog_slope([1.0 / n for n in ns], errors)
    assert 1.8 <= slope <= 2.2


def test_solution_peak_is_downstream_of_source():
    model = AdvectionDiffusionModel(200)
    u = model.solve(M_TRUE, THETA_ADVDIFF)
    peak_x = model.nodes[np.argmax(u)]
    assert peak_x > THETA_ADVDIFF[1]  # advected past c when v > 0


def test_discrete_residual_is_tiny():
    model = AdvectionDiffusionModel(200)
    u = model.solve(M_TRUE, THETA_ADVDIFF)
    source = model.source(THETA_ADVDIFF[0], THETA_ADVDIFF[1])
    residual = model.apply_operator(u, M_TRUE, THETA_ADVDIFF) - source
    assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(source))


def test_solver_input_validation():
    with pytest.raises(ValueError):
        AdvectionDiffusionModel(8)
    model = AdvectionDiffusionModel(64)
    with pytest.raises(mm.BvpSolveError):
        model.solve(np.array([-0.05, 0.4]), THETA_ADVDIFF)
    with pytest.raises(mm.BvpSolveError):
        model.solve(np.array([0.0, 0.4]), THETA_ADVDIFF)


def test_perfect_fit_at_prior_gives_zero_objective_and_gradient():
    model = AdvectionDiffusionModel(100)
    m0 = np.array([0.055, 0.35])
    u_obs = model.solve(m0, THETA_ADVDIFF)
    problem = advdiff_module.AdvDiffInverseProblem(model, u_obs, m0, beta=1e-3)
    value, g = problem.objective_gradient(m0, THETA_ADVDIFF)
    assert value == 0.0
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_objective_nonnegative_at_random_points(advdiff, advdiff_box):
    rng = np.random.default_rng(5)
    lo, hi = advdiff.basin_hint
    for _ in range(10):
        m = rng.uniform(lo, hi)
        theta = advdiff_box.nominal + advdiff_box.half_widths * rng.uniform(-1, 1, 3)
        assert advdiff.objective(m, theta) >= 0.0


def test_gradient_fd_at_random_points(advdiff, advdiff_box):
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = np.array([rng.uniform(0.02, 0.15), rng.uniform(0.0, 0.8)])
        theta = advdiff_box.nominal + advdiff_box.half_widths * rng.uniform(-1, 1, 3)
        g = advdiff.gradient(m, theta)
        g_fd = fd_gradient(lambda mm_: advdiff.objective(mm_, theta), m)
        denom = np.maximum(1.0, np.maximum(np.abs(g), np.abs(g_fd)))
        assert np.max(np.abs(g - g_fd) / denom) <= 1e-5


@pytest.mark.parametrize(
    "index, name", [(0, "kappa"), (1, "v"), (2, "alpha")], ids=["kappa", "v", "alpha"]
)
def test_dA_operators_match_differences_of_apply_operator(index, name):
    """Each _dA_* kernel equals central differences of A y in its coefficient."""
    model = AdvectionDiffusionModel(64)
    coeffs = np.array([0.05, 0.4, 1.0])  # kappa, v, alpha
    y = np.random.default_rng(9).normal(size=65)

    def operator_at(step):
        kappa, v, alpha = coeffs + step * np.eye(3)[index]
        return model.apply_operator(y, (kappa, v), (0.0, 0.0, alpha))

    h = 1e-6
    diff = (operator_at(h) - operator_at(-h)) / (2.0 * h)
    y3 = y[None, :, None]
    exact = getattr(model, f"_dA_d{name}")(y3, *coeffs, np.empty_like(y3))[0, :, 0]
    np.testing.assert_allclose(exact, diff, rtol=1e-7, atol=1e-8 * np.max(np.abs(diff)))


@pytest.mark.parametrize("name", ["kappa", "v"])
def test_transposed_dA_operators_are_the_transposes(name):
    """_dAT_* applied to the identity is the transpose of _dA_* applied to it."""
    model = AdvectionDiffusionModel(16)
    identity = np.eye(17)[None]
    coeffs = (np.array([[0.07]]), np.array([[0.3]]), np.array([[1.1]]))
    A = getattr(model, f"_dA_d{name}")(identity, *coeffs, np.empty_like(identity))[0]
    AT = getattr(model, f"_dAT_d{name}")(identity, *coeffs, np.empty_like(identity))[0]
    assert np.array_equal(AT, A.T)


def test_exact_second_derivatives_match_fd_off_truth(advdiff, advdiff_box):
    """Exact H and B match FD of the exact gradient where the data misfit is nonzero.

    At the truth point the residual and the adjoint vanish, so only points
    away from it check the adjoint terms.
    """
    rng = np.random.default_rng(23)
    lo, hi = advdiff.basin_hint
    for _ in range(12):
        m = rng.uniform(lo, hi)
        theta = advdiff_box.nominal + advdiff_box.half_widths * rng.uniform(-1, 1, 3)
        H, B = advdiff.hessian_and_mixed(m, theta)
        H_fd, B_fd = gradient_differences(advdiff, m, theta)
        assert _max_rel_error(H, H_fd) <= 1e-5
        assert _max_rel_error(B, B_fd) <= 1e-5


def test_exact_second_derivatives_vs_pure_objective_differences(advdiff):
    m = np.array([0.06, 0.32])
    H_oracle, B_oracle = objective_second_differences(advdiff, m, THETA_ADVDIFF)
    H, B = advdiff.hessian_and_mixed(m, THETA_ADVDIFF)
    np.testing.assert_allclose(H, H_oracle, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(B, B_oracle, rtol=1e-4, atol=1e-6)


def test_hessian_and_mixed_agree_with_single_evaluators(advdiff):
    m, theta = np.array([0.06, 0.32]), np.array([9.0, 0.055, 1.1])
    H, B = advdiff.hessian_and_mixed(m, theta)
    assert np.array_equal(advdiff.hessian(m, theta), H)
    assert np.array_equal(derivatives_at(advdiff, m, theta)[3], B)
    assert np.array_equal(H, H.T)


def counting_solves(monkeypatch):
    """Record the bands of every tridiagonal solve the advdiff module makes.

    Every solve goes through ``_gtsv``; ``_solve_tridiagonal`` checks its input first.
    """
    bands = []
    solve = advdiff_module._gtsv

    def counting_solve(lower, diag, upper, rhs):
        bands.append((lower.copy(), diag.copy(), upper.copy()))
        return solve(lower, diag, upper, rhs)

    monkeypatch.setattr(advdiff_module, "_gtsv", counting_solve)
    return bands


def test_hessian_and_mixed_makes_three_solves(advdiff, monkeypatch):
    """State, sensitivities and adjoint: one tridiagonal solve each, one matrix."""
    bands = counting_solves(monkeypatch)
    advdiff.hessian_and_mixed(np.array([0.06, 0.32]), THETA_ADVDIFF)
    assert len(bands) == 3
    forward, sensitivities, adjoint = bands
    assert all(np.array_equal(f, s) for f, s in zip(forward, sensitivities))
    # the adjoint solves with A^T: same diagonal, off-diagonal bands swapped
    lower, diag, upper = forward
    assert np.array_equal(adjoint[1], diag)
    assert np.array_equal(adjoint[0], upper)
    assert np.array_equal(adjoint[2], lower)


def random_stack(problem, box, S, seed):
    rng = np.random.default_rng(seed)
    lo, hi = problem.basin_hint
    M = rng.uniform(lo, hi, (S, 2))
    Theta = box.nominal + box.half_widths * rng.uniform(-1.0, 1.0, (S, 3))
    return M, Theta


def random_directions(box, S, seed):
    return box.half_widths * np.random.default_rng(seed).uniform(-1.0, 1.0, (S, 3))


@pytest.mark.parametrize("S", [1, 7, 50])
def test_stack_makes_three_solves(advdiff, advdiff_box, monkeypatch, S):
    """derivatives takes three solves for any S, values one."""
    M, Theta = random_stack(advdiff, advdiff_box, S, seed=S)
    bands = counting_solves(monkeypatch)
    advdiff.derivatives(M, Theta)
    assert len(bands) == 3
    assert all(diag.size == S * (advdiff.model.grid_cells + 1) for _, diag, _ in bands)
    advdiff.values(M, Theta)
    assert len(bands) == 4


@pytest.mark.parametrize("S", [1, 7, 50])
def test_stack_equals_row_loop_bit_for_bit(advdiff, advdiff_box, S):
    """The stacked solves reproduce a loop over S = 1 evaluations exactly, with directions."""
    M, Theta = random_stack(advdiff, advdiff_box, S, seed=100 + S)
    dTheta = random_directions(advdiff_box, S, seed=200 + S)
    stacked = (advdiff.values(M, Theta),) + advdiff.derivatives(M, Theta, dTheta)
    rows = [
        (advdiff.values(M[s : s + 1], Theta[s : s + 1]),)
        + advdiff.derivatives(M[s : s + 1], Theta[s : s + 1], dTheta[s : s + 1])
        for s in range(S)
    ]
    loop = [np.concatenate(parts) for parts in zip(*rows)]
    differing = sum(np.count_nonzero(a != b) for a, b in zip(stacked, loop))
    total = sum(a.size for a in stacked)
    assert differing == 0, f"{differing} of {total} cells differ"
    # J from the state solve alone equals J from the three solves
    assert np.array_equal(stacked[0], stacked[1])


def test_stacked_solves_take_at_most_stack_rows(advdiff, advdiff_box, monkeypatch):
    """A stack larger than STACK_ROWS is solved in chunks with the same rows."""
    M, Theta = random_stack(advdiff, advdiff_box, 7, seed=4)
    expected = advdiff.derivatives(M, Theta)
    monkeypatch.setattr(advdiff_module, "STACK_ROWS", 3)
    bands = counting_solves(monkeypatch)
    chunked = advdiff.derivatives(M, Theta)
    rows = [diag.size // (advdiff.model.grid_cells + 1) for _, diag, _ in bands]
    assert rows == [3] * 6 + [1] * 3
    assert all(np.array_equal(a, b) for a, b in zip(chunked, expected))


# tracemalloc peak per row of one 100-row call when every call allocated its
# own (S, n+1) temporaries: derivatives with and without directions, values
ALLOCATING_PEAK_PER_ROW = {"directions": 35.4e3, "no directions": 27.6e3, "values": 12.6e3}


def stack_calls(problem, box, S, seed):
    """Zero-argument calls of derivatives with and without directions and of values."""
    M, Theta = random_stack(problem, box, S, seed)
    dTheta = random_directions(box, S, seed)
    return {
        "directions": lambda: problem.derivatives(M, Theta, dTheta),
        "no directions": lambda: problem.derivatives(M, Theta),
        "values": lambda: (problem.values(M, Theta),),
    }


@pytest.mark.parametrize("call", list(ALLOCATING_PEAK_PER_ROW))
def test_steady_calls_allocate_a_third_of_the_allocating_peak(advdiff, advdiff_box, call):
    """A call of the size of the one before it works in that call's buffers."""
    S = 100
    evaluate = stack_calls(advdiff, advdiff_box, S, seed=11)[call]
    evaluate()
    tracemalloc.start()
    try:
        evaluate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ALLOCATING_PEAK_PER_ROW[call] * S / 3


@pytest.mark.parametrize("later_rows", [20, 60])
@pytest.mark.parametrize("call", list(ALLOCATING_PEAK_PER_ROW))
def test_results_do_not_alias_the_buffers(advdiff, advdiff_box, call, later_rows):
    """A 20-row result is unchanged by a later call with other inputs, of as many rows or more.

    A call of the later size comes first, so that all three share one buffer.
    """
    stack_calls(advdiff, advdiff_box, later_rows, seed=12)[call]()
    results = stack_calls(advdiff, advdiff_box, 20, seed=13)[call]()
    kept = [None if r is None else r.copy() for r in results]
    stack_calls(advdiff, advdiff_box, later_rows, seed=14)[call]()
    assert all(a is b is None or np.array_equal(a, b) for a, b in zip(results, kept))


def test_scratch_grows_and_shrinks_below_a_quarter():
    """The buffer grows to a larger call and is replaced only for a call under a quarter of it."""
    scratch = advdiff_module._Scratch()
    first = scratch.take((2, 100))
    assert scratch.buffer.size == 200 and first.base is scratch.buffer
    kept = scratch.buffer
    scratch.take((50,))
    assert scratch.buffer is kept
    scratch.take((49,))
    assert scratch.buffer.size == 49


def test_pickled_problem_carries_no_buffers(advdiff_box):
    """Workers receive the problem pickled; what its evaluations left is not in it."""
    problem = advdiff_module.make_advdiff_problem()
    fresh = len(pickle.dumps(problem))
    for evaluate in stack_calls(problem, advdiff_box, 30, seed=15).values():
        evaluate()
    assert len(pickle.dumps(problem)) == fresh


def assert_only_row_failed(problem, M, Theta, bad):
    """Row ``bad`` is +inf in values and NaN in derivatives; its blockmates are unchanged."""
    J = problem.values(M, Theta)
    dTheta = random_directions(mm.ParameterBox.relative(THETA_ADVDIFF, 0.2), len(M), seed=9)
    derivatives = problem.derivatives(M, Theta, dTheta)
    assert J[bad] == np.inf
    assert all(np.isnan(out[bad]).all() for out in derivatives)
    for s in range(len(M)):
        if s != bad:
            assert J[s] == problem.objective(M[s], Theta[s])
            single = problem.derivatives(M[s : s + 1], Theta[s : s + 1], dTheta[s : s + 1])
            assert all(np.array_equal(out[s], one[0]) for out, one in zip(derivatives, single))


def test_stack_row_with_nonpositive_kappa_is_nan(advdiff, advdiff_box):
    M, Theta = random_stack(advdiff, advdiff_box, 5, seed=3)
    M[2, 0] = -0.01
    with pytest.raises(mm.BvpSolveError):
        advdiff.hessian_and_mixed(M[2], Theta[2])
    with pytest.raises(mm.BvpSolveError):
        advdiff.objective(M[2], Theta[2])
    assert_only_row_failed(advdiff, M, Theta, bad=2)


def test_stack_row_with_singular_system_is_nan(monkeypatch):
    """On 16 cells, kappa = 1/16, v = -2 and alpha = 0 give an exactly zero last pivot.

    The sub-diagonal -kappa/dx^2 - v/(2 dx) is then 0 except in the last
    row, and elimination leaves 64 alpha = 0 in the last diagonal entry.
    """
    problem = advdiff_module.make_advdiff_problem(grid_cells=16)
    box = mm.ParameterBox.relative(THETA_ADVDIFF, 0.2)
    M, Theta = random_stack(problem, box, 4, seed=5)
    M[1], Theta[1] = (0.0625, -2.0), (10.0, 0.05, 0.0)
    for single in (problem.hessian_and_mixed, problem.objective_gradient, problem.model.solve):
        with pytest.raises(mm.BvpSolveError):
            single(M[1], Theta[1])
    bands = counting_solves(monkeypatch)
    assert_only_row_failed(problem, M, Theta, bad=1)
    # the stacked state solve fails, so each row is solved on its own
    assert len(bands) > 3


def stack_with_failing_rows():
    """A problem on 16 cells and an 11-row stack whose odd rows cannot be evaluated.

    The rows: kappa <= 0, bands that overflow ([1e305, 0.3]), a NaN
    parameter, an exactly zero pivot (see the test above) and a state that
    overflows (a = 1e308).
    """
    problem = advdiff_module.make_advdiff_problem(grid_cells=16)
    box = mm.ParameterBox.relative(THETA_ADVDIFF, 0.2)
    M, Theta = random_stack(problem, box, 11, seed=8)
    M[1, 0] = -0.01
    M[3] = (1e305, 0.3)
    Theta[5, 1] = np.nan
    M[7], Theta[7] = (0.0625, -2.0), (10.0, 0.05, 0.0)
    M[9, 0], Theta[9, 0] = 1e-3, 1e308
    return problem, M, Theta, [1, 3, 5, 7, 9]


def test_values_is_inf_on_every_failing_row():
    """A line search backtracks from any point the state solve cannot take.

    Each failing row is +inf; the healthy rows between them keep their
    S = 1 values.
    """
    problem, M, Theta, bad = stack_with_failing_rows()
    J = problem.values(M, Theta)
    assert np.all(J[bad] == np.inf)
    for s in sorted(set(range(11)) - set(bad)):
        assert np.isfinite(J[s])
        assert J[s] == problem.values(M[s : s + 1], Theta[s : s + 1])[0]


@pytest.mark.parametrize("directions", [False, True], ids=["no directions", "directions"])
def test_derivatives_is_nan_on_every_failing_row(directions):
    """Each failing row is NaN in every output, without a warning (pytest makes one an error).

    The healthy rows between them keep their S = 1 values bit for bit.
    """
    problem, M, Theta, bad = stack_with_failing_rows()
    box = mm.ParameterBox.relative(THETA_ADVDIFF, 0.2)
    dTheta = random_directions(box, len(M), seed=9) if directions else None
    outs = [out for out in problem.derivatives(M, Theta, dTheta) if out is not None]
    assert all(np.isnan(out[bad]).all() for out in outs)
    for s in sorted(set(range(len(M))) - set(bad)):
        rows = slice(s, s + 1)
        single = problem.derivatives(M[rows], Theta[rows], dTheta[rows] if directions else None)
        assert all(np.isfinite(out[s]).all() for out in outs)
        assert all(np.array_equal(out[s], one[0]) for out, one in zip(outs, single))


@pytest.mark.parametrize("columns", [None, 1, 5])
def test_tridiagonal_solve_matches_solve_banded(columns):
    rng = np.random.default_rng(columns or 0)
    n = 40
    lower, upper = rng.uniform(-1.0, 1.0, (2, n - 1))
    diag = rng.uniform(-4.0, 4.0, n)
    rhs = rng.normal(size=(n,) if columns is None else (n, columns))
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    x = advdiff_module._solve_tridiagonal(lower, diag, upper, rhs)
    assert np.array_equal(x, solve_banded((1, 1), ab, rhs))
    for k, band in enumerate((lower, diag, upper, rhs)):
        args = [lower, diag, upper, rhs]
        args[k] = band.copy()
        args[k].flat[3] = np.nan
        with pytest.raises(ValueError):
            advdiff_module._solve_tridiagonal(*args)


def test_large_regularization_pulls_to_prior():
    model = AdvectionDiffusionModel(100)
    u_obs = model.solve(M_TRUE, THETA_ADVDIFF)
    m_prior = np.array([0.06, 0.32])
    problem = advdiff_module.AdvDiffInverseProblem(model, u_obs, m_prior, beta=1e3)
    result = mm.newton_solve(problem, THETA_ADVDIFF, m_prior)
    assert result.converged
    assert np.linalg.norm(result.minimizer - m_prior) <= 1e-3


def test_regularizer_contributes_identity_to_hessian():
    model = AdvectionDiffusionModel(100)
    u_obs = model.solve(M_TRUE, THETA_ADVDIFF)
    m = np.array([0.06, 0.32])
    delta = 0.5
    h_small = advdiff_module.AdvDiffInverseProblem(model, u_obs, m, beta=1e-3).hessian(
        m, THETA_ADVDIFF
    )
    h_large = advdiff_module.AdvDiffInverseProblem(model, u_obs, m, beta=1e-3 + delta).hessian(
        m, THETA_ADVDIFF
    )
    np.testing.assert_allclose(np.diag(h_large - h_small), delta, atol=1e-6)
    np.testing.assert_allclose(
        h_large - np.diag(np.diag(h_large)),
        h_small - np.diag(np.diag(h_small)),
        atol=1e-6,
    )


def test_hessian_positive_definite_at_nominal_minimizer(advdiff, advdiff_box):
    nominal = mm.solve_nominal(advdiff, advdiff_box)
    H = advdiff.hessian(nominal.minimizer, advdiff_box.nominal)
    assert np.min(np.linalg.eigvalsh(H)) > 0.0


def test_source_magnitude_column_is_nonzero(advdiff, advdiff_box):
    nominal = mm.solve_nominal(advdiff, advdiff_box)
    B = derivatives_at(advdiff, nominal.minimizer, advdiff_box.nominal)[3]
    assert np.linalg.norm(B[:, 0]) > 0.0


def test_nominal_minimizer_near_truth_grid_oracle(advdiff, advdiff_box):
    """Newton lands within 1e-3 relative of the data-generating parameters.

    Oracle: three rounds of dense grid refinement of J around the truth.
    """
    nominal = mm.solve_nominal(advdiff, advdiff_box)

    center = M_TRUE.copy()
    width = np.array([0.02, 0.1])
    best = center
    for _ in range(3):
        k_axis = np.linspace(center[0] - width[0], center[0] + width[0], 21)
        v_axis = np.linspace(center[1] - width[1], center[1] + width[1], 21)
        values = np.array(
            [
                [advdiff.objective(np.array([k, v]), advdiff_box.nominal) for v in v_axis]
                for k in k_axis
            ]
        )
        i, j = np.unravel_index(np.argmin(values), values.shape)
        best = np.array([k_axis[i], v_axis[j]])
        center, width = best, width / 8.0

    grid_resolution = np.linalg.norm(width * 8.0 / 20.0)
    assert np.linalg.norm(nominal.minimizer - best) <= 2 * grid_resolution
    assert (
        np.linalg.norm(nominal.minimizer - M_TRUE) / np.linalg.norm(M_TRUE) <= 1e-3
    )


def test_near_exact_recovery_with_vanishing_regularization():
    model = AdvectionDiffusionModel(100)
    u_obs = model.solve(M_TRUE, THETA_ADVDIFF)
    problem = advdiff_module.AdvDiffInverseProblem(model, u_obs, np.array([0.06, 0.32]), beta=1e-8)
    result = mm.newton_solve(problem, THETA_ADVDIFF, np.array([0.06, 0.32]))
    assert result.converged
    assert np.linalg.norm(result.minimizer - M_TRUE) / np.linalg.norm(M_TRUE) <= 1e-4


class TestSynthesizeObservations:
    def test_noiseless_matches_forward_solve(self):
        model = AdvectionDiffusionModel(100)
        u_obs = advdiff_module.synthesize_observations(model, M_TRUE, THETA_ADVDIFF)
        assert np.array_equal(u_obs, model.solve(M_TRUE, THETA_ADVDIFF))

    def test_noisy_is_reproducible_bitwise(self):
        model = AdvectionDiffusionModel(100)
        a = advdiff_module.synthesize_observations(model, M_TRUE, THETA_ADVDIFF, 0.01, seed=3)
        b = advdiff_module.synthesize_observations(model, M_TRUE, THETA_ADVDIFF, 0.01, seed=3)
        c = advdiff_module.synthesize_observations(model, M_TRUE, THETA_ADVDIFF, 0.01, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_u_obs_shape_validated():
    model = AdvectionDiffusionModel(100)
    with pytest.raises(ValueError):
        advdiff_module.AdvDiffInverseProblem(model, np.zeros(50), np.array([0.06, 0.32]), 1e-3)
    with pytest.raises(ValueError):
        advdiff_module.AdvDiffInverseProblem(model, np.zeros(101), np.array([0.06, 0.32]), 0.0)
