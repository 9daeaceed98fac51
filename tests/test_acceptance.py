"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the two study fixtures dominate the runtime (about 25 s for the
whole test suite on two cores, 11 s of it the advdiff study).
"""

import json
import os
import time

import numpy as np
import pytest

import minmarch as mm
from minmarch.cli import main
from minmarch.marching import MarchStatus

ACCEPT_SEED = 7
WORKERS = min(4, os.cpu_count() or 1)

_timings: dict[str, float] = {}


def _report(label: str, passed: bool, detail: str):
    print(f"{label}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{label}: {detail}"


@pytest.fixture(scope="module")
def logistic_study(logistic, logistic_box):
    t0 = time.perf_counter()
    study = mm.propagate_study(
        logistic,
        logistic_box,
        5000,
        [1, 2, 4, 8, 16, 128],
        seed=ACCEPT_SEED,
        workers=WORKERS,
    )
    _timings["logistic"] = time.perf_counter() - t0
    return study


@pytest.fixture(scope="module")
def advdiff_study(advdiff, advdiff_box):
    t0 = time.perf_counter()
    study = mm.propagate_study(
        advdiff,
        advdiff_box,
        5000,
        [1, 6, 12, 20],
        seed=ACCEPT_SEED,
        workers=WORKERS,
    )
    _timings["advdiff"] = time.perf_counter() - t0
    return study


def test_criterion_1_first_order_convergence_of_moments(logistic_study):
    """Mean- and std-error slopes over N in {1,2,4,8,16} lie in [0.8, 1.2]."""
    summary = mm.summary_errors(logistic_study)
    keep = [i for i, N in enumerate(summary.mean.N_list) if N in (1, 2, 4, 8, 16)]
    h = summary.mean.h[keep]
    mean_slope = mm.fit_loglog_slope(h, summary.mean.errors[keep, 0])
    std_slope = mm.fit_loglog_slope(h, summary.std.errors[keep, 0])
    passed = 0.8 <= mean_slope <= 1.2 and 0.8 <= std_slope <= 1.2
    _report(
        "CRITERION 1",
        passed,
        f"mean slope {mean_slope:.3f}, std slope {std_slope:.3f} "
        f"(target [0.8, 1.2]); study took {_timings['logistic']:.0f}s "
        "(runtime target 120s)",
    )


def test_criterion_2_oracle_equivalence_at_large_N(logistic_study):
    """At N=128 the marched minimizers agree with the Newton oracle."""
    mask = logistic_study.valid_mask()
    errors = np.linalg.norm(
        logistic_study.finals(128)[mask] - logistic_study.oracle.minimizer[mask], axis=1
    )
    passed = errors.mean() <= 5e-3 and errors.max() <= 5e-2
    _report(
        "CRITERION 2",
        passed,
        f"mean error {errors.mean():.2e} (<= 5e-3), "
        f"max error {errors.max():.2e} (<= 5e-2) over {mask.sum()} samples",
    )


def test_criterion_3_exactness_on_affine_minimizer_maps(
    quadratic, double_well, quadratic_box, cubic_box
):
    """Per-sample error <= 1e-12 for every N when the minimizer map is affine."""
    worst = 0.0
    for problem, box, argmin in (
        (quadratic, quadratic_box, lambda th: np.array([th[0]])),
        (double_well, cubic_box, lambda th: np.array([th[1]])),
    ):
        start = argmin(box.nominal)
        thetas = box.sample(seed=ACCEPT_SEED, count=20)
        for N in [1, 2, 3, 4, 8, 16, 64]:
            block = mm.march_block(problem, start, box.nominal, thetas, N)
            for final, status, theta_end in zip(block.finals, block.statuses, thetas):
                completed = status == MarchStatus.COMPLETED.value
                err = float(np.linalg.norm(final - argmin(theta_end))) if completed else np.nan
                worst = max(worst, err)
    _report("CRITERION 3", worst <= 1e-12, f"worst error {worst:.2e} (<= 1e-12)")


def test_criterion_4_operator_matches_newton_fd(
    quadratic, double_well, logistic, advdiff,
    quadratic_box, cubic_box, logistic_box, advdiff_box,
):
    """D applied to random directions matches central FD of re-solved minimizers."""
    cases = [
        ("quadratic", quadratic, quadratic_box, mm.NewtonConfig(grad_tol=1e-13)),
        ("cubic", double_well, cubic_box, mm.NewtonConfig(grad_tol=1e-13)),
        ("logistic1d", logistic, logistic_box, mm.NewtonConfig(grad_tol=1e-13)),
        ("advdiff", advdiff, advdiff_box, mm.NewtonConfig(grad_tol=1e-12)),
    ]
    delta = 1e-4
    details = []
    passed = True
    for name, problem, box, config in cases:
        nominal = mm.solve_nominal(problem, box)
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(10):
            dtheta = box.half_widths * rng.uniform(-1.0, 1.0, box.p)
            plus = mm.newton_solve(
                problem, box.nominal + delta * dtheta, nominal.minimizer, config
            )
            minus = mm.newton_solve(
                problem, box.nominal - delta * dtheta, nominal.minimizer, config
            )
            for r in (plus, minus):
                assert r.grad_norm <= 1e-9 * (1 + abs(r.objective)), "oracle not tight"
            fd = (plus.minimizer - minus.minimizer) / (2 * delta)
            applied = mm.post_optimality_apply(
                problem, nominal.minimizer[None], box.nominal[None], dtheta[None]
            ).result[0]
            worst = max(worst, np.linalg.norm(applied - fd) / np.linalg.norm(fd))
        details.append(f"{name} {worst:.1e}")
        passed = passed and worst <= 1e-3
    _report(
        "CRITERION 4", passed, "worst relative error per problem: " + ", ".join(details)
    )


def test_criterion_5_pde_discretization_order():
    """Manufactured-solution convergence slope in [1.8, 2.2]."""
    from minmarch.problems.advdiff import AdvectionDiffusionModel

    kappa, v, alpha = 0.05, 0.4, 1.0
    errors = []
    ns = [32, 64, 128, 256]
    for n in ns:
        model = AdvectionDiffusionModel(n)
        x = model.nodes
        u_exact = np.cos(np.pi * x)
        forcing = kappa * np.pi**2 * np.cos(np.pi * x) - v * np.pi * np.sin(np.pi * x)
        u = model.solve(
            np.array([kappa, v]),
            np.array([0.0, 0.5, alpha]),
            source_values=forcing,
            robin_data=(-alpha, -alpha),
        )
        errors.append(np.max(np.abs(u - u_exact)))
    slope = mm.fit_loglog_slope([1.0 / n for n in ns], errors)
    _report(
        "CRITERION 5", 1.8 <= slope <= 2.2, f"max-norm error slope {slope:.3f} "
        f"over n={ns} (target [1.8, 2.2])"
    )


def test_criterion_6_advdiff_moment_errors_shrink(advdiff_study):
    """Mean and std errors strictly decrease from N=1 to N=20 in both coordinates."""
    summary = mm.summary_errors(advdiff_study)
    mean_decreasing = bool(np.all(np.diff(summary.mean.errors, axis=0) < 0))
    std_decreasing = bool(np.all(np.diff(summary.std.errors, axis=0) < 0))
    failures = advdiff_study.failure_counts()["newton_not_converged"]
    passed = mean_decreasing and std_decreasing and failures <= 0.01 * 5000
    _report(
        "CRITERION 6",
        passed,
        f"mean strictly decreasing: {mean_decreasing}, "
        f"std strictly decreasing: {std_decreasing}, "
        f"oracle failures {failures}/5000 (<= 50); "
        f"study took {_timings['advdiff']:.0f}s (runtime target 1800s)",
    )


def test_criterion_7_derivative_check_command():
    """The check subcommand passes on all four built-in problems."""
    code = main(["check"])
    _report("CRITERION 7", code == 0, f"`minmarch check` exit status {code}")


@pytest.mark.usefixtures("forked_blocks")
def test_criterion_8_bitwise_reproducibility(tmp_path):
    """Identical config and seed give byte-identical CSVs, any worker count."""
    base = [
        "study", "--problem", "logistic1d", "--samples", "300",
        "--steps", "1,2,4", "--seed", str(ACCEPT_SEED),
    ]
    runs = {
        "a": base + ["--workers", "1", "--out", str(tmp_path / "a")],
        "b": base + ["--workers", "1", "--out", str(tmp_path / "b")],
        "c": base + ["--workers", "2", "--out", str(tmp_path / "c")],
    }
    for argv in runs.values():
        assert main(argv) == 0
    # a block this small would be marched serially: forked_blocks makes the
    # --workers 2 run march in two blocks, so that block counts are compared
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["counters"]["march_blocks"] == 2
    names = sorted(f for f in os.listdir(tmp_path / "a") if f.endswith(".csv"))
    identical = True
    for name in names:
        blobs = {
            key: (tmp_path / key / name).read_bytes() for key in ("a", "b", "c")
        }
        identical = identical and blobs["a"] == blobs["b"] == blobs["c"]
    # the manifest echoes worker counts and timings; CSV artifacts are the
    # reproducibility contract
    _report(
        "CRITERION 8",
        identical and len(names) >= 3,
        f"{len(names)} CSV files byte-identical across reruns and worker counts",
    )
