import csv
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import traceback
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import minmarch as mm
from minmarch.marching import MarchStatus, Scheme
from minmarch import uq
from minmarch.cli import main
from minmarch.uq import _gauss_kernels, _join_blocks, _propagate_block

from conftest import THETA_LOGISTIC, integral, rendered

BLOCK = uq.KDE_BLOCK_ELEMENTS


class FailsInChild(mm.LogisticWellProblem):
    """Logistic well whose ``derivatives`` fails in a block's worker process only."""

    def derivatives(self, M, Theta, dTheta=None):
        if multiprocessing.parent_process() is not None:
            raise ValueError("derivatives failed in a worker")
        return super().derivatives(M, Theta, dTheta)


class TwoArgError(Exception):
    """An exception that does not unpickle: pickle calls it with its message alone."""

    def __init__(self, message, code):
        super().__init__(message)


class RaisesTwoArgError(mm.LogisticWellProblem):
    """Logistic well whose ``derivatives`` raises TwoArgError in a block's worker process."""

    def derivatives(self, M, Theta, dTheta=None):
        if multiprocessing.parent_process() is not None:
            raise TwoArgError("boom", 7)
        return super().derivatives(M, Theta, dTheta)


class DiesInChild(mm.LogisticWellProblem):
    """Logistic well whose ``derivatives`` ends a block's worker process without a result."""

    def derivatives(self, M, Theta, dTheta=None):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return super().derivatives(M, Theta, dTheta)


class InterruptedInCaller(mm.LogisticWellProblem):
    """Logistic well interrupted while the calling process marches its block.

    The nominal solve passes single rows and the block sizing call passes no
    directions, so both go through; a stacked march call of the calling
    process raises KeyboardInterrupt, as Ctrl-C would.
    """

    def derivatives(self, M, Theta, dTheta=None):
        if len(M) > 3 and dTheta is not None and multiprocessing.parent_process() is None:
            raise KeyboardInterrupt
        return super().derivatives(M, Theta, dTheta)


class Unpicklable(mm.LogisticWellProblem):
    """Logistic well holding a lock, which does not pickle."""

    def __init__(self):
        self.lock = threading.Lock()


# run as a file in a fresh interpreter: spawned children re-import the main module
SPAWN_SCRIPT = """\
import multiprocessing
import sys
from pathlib import Path

import numpy as np

import minmarch as mm
from minmarch import uq
from minmarch.reporting import write_samples_csv

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn", force=True)
    uq.WORKER_MIN_BLOCK_S = 0.0  # worker processes however cheap the blocks
    out = Path(sys.argv[1])
    problem = mm.LogisticWellProblem()
    box = mm.ParameterBox.relative(np.array([1.0, 3.0, 0.1]), 0.40)
    for workers in (1, 3):
        study = mm.propagate_study(problem, box, 40, [1, 4], seed=5, workers=workers)
        assert study.counters["march_blocks"] == workers
        write_samples_csv(out / f"samples-w{workers}.csv", study)
    assert multiprocessing.get_start_method() == "spawn"
    assert not multiprocessing.active_children()
"""


class TestKde:
    def test_standard_normal_density_at_origin(self):
        # oracle: closed-form N(0,1) density 1/sqrt(2 pi)
        rng = np.random.default_rng(0)
        values = rng.standard_normal(10000)
        grid = np.linspace(-5.0, 5.0, 1001)
        est = mm.kde(values, grid=(grid,))
        at_zero = est.density[500]
        assert abs(at_zero - 1.0 / np.sqrt(2 * np.pi)) <= 0.1 / np.sqrt(2 * np.pi)

    def test_bivariate_normal_density_at_origin(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((10000, 2))
        axis = np.linspace(-4.0, 4.0, 201)
        est = mm.kde(values, grid=(axis, axis))
        at_zero = est.density[100, 100]
        assert abs(at_zero - 1.0 / (2 * np.pi)) <= 0.1 / (2 * np.pi)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(2)
        est1 = mm.kde(rng.standard_normal(2000))
        assert abs(integral(est1) - 1.0) <= 1e-2
        est2 = mm.kde(rng.standard_normal((2000, 2)))
        assert abs(integral(est2) - 1.0) <= 1e-2

    def test_uniform_mass_concentrated_on_support(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1.0, 5000)
        grid = np.linspace(-0.5, 1.5, 2001)
        est = mm.kde(values, grid=(grid,))
        inside = (grid >= 0.0) & (grid <= 1.0)
        mass = np.trapezoid(est.density[inside], grid[inside])
        assert mass >= 0.95

    def test_zero_variance_is_degenerate(self):
        with pytest.raises(mm.DegenerateBandwidthError):
            mm.kde(np.full(100, 3.7))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            mm.kde(np.arange(10.0))

    def test_silverman_matches_hand_formula(self):
        samples = [
            *(
                np.random.default_rng(n).standard_normal(n)
                for n in (30, 31, 101, 1000, 4999, 70000)
            ),
            # 60 of 100 tied at 0, spanning both quartiles: the IQR is 0
            np.random.default_rng(6).permutation(
                np.concatenate([np.zeros(60), np.random.default_rng(7).uniform(-1.0, 1.0, 40)])
            ),
            # q75 lies halfway from 0.1 to 0.7, where numpy's 0.7 - 0.6 / 2 is
            # 0.39999999999999997 and 0.1 + 0.6 / 2 would be 0.4; q25 is 0
            np.random.default_rng(8).permutation(
                np.concatenate([np.full(7, -1.0), np.zeros(2), np.full(14, 0.1), [0.7], np.ones(7)])
            ),
            np.concatenate([np.random.default_rng(8).standard_normal(99), [np.nan]]),
        ]
        for x in samples:
            # bit for bit, NaN for NaN, what np.percentile's quartiles give
            q75, q25 = np.percentile(x, [75, 25])
            std = float(np.std(x, ddof=1))
            expected = 0.9 * (min(std, (q75 - q25) / 1.34) or std) * x.size ** (-0.2)
            assert np.array_equal(uq._interquartile_range(x), q75 - q25, equal_nan=True)
            assert np.array_equal(uq.silverman_bandwidth(x), expected, equal_nan=True)

    def test_zero_iqr_with_spread_falls_back_to_the_std(self):
        # more than three quarters of the samples tie, so the IQR is 0
        x = np.concatenate([np.zeros(80), np.random.default_rng(5).uniform(1.0, 2.0, 20)])
        expected = 0.9 * np.std(x, ddof=1) * 100 ** (-0.2)
        assert uq.silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)
        assert integral(mm.kde(x)) == pytest.approx(1.0, abs=1e-3)


    @pytest.mark.parametrize(
        "n", [30, 3000, BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1, BLOCK, 70000], ids="n{}".format
    )
    def test_blocked_1d_kde_equals_the_whole_kernel_matrix(self, n):
        # the 1-d kde evaluates BLOCK // n grid rows at a time: 2 rows up to
        # n = BLOCK / 2, 1 above; an odd grid leaves a partial last block
        x = np.random.default_rng(n).standard_normal(n)
        grid = np.linspace(-5.0, 5.0, 25)
        est = mm.kde(x, grid=(grid,))
        whole = _gauss_kernels(grid, x, est.bandwidth[0]).mean(axis=1)
        assert np.array_equal(est.density, whole)

    @pytest.mark.parametrize("rows", [1, 8, 21, 64, 255, 256])
    def test_1d_kde_bits_do_not_depend_on_the_block(self, monkeypatch, rows):
        x = np.random.default_rng(6).standard_normal(3000)
        grid = np.linspace(-5.0, 5.0, 256)
        whole = mm.kde(x, grid=(grid,)).density
        monkeypatch.setattr(uq, "KDE_BLOCK_ELEMENTS", rows * x.size)
        assert np.array_equal(mm.kde(x, grid=(grid,)).density, whole)

def assert_same_oracles(oracle, expected):
    """Every column of two stacked oracle results agrees bit for bit."""
    assert np.array_equal(oracle.minimizer, expected.minimizer)
    for name in ("objective", "grad_norm", "hessian_min_eigenvalue"):
        assert np.array_equal(getattr(oracle, name), getattr(expected, name), equal_nan=True)
    assert np.array_equal(oracle.iterations, expected.iterations)
    assert np.array_equal(oracle.converged, expected.converged)


class TestPropagateStudy:
    def test_degenerate_box_reproduces_nominal(self, logistic):
        box = mm.ParameterBox(THETA_LOGISTIC, np.zeros(3))
        study = mm.propagate_study(logistic, box, 1, [1, 4], seed=0)
        nominal = study.nominal.minimizer
        for N in (1, 4):
            assert np.array_equal(study.finals(N), [nominal])
        assert np.array_equal(study.oracle.minimizer, [nominal])

    def test_nominal_failure_aborts(self, concave_problem):
        box = mm.ParameterBox.relative([0.5], 0.1)
        with pytest.raises(mm.NominalSolveError):
            mm.propagate_study(concave_problem, box, 3, [1], seed=0)

    def test_failures_recorded_not_fatal(self, fragile_problem):
        # half the box has theta_1 < 0 where the well inverts: marches abort,
        # oracles report non-convergence, the study itself completes
        box = mm.ParameterBox(np.array([1.0]), np.array([1.5]))
        study = mm.propagate_study(fragile_problem, box, 40, [4], seed=2)
        counts = study.failure_counts()
        assert counts["march_aborted"][4] > 0
        assert counts["newton_not_converged"] > 0
        status = study.march_status[0].tolist()
        aborted = {s for s in range(40) if status[s] != MarchStatus.COMPLETED}
        assert {status[s] for s in aborted} == {MarchStatus.ABORTED_INDEFINITE}
        assert study.valid_mask().sum() == 40 - len(
            {s for s in range(40) if not study.oracle.converged[s]} | aborted
        )

    def test_valid_mask_needs_every_march(self, fragile_problem):
        # the N = 4 march evaluates closer to the end of the line than the
        # N = 2 one, so some samples abort at N = 4 only
        box = mm.ParameterBox(np.array([1.0]), np.array([1.5]))
        study = mm.propagate_study(fragile_problem, box, 40, [2, 4], seed=2, with_oracle=False)
        completed = (study.march_status == MarchStatus.COMPLETED.value).tolist()
        assert completed[0] != completed[1]
        assert study.valid_mask().tolist() == [a and b for a, b in zip(*completed)]
        assert study.failure_counts() == {
            "march_aborted": {N: row.count(False) for N, row in zip((2, 4), completed)},
            "newton_not_converged": 0,
        }

    @pytest.mark.usefixtures("forked_blocks")
    def test_workers_do_not_change_results(self, logistic, logistic_box):
        serial = mm.propagate_study(logistic, logistic_box, 30, [1, 4], seed=9, workers=1)
        parallel = mm.propagate_study(logistic, logistic_box, 30, [1, 4], seed=9, workers=2)
        assert np.array_equal(serial.theta, parallel.theta)
        for N in (1, 4):
            assert np.array_equal(serial.finals(N), parallel.finals(N))
        assert np.array_equal(serial.oracle.minimizer, parallel.oracle.minimizer)

    @pytest.mark.usefixtures("forked_blocks")
    def test_more_workers_than_samples(self, tmp_path, logistic, logistic_box):
        # one block per sample, and the records of the serial study; the
        # split never makes more blocks than samples, so a huge worker count
        # costs what 3 workers cost
        args = (logistic, logistic_box, 3, [1, 4], 9)
        serial = mm.propagate_study(*args, workers=1)
        for workers in (4, 10**9):
            parallel = mm.propagate_study(*args, workers=workers)
            assert parallel.counters["march_blocks"] == 3
            assert rendered(parallel, tmp_path) == rendered(serial, tmp_path)
            assert_same_oracles(parallel.oracle, serial.oracle)

    @pytest.mark.usefixtures("forked_blocks")
    @pytest.mark.parametrize("name", ["logistic1d", "fragile"])
    def test_blocks_do_not_change_records(
        self, tmp_path, name, logistic, logistic_box, fragile_problem
    ):
        # one block (1 worker), 2 and 3 blocks (the caller and one or two
        # worker processes) and two hand-made partitions all give the same
        # finals, statuses and oracles; the fragile box has aborted marches
        # and unconverged oracles
        problem, box = {
            "logistic1d": (logistic, logistic_box),
            "fragile": (fragile_problem, mm.ParameterBox(np.array([1.0]), np.array([1.5]))),
        }[name]
        args = (problem, box, 37, [1, 3, 8], 4)
        serial = mm.propagate_study(*args, scheme=Scheme.HEUN, workers=1)
        assert serial.counters["march_blocks"] == 1
        if name == "fragile":
            assert serial.failure_counts()["march_aborted"][8] > 0
            assert serial.failure_counts()["newton_not_converged"] > 0
        expected = rendered(serial, tmp_path)
        rows = serial.counters["derivative_rows"]
        for workers in (2, 3):
            parallel = mm.propagate_study(*args, scheme=Scheme.HEUN, workers=workers)
            assert not multiprocessing.active_children()
            assert parallel.counters["march_blocks"] == workers
            assert rendered(parallel, tmp_path) == expected
            # each block makes one p-row call at the nominal point per step count
            shared = {**rows, "march": rows["march"] + 3 * box.p * (workers - 1)}
            assert {**parallel.counters, "march_blocks": 1} == {
                **serial.counters, "derivative_rows": shared
            }
            assert_same_oracles(parallel.oracle, serial.oracle)

        run = partial(
            _propagate_block,
            problem, box.nominal, serial.nominal.minimizer, (1, 3, 8), Scheme.HEUN, True,
            mm.NewtonConfig(),
        )
        thetas = box.sample(4, 37)
        for cut in ([0, 1, 37], [0, 20, 29, 37]):
            columns, work = _join_blocks([run(thetas[a:b]) for a, b in zip(cut[:-1], cut[1:])])
            assert rendered(replace(serial, **columns), tmp_path) == expected
            assert_same_oracles(columns["oracle"], serial.oracle)
            blocks = len(cut) - 1
            assert list(work) == [
                serial.counters["rhs_evaluations"],
                rows["march"] + 3 * box.p * (blocks - 1),
                rows["oracle"],
                rows["oracle_values"],
            ]

    @pytest.mark.parametrize("name", ["quadratic", "cubic", "logistic1d", "advdiff"])
    def test_payload_survives_pickle(
        self, name, quadratic, double_well, logistic, advdiff,
        quadratic_box, cubic_box, logistic_box, advdiff_box,
    ):
        # every worker process receives the bound block runner pickled
        problem, box = {
            "quadratic": (quadratic, quadratic_box),
            "cubic": (double_well, cubic_box),
            "logistic1d": (logistic, logistic_box),
            "advdiff": (advdiff, advdiff_box),
        }[name]
        nominal = mm.solve_nominal(problem, box)
        run = partial(
            _propagate_block,
            problem, box.nominal, nominal.minimizer, (1, 3), Scheme.HEUN, True, mm.NewtonConfig(),
        )
        thetas = box.sample(seed=2, count=1)
        a = run(thetas)
        b = pickle.loads(pickle.dumps(run))(thetas)
        b = pickle.loads(pickle.dumps(b))  # a worker's result travels back pickled too
        for column_a, column_b in zip(a[:3], b[:3], strict=True):
            assert column_a.shape[:2] == (2, 1)
            assert np.array_equal(column_a, column_b)
        assert_same_oracles(a[3], b[3])
        assert a[4] == b[4]

    @pytest.mark.usefixtures("forked_blocks")
    def test_worker_exception_is_raised_in_the_caller(self, logistic_box):
        # the caller marches block 0 fine; the two children raise
        with pytest.raises(ValueError, match="^derivatives failed in a worker$"):
            mm.propagate_study(FailsInChild(), logistic_box, 30, [1, 4], seed=9, workers=3)
        assert not multiprocessing.active_children()

    @pytest.mark.usefixtures("forked_blocks")
    def test_worker_exception_keeps_its_traceback(self, logistic_box):
        with pytest.raises(ValueError) as raised:
            mm.propagate_study(FailsInChild(), logistic_box, 30, [1, 4], seed=9, workers=2)
        text = "".join(traceback.format_exception(raised.value))
        # the child's frames, down to the line of this file that raised
        assert f'{__file__}", line' in text and ", in derivatives\n" in text
        assert 'raise ValueError("derivatives failed in a worker")' in text

    @pytest.mark.usefixtures("forked_blocks")
    def test_worker_exception_that_does_not_unpickle(self, logistic_box):
        with pytest.raises(RuntimeError, match="TwoArgError: boom$") as raised:
            mm.propagate_study(RaisesTwoArgError(), logistic_box, 30, [1, 4], seed=9, workers=2)
        assert not multiprocessing.active_children()
        text = "".join(traceback.format_exception(raised.value))
        assert 'raise TwoArgError("boom", 7)' in text

    @pytest.mark.usefixtures("forked_blocks")
    def test_worker_that_dies_names_its_exit_code(self, logistic_box):
        with pytest.raises(RuntimeError, match="exited with code 3"):
            mm.propagate_study(DiesInChild(), logistic_box, 30, [1, 4], seed=9, workers=2)
        assert not multiprocessing.active_children()

    @pytest.mark.usefixtures("forked_blocks")
    def test_interrupt_in_the_callers_block_stops_every_worker(self, logistic_box):
        with pytest.raises(KeyboardInterrupt):
            mm.propagate_study(
                InterruptedInCaller(), logistic_box, 30, [1, 4], seed=9, workers=3
            )
        assert not multiprocessing.active_children()

    @pytest.mark.usefixtures("forked_blocks")
    def test_blocks_reach_workers_pickled(self, logistic_box):
        # also under fork, where a child could inherit the problem unpickled
        problem = Unpicklable()
        with pytest.raises(TypeError, match="pickle"):
            mm.propagate_study(problem, logistic_box, 30, [1, 4], seed=9, workers=2)
        assert not multiprocessing.active_children()
        study = mm.propagate_study(problem, logistic_box, 30, [1, 4], seed=9, workers=1)
        assert study.failure_counts()["march_aborted"] == {1: 0, 4: 0}

    def test_spawned_workers_give_the_serial_records(self, tmp_path):
        src = os.path.dirname(os.path.dirname(mm.__file__))
        script = tmp_path / "spawn_study.py"
        script.write_text(SPAWN_SCRIPT)
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        samples = tmp_path / "samples-w3.csv"
        assert samples.read_bytes() == (tmp_path / "samples-w1.csv").read_bytes()

    def test_cheap_blocks_march_in_the_calling_process(self, tmp_path, logistic, logistic_box):
        # a 20-row logistic1d block marches in about a millisecond, far below
        # WORKER_MIN_BLOCK_S, so two workers make one block and no process
        args = (logistic, logistic_box, 40, [1, 2, 4, 8, 16], 7)
        serial = mm.propagate_study(*args, workers=1)
        assert set(serial.timings) == {"nominal"}
        study = mm.propagate_study(*args, workers=2)
        assert not multiprocessing.active_children()
        assert study.counters == serial.counters
        assert study.counters["march_blocks"] == 1
        assert set(study.timings) == {"nominal", "block_estimate"}
        assert 0.0 < study.timings["block_estimate"] < uq.WORKER_MIN_BLOCK_S
        assert rendered(study, tmp_path) == rendered(serial, tmp_path)
        assert_same_oracles(study.oracle, serial.oracle)

    @pytest.mark.parametrize("name", ["logistic1d", "advdiff"])
    def test_oracle_values_rows_are_counted(self, name, logistic_box, advdiff_box):
        # advdiff's line search backtracks and calls values; logistic1d's never does
        from minmarch.problems.advdiff import make_advdiff_problem

        if name == "advdiff":
            problem, box = make_advdiff_problem(), advdiff_box
        else:
            problem, box = mm.LogisticWellProblem(), logistic_box
        passed, values = [], problem.values

        def counted(M, Theta):
            passed.append(len(M))
            return values(M, Theta)

        problem.values = counted
        study = mm.propagate_study(problem, box, 20, [1], seed=3)
        rows = study.counters["derivative_rows"]["oracle_values"]
        assert rows == sum(passed)
        assert (rows > 0) == (name == "advdiff")

    def test_bad_n_list(self, logistic, logistic_box):
        with pytest.raises(ValueError):
            mm.propagate_study(logistic, logistic_box, 2, [], seed=0)
        with pytest.raises(ValueError):
            mm.propagate_study(logistic, logistic_box, 2, [0, 2], seed=0)
        with pytest.raises(ValueError, match="distinct"):
            mm.propagate_study(logistic, logistic_box, 2, [4, 4], seed=0)

    def test_bad_worker_count(self, logistic, logistic_box):
        with pytest.raises(ValueError, match="workers"):
            mm.propagate_study(logistic, logistic_box, 2, [1], seed=0, workers=0)


class TestSummaryErrors:
    def test_quadratic_study_is_exact_and_flagged_degenerate(
        self, quadratic, quadratic_box
    ):
        study = mm.propagate_study(quadratic, quadratic_box, 200, [1, 2, 4], seed=5)
        summary = mm.summary_errors(study)
        assert np.all(summary.mean.errors <= 1e-13)
        assert np.all(summary.std.errors <= 1e-13)
        assert np.all(summary.per_sample.errors <= 1e-13)
        # errors at roundoff carry no rate: slope must be flagged unavailable
        assert np.all(np.isnan(summary.mean.slopes))

    def test_logistic_study_first_order(self, logistic, logistic_box):
        study = mm.propagate_study(
            logistic, logistic_box, 800, [1, 2, 4, 8, 16], seed=5, workers=2
        )
        summary = mm.summary_errors(study)
        assert 0.8 <= summary.per_sample.slopes[0] <= 1.2
        # moment errors at N=16 are strictly smaller than at N=1
        assert summary.mean.errors[-1, 0] < summary.mean.errors[0, 0]
        assert summary.std.errors[-1, 0] < summary.std.errors[0, 0]

    def test_requires_oracle(self, logistic, logistic_box):
        study = mm.propagate_study(
            logistic, logistic_box, 40, [1], seed=5, with_oracle=False
        )
        with pytest.raises(ValueError):
            mm.summary_errors(study)

    def test_large_step_count_matches_oracle(self, logistic, logistic_box):
        study = mm.propagate_study(logistic, logistic_box, 100, [128], seed=21, workers=2)
        mask = study.valid_mask()
        assert mask.all()
        errs = np.linalg.norm(study.finals(128) - study.oracle.minimizer, axis=1)
        assert errs.max() <= 5e-3


class TestSensitivityLog:
    """Per-step right-hand sides that ``minmarch trajectory`` writes to sensitivity.csv."""

    @staticmethod
    def rhs_log(directory, problem, theta, N):
        out = directory / f"{problem}_{N}_{'_'.join(map(str, theta))}"
        theta = ",".join(str(float(v)) for v in theta)
        argv = ["trajectory", "--problem", problem, "--theta", theta, "--steps", str(N)]
        assert main(argv + ["--out", str(out)]) == 0
        with open(out / "sensitivity.csv") as fh:
            return np.array([[float(row["f_1"])] for row in csv.DictReader(fh)])

    def test_zero_direction_rows_are_zero(self, tmp_path):
        rhs = self.rhs_log(tmp_path, "logistic1d", THETA_LOGISTIC, 4)
        assert rhs.shape == (4, 1)
        np.testing.assert_array_equal(rhs, 0.0)

    def test_quadratic_rows_constant(self, tmp_path, quadratic_box):
        for theta in quadratic_box.sample(seed=8, count=3):
            dtheta1 = theta[0] - quadratic_box.nominal[0]
            rhs = self.rhs_log(tmp_path, "quadratic", theta, 4)
            assert rhs.shape == (4, 1)
            for row in rhs:
                assert row[0] == pytest.approx(dtheta1, rel=1e-13)

    def test_logistic_rows_vary_smoothly(self, tmp_path, logistic_box):
        for theta in logistic_box.sample(seed=8, count=5):
            f = self.rhs_log(tmp_path, "logistic1d", theta, 16)[:, 0]
            assert f.shape == (16,) and np.all(np.isfinite(f))
            scale = 1.0 + np.max(np.abs(f))
            assert np.max(np.abs(np.diff(f))) <= 0.3 * scale


def test_fit_loglog_slope_edge_cases():
    h = np.array([1.0, 0.5, 0.25, 0.125])
    assert mm.fit_loglog_slope(h, 0.3 * h) == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(mm.fit_loglog_slope(h, np.zeros(4)))
    assert np.isnan(mm.fit_loglog_slope(h[:2], 0.3 * h[:2]))
    with_nan = np.array([0.3, np.nan, 0.075, 0.0375])
    assert mm.fit_loglog_slope(h, with_nan) == pytest.approx(1.0, abs=1e-12)
