import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import minmarch as mm
from minmarch import reporting
from minmarch.uq import DensityEstimate

from conftest import THETA_LOGISTIC, march_one, rendered


def read_header(path):
    with open(path) as fh:
        return next(csv.reader(fh))


def test_float_format_roundtrips():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1e6, 1e6, 50):
        assert float(reporting.fmt(x)) == x
    assert float(reporting.fmt(0.1)) == 0.1
    assert reporting.fmt(True) == "true"
    assert reporting.fmt(False) == "false"
    assert reporting.fmt(None) == ""
    assert reporting.fmt(3) == "3"


@pytest.fixture(scope="module")
def small_study(logistic, logistic_box):
    return mm.propagate_study(logistic, logistic_box, 40, [1, 2], seed=3)


SAMPLES_HEADER = [
    "sample_index",
    "theta_1",
    "theta_2",
    "theta_3",
    "N1_m_1",
    "N1_status",
    "N2_m_1",
    "N2_status",
    "oracle_m_1",
    "oracle_converged",
    "N1_left_basin",
    "N2_left_basin",
    "oracle_objective",
    "oracle_grad_norm",
    "oracle_iterations",
    "oracle_hessian_min_eigenvalue",
]


def test_samples_csv_schema(tmp_path, small_study, no_oracle_study):
    path = tmp_path / "samples.csv"
    left_basin = small_study.left_basin.copy()
    left_basin[1, 7] = True  # no march of the study leaves the basin
    reporting.write_samples_csv(path, replace(small_study, left_basin=left_basin))
    assert read_header(path) == SAMPLES_HEADER
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert rows[0]["N1_status"] == "completed"
    assert rows[0]["oracle_converged"] == "true"
    assert [rows[7]["N1_left_basin"], rows[7]["N2_left_basin"]] == ["false", "true"]
    assert int(rows[0]["oracle_iterations"]) == small_study.oracle.iterations[0] > 0
    # values round-trip to the study's floats exactly
    assert float(rows[7]["theta_2"]) == small_study.theta[7, 1]
    assert float(rows[7]["oracle_objective"]) == small_study.oracle.objective[7]

    reporting.write_samples_csv(path, no_oracle_study)
    assert read_header(path) == SAMPLES_HEADER
    with open(path) as fh:
        row = next(csv.DictReader(fh))
    assert row["N1_left_basin"] == "false"
    assert [row[name] for name in SAMPLES_HEADER if name.startswith("oracle_")] == [""] * 6


def test_errors_csv_schema(tmp_path, small_study):
    path = tmp_path / "errors.csv"
    reporting.write_errors_csv(path, mm.summary_errors(small_study))
    assert read_header(path) == ["N", "h", "mean_err_1", "std_err_1", "per_sample_err"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["N"] for r in rows] == ["1", "2"]
    assert float(rows[0]["h"]) == 1.0


def test_kde_csv_schemas(tmp_path):
    rng = np.random.default_rng(1)
    est1 = mm.kde(rng.standard_normal(200))
    path1 = tmp_path / "kde_marginal_1.csv"
    reporting.write_kde_csv(path1, est1)
    assert read_header(path1) == ["x", "density"]

    axis = np.linspace(-4.0, 4.0, 21)
    est2 = mm.kde(rng.standard_normal((200, 2)), grid=(axis, axis))
    path2 = tmp_path / "kde_joint.csv"
    reporting.write_kde_csv(path2, est2)
    assert read_header(path2) == ["x", "y", "density"]
    with open(path2) as fh:
        assert sum(1 for _ in fh) == 1 + 21 * 21


def write_fmt_rows(path, header, rows):
    """Reference CSV writer: fmt on every cell, joined with commas."""
    with open(path, "w", newline="") as fh:
        for row in [header, *rows]:
            fh.write(",".join(reporting.fmt(v) for v in row) + "\n")


def test_kde_writers_match_the_general_row_writer(tmp_path):
    """The one-format-per-row writer writes the bytes of fmt on every cell."""
    rng = np.random.default_rng(4)
    xs, ys = rng.normal(size=7), rng.normal(size=5)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-310, 0.1]
    density = rng.uniform(0.0, 1.0, (7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    density.flat[: len(special)] = special
    joint = DensityEstimate(2, (xs, ys), density, np.ones(2))
    marginal = DensityEstimate(1, (xs,), density[:, 0], np.ones(1))

    reporting.write_kde_csv(tmp_path / "joint.csv", joint)
    write_fmt_rows(
        tmp_path / "joint_ref.csv",
        ["x", "y", "density"],
        ((xs[i], ys[j], density[i, j]) for i in range(7) for j in range(5)),
    )
    reporting.write_kde_csv(tmp_path / "marginal.csv", marginal)
    write_fmt_rows(tmp_path / "marginal_ref.csv", ["x", "density"], zip(xs, density[:, 0]))
    for name in ("joint", "marginal"):
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}_ref.csv").read_bytes()
        assert b",nan\n" in written
    assert b",-inf\n" in (tmp_path / "joint.csv").read_bytes()


# the SolveResult fields that follow the left_basin columns, in field order
ORACLE_TAIL = ["objective", "grad_norm", "iterations", "hessian_min_eigenvalue"]


def samples_rows(study):
    """The samples.csv header and rows, one fmt cell per value."""
    d, p = study.d, study.theta.shape[1]
    header = ["sample_index"] + [f"theta_{k + 1}" for k in range(p)]
    for N in study.N_list:
        header += [f"N{N}_m_{j + 1}" for j in range(d)] + [f"N{N}_status"]
    header += [f"oracle_m_{j + 1}" for j in range(d)] + ["oracle_converged"]
    header += [f"N{N}_left_basin" for N in study.N_list]
    header += [f"oracle_{name}" for name in ORACLE_TAIL]
    rows = []
    for s in range(len(study.theta)):
        row = [s, *study.theta[s]]
        for finals, status in zip(study.march_finals, study.march_status):
            row += [*finals[s], status[s]]
        oracle = study.oracle
        head = [*oracle.minimizer[s], oracle.converged[s]] if oracle else [None] * (d + 1)
        tail = [getattr(oracle, name)[s] for name in ORACLE_TAIL] if oracle else [None] * 4
        rows.append(row + head + [left[s] for left in study.left_basin] + tail)
    return header, rows


@pytest.fixture(scope="module")
def no_oracle_study(logistic, logistic_box):
    return mm.propagate_study(logistic, logistic_box, 40, [1, 2], seed=3, with_oracle=False)


@pytest.fixture
def fragile_study(fragile_problem):
    # half the box inverts the well: aborted marches and unconverged oracles
    box = mm.ParameterBox(np.array([1.0]), np.array([1.5]))
    return mm.propagate_study(fragile_problem, box, 40, [2, 4], seed=2)


def nonfinite_oracle(study):
    """study with NaN and infinite oracle objectives and gradient norms."""
    objective, grad_norm = study.oracle.objective.copy(), study.oracle.grad_norm.copy()
    objective[[0, 3, 5]] = [np.nan, np.inf, -np.inf]
    grad_norm[[1, 3]] = [np.inf, np.nan]
    return replace(study, oracle=replace(study.oracle, objective=objective, grad_norm=grad_norm))


@pytest.mark.parametrize(
    "case",
    ["nonfinite_oracle", "fragile", "no_oracle", "one_sample", "chunk_plus_one", "chunks_plus_one"],
)
def test_streamed_outputs_equal_one_shot_renderings(
    tmp_path, request, logistic, logistic_box, case
):
    """samples.csv holds fmt of every cell of the study.

    small_study (40 samples) is below one chunk of rows; chunk_plus_one
    leaves one row for a second chunk, chunks_plus_one for a third.
    """
    if case == "nonfinite_oracle":
        study = nonfinite_oracle(request.getfixturevalue("small_study"))
    elif case in ("fragile", "no_oracle"):
        study = request.getfixturevalue(f"{case}_study")
        if case == "fragile":
            counts = study.failure_counts()
            assert counts["march_aborted"][4] > 0 and counts["newton_not_converged"] > 0
    else:
        chunks = {"one_sample": 0, "chunk_plus_one": 1, "chunks_plus_one": 2}[case]
        S = chunks * reporting.ROWS_PER_CHUNK + 1
        study = mm.propagate_study(logistic, logistic_box, S, [1, 2], seed=3)
    csv_lines = rendered(study, tmp_path)
    write_fmt_rows(tmp_path / "samples_ref.csv", *samples_rows(study))
    assert csv_lines == (tmp_path / "samples_ref.csv").read_text().splitlines(keepends=True)
    if case == "nonfinite_oracle":
        rows = list(csv.DictReader(csv_lines))
        for name in ("objective", "grad_norm"):
            cells = [row[f"oracle_{name}"] for row in rows]
            assert {"nan", "inf"} <= set(cells)
            parsed = np.array([float(cell) for cell in cells])
            assert np.array_equal(parsed, getattr(study.oracle, name), equal_nan=True)
        assert rows[5]["oracle_objective"] == "-inf"


def test_output_phase_memory_does_not_grow_with_the_samples(tmp_path, logistic, logistic_box):
    """A 20000-sample 1-d kde and samples.csv each trace under 4 MB.

    One (256, 20000) kernel matrix alone is 41 MB.
    """
    study = mm.propagate_study(logistic, logistic_box, 20000, [1, 2, 4, 8, 16], seed=7)
    column = study.finals(16)[:, 0]
    grid = np.linspace(column.min(), column.max(), 256)
    steps = {
        "kde": lambda: mm.kde(column, grid=(grid,)),
        "samples.csv": lambda: reporting.write_samples_csv(tmp_path / "samples.csv", study),
    }
    for name, step in steps.items():
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, (name, peak)


def test_trajectory_csv_schema(tmp_path, logistic, logistic_box):
    nominal = mm.solve_nominal(logistic, logistic_box)
    end = np.array([1.2, 2.8, 0.12])
    traj = march_one(logistic, nominal.minimizer, THETA_LOGISTIC, end, 5).trajectory(0)
    path = tmp_path / "trajectory.csv"
    reporting.write_trajectory_csv(path, traj)
    assert read_header(path) == ["t", "m_1", "min_eig"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert float(rows[0]["t"]) == 0.0 and float(rows[-1]["t"]) == 1.0
    assert rows[-1]["min_eig"] == "nan"  # no step starts at t = 1


def test_sensitivity_csv_schema(tmp_path, logistic, logistic_box):
    nominal = mm.solve_nominal(logistic, logistic_box)
    end = np.array([1.2, 2.8, 0.12])
    traj = march_one(logistic, nominal.minimizer, THETA_LOGISTIC, end, 3).trajectory(0)
    path = tmp_path / "sensitivity.csv"
    reporting.write_sensitivity_csv(path, traj, np.array([[-3.0], [0.5], [0.25]]))
    assert read_header(path) == ["sample_index", "step", "t", "f_norm", "f_1"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["step"], r["t"], r["f_norm"], r["f_1"]) for r in rows] == [
        ("0", "0", "3", "-3"),
        ("1", "0.33333333333333331", "0.5", "0.5"),
        ("2", "0.66666666666666663", "0.25", "0.25"),
    ]


def test_manifest_written_atomically(tmp_path):
    path = tmp_path / "manifest.json"
    reporting.write_manifest(path, {"b": 1.5, "a": [1, 2]})
    with open(path) as fh:
        assert json.load(fh) == {"a": [1, 2], "b": 1.5}
    assert not (tmp_path / "manifest.json.tmp").exists()
