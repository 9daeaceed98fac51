import csv
import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import minmarch as mm
from minmarch import reporting
from minmarch.newton import to_json_dict

from conftest import THETA_LOGISTIC, march_one, records, rendered


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


def test_samples_csv_schema(tmp_path, small_study):
    path = tmp_path / "samples.csv"
    reporting.write_samples_csv(path, small_study)
    assert read_header(path) == [
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
    ]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert rows[0]["N1_status"] == "completed"
    assert rows[0]["oracle_converged"] == "true"
    # values round-trip to the study's floats exactly
    assert float(rows[7]["theta_2"]) == small_study.theta[7, 1]


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
    reporting.write_kde_marginal_csv(path1, est1)
    assert read_header(path1) == ["x", "density"]

    axis = np.linspace(-4.0, 4.0, 21)
    est2 = mm.kde(rng.standard_normal((200, 2)), grid=(axis, axis))
    path2 = tmp_path / "kde_joint.csv"
    reporting.write_kde_joint_csv(path2, est2)
    assert read_header(path2) == ["x", "y", "density"]
    with open(path2) as fh:
        assert sum(1 for _ in fh) == 1 + 21 * 21

    with pytest.raises(ValueError):
        reporting.write_kde_marginal_csv(tmp_path / "x.csv", est2)
    with pytest.raises(ValueError):
        reporting.write_kde_joint_csv(tmp_path / "x.csv", est1)


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
    joint = mm.DensityEstimate(2, (xs, ys), density, np.ones(2))
    marginal = mm.DensityEstimate(1, (xs,), density[:, 0], np.ones(1))

    reporting.write_kde_joint_csv(tmp_path / "joint.csv", joint)
    write_fmt_rows(
        tmp_path / "joint_ref.csv",
        ["x", "y", "density"],
        ((xs[i], ys[j], density[i, j]) for i in range(7) for j in range(5)),
    )
    reporting.write_kde_marginal_csv(tmp_path / "marginal.csv", marginal)
    write_fmt_rows(tmp_path / "marginal_ref.csv", ["x", "density"], zip(xs, density[:, 0]))
    for name in ("joint", "marginal"):
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}_ref.csv").read_bytes()
        assert b",nan\n" in written
    assert b",-inf\n" in (tmp_path / "joint.csv").read_bytes()


def study_layout(study):
    """The study.json layout built as one dict tree: the reference for save_study."""
    columns = (study.march_finals, study.march_status, study.left_basin)
    by_N = list(zip(map(str, study.N_list), *(c.tolist() for c in columns)))
    if study.with_oracle:
        names = [f.name for f in fields(mm.SolveResult) if f.name != "history"]
        solves = zip(*(getattr(study.oracle, name).tolist() for name in names))
        oracles = [dict(zip(names, solve)) for solve in solves]
    else:
        oracles = [None] * len(study.theta)
    return {
        "box": to_json_dict(study.box),
        "seed": study.seed,
        "num_samples": study.num_samples,
        "N_list": [int(N) for N in study.N_list],
        "scheme": study.scheme.value,
        "with_oracle": study.with_oracle,
        "newton_config": to_json_dict(study.newton_config),
        "nominal": to_json_dict(study.nominal),
        "records": [
            {
                "index": s,
                "theta": theta,
                "outcomes": {
                    key: {"final_state": finals[s], "status": status[s], "left_basin": left[s]}
                    for key, finals, status, left in by_N
                },
                "oracle": oracle,
            }
            for s, (theta, oracle) in enumerate(zip(study.theta.tolist(), oracles))
        ],
    }


def samples_rows(study):
    """The samples.csv header and rows, one fmt cell per value."""
    d, p = study.d, study.box.p
    header = ["sample_index"] + [f"theta_{k + 1}" for k in range(p)]
    for N in study.N_list:
        header += [f"N{N}_m_{j + 1}" for j in range(d)] + [f"N{N}_status"]
    header += [f"oracle_m_{j + 1}" for j in range(d)] + ["oracle_converged"]
    rows = []
    for s in range(len(study.theta)):
        row = [s, *study.theta[s]]
        for finals, status in zip(study.march_finals, study.march_status):
            row += [*finals[s], status[s]]
        if study.with_oracle:
            row += [*study.oracle.minimizer[s], study.oracle.converged[s]]
        else:
            row += [None] * (d + 1)
        rows.append(row)
    return header, rows


@pytest.fixture(scope="module")
def no_oracle_study(logistic, logistic_box):
    return mm.propagate_study(logistic, logistic_box, 40, [1, 2], seed=3, with_oracle=False)


@pytest.fixture
def fragile_study(fragile_problem):
    # half the box inverts the well: aborted marches and unconverged oracles
    box = mm.ParameterBox(np.array([1.0]), np.array([1.5]))
    return mm.propagate_study(fragile_problem, box, 40, [2, 4], seed=2)


@pytest.mark.parametrize(
    "fixture",
    ["small_study", "no_oracle_study", "fragile_study"],
    ids=["oracle", "no_oracle", "fragile"],
)
def test_study_json_round_trips(tmp_path, request, fixture):
    """study.json holds json.dumps's bytes of the study's layout."""
    study = request.getfixturevalue(fixture)
    if fixture == "fragile_study":
        counts = study.failure_counts()
        assert counts["march_aborted"][4] > 0 and counts["newton_not_converged"] > 0
    reporting.save_study(tmp_path / "study.json", study)
    with open(tmp_path / "study.json") as fh:
        assert records(fh.read()) == records(json.dumps(study_layout(study)))


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
    """save_study writes json.dumps of the whole layout, samples.csv fmt of every cell.

    small_study (40 samples) is below one chunk of rows; chunk_plus_one
    leaves one row for a second chunk, chunks_plus_one for a third.
    """
    if case == "nonfinite_oracle":
        study = nonfinite_oracle(request.getfixturevalue("small_study"))
    elif case in ("fragile", "no_oracle"):
        study = request.getfixturevalue(f"{case}_study")
    else:
        chunks = {"one_sample": 0, "chunk_plus_one": 1, "chunks_plus_one": 2}[case]
        S = chunks * reporting.ROWS_PER_CHUNK + 1
        study = mm.propagate_study(logistic, logistic_box, S, [1, 2], seed=3)
    json_records, csv_lines = rendered(study, tmp_path)
    assert json_records == records(json.dumps(study_layout(study)))
    write_fmt_rows(tmp_path / "samples_ref.csv", *samples_rows(study))
    assert csv_lines == (tmp_path / "samples_ref.csv").read_text().splitlines(keepends=True)
    if case == "nonfinite_oracle":
        json_text = "".join(json_records)
        assert '"objective": NaN' in json_text and '"grad_norm": Infinity' in json_text
        assert '"objective": -Infinity' in json_text


def test_output_phase_memory_does_not_grow_with_the_samples(tmp_path, logistic, logistic_box):
    """A 20000-sample 1-d kde, samples.csv and study.json each trace under 4 MB.

    One (256, 20000) kernel matrix alone is 41 MB.
    """
    study = mm.propagate_study(logistic, logistic_box, 20000, [1, 2, 4, 8, 16], seed=7)
    column = study.finals(16)[:, 0]
    grid = np.linspace(column.min(), column.max(), 256)
    steps = {
        "kde": lambda: mm.kde(column, grid=(grid,)),
        "samples.csv": lambda: reporting.write_samples_csv(tmp_path / "samples.csv", study),
        "study.json": lambda: reporting.save_study(tmp_path / "study.json", study),
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
