"""CSV and JSON artifact writers: the one module that renders an artifact.

Floats are written with 17 significant digits so every output round-trips
losslessly and repeated runs can be compared byte for byte.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os

import numpy as np

from .marching import Trajectory
from .uq import DensityEstimate, SampleStudy, StudyErrorSummary


def fmt(value) -> str:
    """Render one CSV cell: the text every writer below produces for it."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


def json_value(value):
    """The JSON form of value: the one converter of every JSON artifact.

    A dataclass becomes a dict of its fields in field order, each converted in
    turn; an array a list, with NaN as null; an enum member its value; else as is.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: json_value(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            value = np.where(np.isnan(value), None, value)
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    return value


_FLOAT = "%.17g"  # fmt's rendering of every float, nan and inf included
ROWS_PER_CHUNK = 512  # rows the writers render at once
# the keys of study.json before its records, in order
_HEAD_KEYS = "box seed num_samples N_list scheme with_oracle newton_config nominal".split()


def _csv_cells(chunk) -> list:
    """The values a column chunk's ``%`` conversions consume: fmt's text for bools."""
    chunk = np.asarray(chunk)
    return np.where(chunk, "true", "false").tolist() if chunk.dtype == bool else chunk.tolist()


def _json_cells(chunk) -> list[str]:
    """json.dumps's text of each entry of a column chunk; no entry's text may hold ", "."""
    return json.dumps(chunk.tolist())[1:-1].split(", ")


def _write_rows(path, head, row, columns, render=_csv_cells, sep="", tail=""):
    """Write head, then ``row % cells`` for each row with sep between rows, then tail.

    Each column holds one entry per row, and ``render`` turns ROWS_PER_CHUNK
    rows of a column at a time into the values ``row`` consumes.  A CSV row
    has one conversion per column: _FLOAT for floats, "%d" for integers,
    "%s" for text and bools, or "" for a column left empty.  Every cell is
    then ``fmt``'s text, and none needs csv quoting, so the bytes are those
    of ``csv.writer`` on ``fmt`` cells, written several times faster.
    """
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for a in range(0, len(columns[0]), ROWS_PER_CHUNK):
            cells = [render(column[a : a + ROWS_PER_CHUNK]) for column in columns]
            fh.write((sep if a else "") + sep.join([row % values for values in zip(*cells)]))
        fh.write(tail)


def _write_csv(path, header, cells, columns):
    _write_rows(path, ",".join(header) + "\n", ",".join(cells) + "\n", columns)


def write_samples_csv(path, study: SampleStudy) -> None:
    d, p = study.d, study.box.p
    header = ["sample_index"] + [f"theta_{k + 1}" for k in range(p)]
    cells = ["%d"] + [_FLOAT] * p
    columns = [np.arange(len(study.theta)), *study.theta.T]
    for N, finals, status in zip(study.N_list, study.march_finals, study.march_status):
        header += [f"N{N}_m_{j + 1}" for j in range(d)] + [f"N{N}_status"]
        cells += [_FLOAT] * d + ["%s"]
        columns += [*finals.T, status]
    header += [f"oracle_m_{j + 1}" for j in range(d)] + ["oracle_converged"]
    if study.with_oracle:
        cells += [_FLOAT] * d + ["%s"]
        columns += [*study.oracle.minimizer.T, study.oracle.converged]
    else:
        cells += [""] * (d + 1)
    _write_csv(path, header, cells, columns)


def write_errors_csv(path, summary: StudyErrorSummary) -> None:
    mean = summary.mean
    d = mean.errors.shape[1]
    header = (
        ["N", "h"]
        + [f"mean_err_{j + 1}" for j in range(d)]
        + [f"std_err_{j + 1}" for j in range(d)]
        + ["per_sample_err"]
    )
    errors = [*mean.errors.T, *summary.std.errors.T, summary.per_sample.errors]
    _write_csv(path, header, ["%d"] + [_FLOAT] * (2 * d + 2), [mean.N_list, mean.h, *errors])


def write_kde_csv(path, estimate: DensityEstimate) -> None:
    """One row per grid point: x (then y), then the density; axis cells are rendered once."""
    axes = [np.array([f"{value:.17g}" for value in axis.tolist()]) for axis in estimate.axes]
    if len(axes) == 2:
        axes = [np.repeat(axes[0], axes[1].size), np.tile(axes[1], axes[0].size)]
    header = ["x", "y"][: len(axes)] + ["density"]
    _write_csv(path, header, ["%s"] * len(axes) + [_FLOAT], [*axes, estimate.density.ravel()])


def write_trajectory_csv(path, traj: Trajectory) -> None:
    d = traj.states.shape[1]
    eigs = traj.min_eigenvalues.tolist()
    eigs += [float("nan")] * (traj.times.size - len(eigs))
    header = ["t"] + [f"m_{j + 1}" for j in range(d)] + ["min_eig"]
    _write_csv(path, header, [_FLOAT] * (d + 2), [traj.times, *traj.states.T, eigs])


def write_sensitivity_csv(path, traj: Trajectory, rhs) -> None:
    """Per-step right-hand side of a march: row n of rhs (n, d) is step n's."""
    n, d = rhs.shape
    header = ["sample_index", "step", "t", "f_norm"] + [f"f_{j + 1}" for j in range(d)]
    columns = [np.zeros(n, int), np.arange(n), traj.times[:n], [np.linalg.norm(f) for f in rhs]]
    _write_csv(path, header, ["%d", "%d"] + [_FLOAT] * (d + 2), [*columns, *rhs.T])


def _json_object(fields) -> tuple[str, list]:
    """A ``%`` template of one JSON object per row, and the columns that fill it.

    ``fields`` are (key, value) pairs.  A value is a column, a 2-d array (a
    list per row) or the (template, columns) pair of a nested object.
    """
    parts, columns = [], []
    for key, value in fields:
        if isinstance(value, tuple):
            template, value_columns = value
        elif value.ndim == 2:
            template, value_columns = "[" + ", ".join(["%s"] * value.shape[1]) + "]", list(value.T)
        else:
            template, value_columns = "%s", [value]
        parts.append(f"{json.dumps(key)}: {template}")
        columns += value_columns
    return "{" + ", ".join(parts) + "}", columns


def save_study(path, study: SampleStudy) -> None:
    """Write study.json a chunk of records at a time: json.dumps's bytes of it as one dict."""
    by_N = zip(study.N_list, study.march_finals, study.march_status, study.left_basin)
    outcomes = _json_object(
        (str(N), _json_object([("final_state", finals), ("status", status), ("left_basin", left)]))
        for N, finals, status, left in by_N
    )
    oracle = ("null", [])
    if study.with_oracle:
        solve = study.oracle
        oracle = _json_object((f.name, getattr(solve, f.name)) for f in dataclasses.fields(solve))
    index = np.arange(len(study.theta))
    fields = [("index", index), ("theta", study.theta), ("outcomes", outcomes), ("oracle", oracle)]
    record, columns = _json_object(fields)
    head = {key: getattr(study, key) for key in _HEAD_KEYS} | {"records": []}
    # the head goes through json_value, in field order; the records through _write_rows
    head = json.dumps(head, default=json_value)
    _write_rows(path, head[:-2], record, columns, _json_cells, ", ", "]}")


def write_manifest(path, manifest: dict) -> None:
    """Write run metadata atomically so partial runs never leave a manifest.

    ``json_value`` converts what json cannot write itself; keys are sorted at every level.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=json_value)
        fh.write("\n")
    os.replace(tmp, path)
