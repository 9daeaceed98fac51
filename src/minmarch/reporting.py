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
ROWS_PER_CHUNK = 128  # rows the writers render at once


def _csv_cells(chunk) -> list:
    """The values a column chunk's ``%`` conversions consume: fmt's text for bools.

    A list is taken as it is: the writers pass lists of floats and of text only.
    """
    if isinstance(chunk, list):
        return chunk
    chunk = np.asarray(chunk)
    return np.where(chunk, "true", "false").tolist() if chunk.dtype == bool else chunk.tolist()


def _write_csv(path, header, cells, columns):
    """Write the header, then one row per entry of the columns, ROWS_PER_CHUNK rows at a time."""
    chunks = (
        [column[a : a + ROWS_PER_CHUNK] for column in columns]
        for a in range(0, len(columns[0]), ROWS_PER_CHUNK)
    )
    _write_chunks(path, header, cells, chunks)


def _write_chunks(path, header, cells, chunks):
    """Write the header, then each chunk's rows: a chunk is a list of equal-length columns.

    ``cells`` holds one conversion per column: _FLOAT for floats, "%d" for
    integers, "%s" for text and bools, or "" for a column left empty.  Every
    cell is then ``fmt``'s text, and none needs csv quoting, so the bytes are
    those of ``csv.writer`` on ``fmt`` cells, written several times faster.
    """
    row = ",".join(cells) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for chunk in chunks:
            fh.write("".join([row % values for values in zip(*map(_csv_cells, chunk))]))


# the oracle's fields beyond oracle_m_* and oracle_converged, in SolveResult's order
_ORACLE_TAIL = {
    "objective": _FLOAT, "grad_norm": _FLOAT, "iterations": "%d", "hessian_min_eigenvalue": _FLOAT
}


def write_samples_csv(path, study: SampleStudy) -> None:
    """One row per sample; the left_basin and _ORACLE_TAIL columns follow all others."""
    d, p = study.d, study.theta.shape[1]
    header = ["sample_index"] + [f"theta_{k + 1}" for k in range(p)]
    cells = ["%d"] + [_FLOAT] * p
    columns = [np.arange(len(study.theta)), *study.theta.T]
    for N, finals, status in zip(study.N_list, study.march_finals, study.march_status):
        header += [f"N{N}_m_{j + 1}" for j in range(d)] + [f"N{N}_status"]
        cells += [_FLOAT] * d + ["%s"]
        columns += [*finals.T, status]
    header += [f"oracle_m_{j + 1}" for j in range(d)] + ["oracle_converged"]
    header += [f"N{N}_left_basin" for N in study.N_list]
    header += [f"oracle_{name}" for name in _ORACLE_TAIL]
    oracle_head, oracle_tail = [_FLOAT] * d + ["%s"], list(_ORACLE_TAIL.values())
    solve = study.oracle
    if solve is None:  # the oracle's cells are left empty
        oracle_head, oracle_tail = [""] * len(oracle_head), [""] * len(oracle_tail)
        columns += [*study.left_basin]
    else:
        columns += [*solve.minimizer.T, solve.converged, *study.left_basin]
        columns += [getattr(solve, name) for name in _ORACLE_TAIL]
    cells += oracle_head + ["%s"] * len(study.N_list) + oracle_tail
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
    """One row per grid point: x (then y), then the density; axis cells are rendered once.

    A joint density is written one x value's row of the grid at a time.
    """
    axes = [[f"{value:.17g}" for value in axis.tolist()] for axis in estimate.axes]
    header = ["x", "y"][: len(axes)] + ["density"]
    cells = ["%s"] * len(axes) + [_FLOAT]
    if len(axes) == 1:
        _write_csv(path, header, cells, [axes[0], estimate.density])
    else:
        xs, ys = axes
        rows = ([[x] * len(ys), ys, row] for x, row in zip(xs, estimate.density))
        _write_chunks(path, header, cells, rows)


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


def write_manifest(path, manifest: dict) -> None:
    """Write run metadata atomically so partial runs never leave a manifest.

    ``json_value`` converts what json cannot write itself; keys are sorted at every level.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=json_value)
        fh.write("\n")
    os.replace(tmp, path)
