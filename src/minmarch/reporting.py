"""CSV and JSON artifact writers.

Floats are written with 17 significant digits so every output round-trips
losslessly and repeated runs can be compared byte for byte.
"""

from __future__ import annotations

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


_FLOAT = "%.17g"  # fmt's rendering of every float, nan and inf included


def _write_rows(path, header, cells, rows):
    """Write a CSV file whose rows are rendered with one ``%`` format each.

    ``cells`` holds one ``%`` conversion per column: _FLOAT for floats, "%d"
    for integers, "%s" for text, or "" for a column left empty; each row is a
    tuple of the values its conversions consume.  The text of every cell is
    ``fmt``'s, and no cell needs csv quoting, so the bytes are those of
    ``csv.writer`` on ``fmt`` cells, written several times faster.
    """
    line = ",".join(cells) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_samples_csv(path, study: SampleStudy) -> None:
    d, p = study.d, study.box.p
    header = ["sample_index"] + [f"theta_{k + 1}" for k in range(p)]
    cells = ["%d"] + [_FLOAT] * p
    columns = [range(len(study.theta)), *study.theta.T.tolist()]
    for N, finals, status in zip(study.N_list, study.march_finals, study.march_status):
        header += [f"N{N}_m_{j + 1}" for j in range(d)] + [f"N{N}_status"]
        cells += [_FLOAT] * d + ["%s"]
        columns += [*finals.T.tolist(), status.tolist()]
    header += [f"oracle_m_{j + 1}" for j in range(d)] + ["oracle_converged"]
    if study.with_oracle:
        cells += [_FLOAT] * d + ["%s"]
        converged = np.where(study.oracle.converged, "true", "false")
        columns += [*study.oracle.minimizer.T.tolist(), converged.tolist()]
    else:
        cells += [""] * (d + 1)
    _write_rows(path, header, cells, zip(*columns))


def write_errors_csv(path, summary: StudyErrorSummary) -> None:
    mean = summary.mean
    d = mean.errors.shape[1]
    header = (
        ["N", "h"]
        + [f"mean_err_{j + 1}" for j in range(d)]
        + [f"std_err_{j + 1}" for j in range(d)]
        + ["per_sample_err"]
    )
    rows = zip(
        mean.N_list,
        mean.h.tolist(),
        *mean.errors.T.tolist(),
        *summary.std.errors.T.tolist(),
        summary.per_sample.errors.tolist(),
    )
    _write_rows(path, header, ["%d"] + [_FLOAT] * (2 * d + 2), rows)


def write_kde_marginal_csv(path, estimate: DensityEstimate) -> None:
    if estimate.dimension != 1:
        raise ValueError("marginal writer expects a 1-d estimate")
    rows = zip(estimate.axes[0].tolist(), estimate.density.tolist())
    _write_rows(path, ["x", "density"], [_FLOAT] * 2, rows)


def write_kde_joint_csv(path, estimate: DensityEstimate) -> None:
    if estimate.dimension != 2:
        raise ValueError("joint writer expects a 2-d estimate")
    # the bytes of _write_rows with three _FLOAT cells, with each axis cell
    # rendered once per axis value instead of once per row
    xs, ys = ([f"{value:.17g}," for value in axis.tolist()] for axis in estimate.axes)
    with open(path, "w", newline="") as fh:
        fh.write("x,y,density\n")
        for x, values_at_x in zip(xs, estimate.density.tolist()):
            fh.writelines([f"{x}{y}{value:.17g}\n" for y, value in zip(ys, values_at_x)])


def write_trajectory_csv(path, traj: Trajectory) -> None:
    d = traj.states.shape[1]
    eigs = traj.min_eigenvalues.tolist()
    eigs += [float("nan")] * (traj.times.size - len(eigs))
    rows = zip(traj.times.tolist(), *traj.states.T.tolist(), eigs)
    header = ["t"] + [f"m_{j + 1}" for j in range(d)] + ["min_eig"]
    _write_rows(path, header, [_FLOAT] * (d + 2), rows)


def write_sensitivity_csv(path, traj: Trajectory) -> None:
    """Per-step right-hand side of a march."""
    d = traj.states.shape[1]
    header = ["sample_index", "step", "t", "f_norm"] + [f"f_{j + 1}" for j in range(d)]
    rows = (
        (0, i, traj.times[i], np.linalg.norm(f), *f.tolist())
        for i, f in enumerate(traj.rhs_values)
    )
    _write_rows(path, header, ["%d", "%d"] + [_FLOAT] * (d + 2), rows)


def save_study(path, study: SampleStudy) -> None:
    # json.dumps encodes in C; json.dump's chunked encoder runs in Python
    # and writes the same bytes several times slower
    with open(path, "w") as fh:
        fh.write(json.dumps(study.to_dict()))


def load_study(path) -> SampleStudy:
    with open(path) as fh:
        return SampleStudy.from_dict(json.load(fh))


def write_manifest(path, manifest: dict) -> None:
    """Write run metadata atomically so partial runs never leave a manifest."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
