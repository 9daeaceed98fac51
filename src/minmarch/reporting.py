"""CSV and JSON artifact writers.

Floats are written with 17 significant digits so every output round-trips
losslessly and repeated runs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .marching import Trajectory
from .uq import DensityEstimate, SampleStudy, StudyErrorSummary


def fmt(value) -> str:
    """Render one CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _write_float_rows(path, header, rows):
    """``_write_rows`` for rows of Python floats only, one ``%`` format per row.

    ``"%.17g" % x`` is ``fmt(x)`` for every float, nan and inf included, so
    the bytes are the same; skipping the per-cell calls and csv.writer makes
    a density grid several times faster to write.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def samples_header(p: int, d: int, N_list) -> list[str]:
    header = ["sample_index"] + [f"theta_{k + 1}" for k in range(p)]
    for N in N_list:
        header += [f"N{N}_m_{j + 1}" for j in range(d)] + [f"N{N}_status"]
    header += [f"oracle_m_{j + 1}" for j in range(d)] + ["oracle_converged"]
    return header


def write_samples_csv(path, study: SampleStudy) -> None:
    d = study.d
    p = study.box.p
    rows = []
    for rec in study.records:
        row: list = [rec.index] + list(rec.theta)
        for N in study.N_list:
            out = rec.outcomes[N]
            row += list(out.final_state) + [out.status.value]
        if rec.oracle is not None:
            row += list(rec.oracle.minimizer) + [rec.oracle.converged]
        else:
            row += [None] * d + [None]
        rows.append(row)
    _write_rows(path, samples_header(p, d, study.N_list), rows)


def errors_header(d: int) -> list[str]:
    return (
        ["N", "h"]
        + [f"mean_err_{j + 1}" for j in range(d)]
        + [f"std_err_{j + 1}" for j in range(d)]
        + ["per_sample_err"]
    )


def write_errors_csv(path, summary: StudyErrorSummary) -> None:
    mean = summary.mean
    d = mean.errors.shape[1]
    rows = []
    for i, N in enumerate(mean.N_list):
        rows.append(
            [N, mean.h[i]]
            + list(mean.errors[i])
            + list(summary.std.errors[i])
            + [summary.per_sample.errors[i]]
        )
    _write_rows(path, errors_header(d), rows)


def write_kde_marginal_csv(path, estimate: DensityEstimate) -> None:
    if estimate.dimension != 1:
        raise ValueError("marginal writer expects a 1-d estimate")
    _write_float_rows(
        path,
        ["x", "density"],
        zip(estimate.axes[0].tolist(), estimate.density.tolist()),
    )


def write_kde_joint_csv(path, estimate: DensityEstimate) -> None:
    if estimate.dimension != 2:
        raise ValueError("joint writer expects a 2-d estimate")
    xs, ys = (axis.tolist() for axis in estimate.axes)
    rows = (
        (x, y, value)
        for x, values_at_x in zip(xs, estimate.density.tolist())
        for y, value in zip(ys, values_at_x)
    )
    _write_float_rows(path, ["x", "y", "density"], rows)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    d = traj.states.shape[1]
    rows = []
    for i, t in enumerate(traj.times):
        eig = traj.min_eigenvalues[i] if i < traj.min_eigenvalues.size else float("nan")
        rows.append([t] + list(traj.states[i]) + [eig])
    _write_rows(path, ["t"] + [f"m_{j + 1}" for j in range(d)] + ["min_eig"], rows)


def write_sensitivity_csv(path, traj: Trajectory) -> None:
    """Per-step right-hand side of a march recorded with record_trajectory."""
    d = traj.states.shape[1]
    header = ["sample_index", "step", "t", "f_norm"] + [f"f_{j + 1}" for j in range(d)]
    rhs = traj.rhs_values if traj.rhs_values is not None else []
    _write_rows(
        path,
        header,
        ([0, i, traj.times[i], float(np.linalg.norm(f))] + list(f) for i, f in enumerate(rhs)),
    )


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
