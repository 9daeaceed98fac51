"""Command-line front end: derivative checks, propagation studies, single marches.

``minmarch study --problem logistic1d`` runs the full pipeline with the
built-in defaults (nominal solve, per-sample marching, Newton oracle,
convergence statistics, density estimates) and writes plot-ready CSV files
plus a JSON manifest.  Plotting itself is out of process.
"""

from __future__ import annotations

import argparse
import copy
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .derivatives import check_derivatives
from .exceptions import ConfigError, DegenerateBandwidthError, MinmarchError
from .marching import MarchConfig, Scheme, march
from .newton import solve_nominal, to_json_dict
from .problems import (
    DoubleWellProblem,
    LogisticWellProblem,
    ParameterBox,
    QuadraticProblem,
)
from .reporting import (
    save_study,
    write_errors_csv,
    write_kde_joint_csv,
    write_kde_marginal_csv,
    write_manifest,
    write_samples_csv,
    write_sensitivity_csv,
    write_trajectory_csv,
)
from .sensitivity import ParameterLine
from .uq import KDE_PADDING, SampleStudy, kde, propagate_study, silverman_bandwidth, summary_errors

PROBLEM_NAMES = ("quadratic", "cubic", "logistic1d", "advdiff")

# experiment defaults per problem; study runs need no flags beyond the name
_DEFAULTS: dict[str, dict] = {
    "quadratic": {
        "box": {"nominal": [0.4], "relative": 0.40},
        "num_samples": 5000,
        "N_list": [1, 2, 4, 8, 16],
        "problem_options": {},
    },
    "cubic": {
        "box": {"nominal": [0.3, 0.75], "half_widths": [0.1, 0.1]},
        "num_samples": 5000,
        "N_list": [1, 2, 4, 8, 16],
        "problem_options": {},
    },
    "logistic1d": {
        "box": {"nominal": [1.0, 3.0, 0.1], "relative": 0.40},
        "num_samples": 5000,
        "N_list": [1, 2, 4, 8, 16],
        "problem_options": {},
    },
    "advdiff": {
        "box": {"nominal": [10.0, 0.05, 1.0], "relative": 0.20},
        "num_samples": 5000,
        "N_list": [1, 6, 12, 20],
        "problem_options": {
            "grid_cells": 200,
            "beta": 1e-3,
            "m_true": [0.05, 0.4],
            "m_prior": [0.06, 0.32],
            "noise_std": 0.0,
            "noise_seed": 0,
        },
    },
}

_BOX_KEYS = {"nominal", "relative", "half_widths"}
_ADVDIFF_OPTION_KEYS = {"grid_cells", "beta", "m_true", "m_prior", "noise_std", "noise_seed"}

# derivative-check pass thresholds
CHECK_TOLERANCES = {
    "quadratic": 1e-7,
    "cubic": 1e-6,
    "logistic1d": 1e-6,
    "advdiff": 1e-6,
}


@dataclass
class RunConfig:
    problem: str
    box: ParameterBox
    num_samples: int
    seed: int
    N_list: list[int]
    scheme: Scheme
    with_oracle: bool
    workers: int
    output_dir: str
    fd_step: float
    problem_options: dict


# the config file keys, which the command-line flags store their values under
_TOP_KEYS = {f.name for f in fields(RunConfig)}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path!r} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def _reject_unknown(given: dict, allowed: set, where: str) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")


def _integer(value, key: str) -> int:
    """An integer config value as int; a bool, float or string is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """A real-number config value as float; a bool or string is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def resolve_config(file_cfg: dict | None, overrides: dict) -> RunConfig:
    """Merge defaults <- config file <- command-line flags, validating strictly."""
    file_cfg = copy.deepcopy(file_cfg) if file_cfg else {}
    _reject_unknown(file_cfg, _TOP_KEYS, "config")

    problem = overrides.get("problem") or file_cfg.get("problem")
    if problem is None:
        raise ConfigError("no problem selected; pass --problem or set it in the config file")
    if problem not in PROBLEM_NAMES:
        raise ConfigError(
            f"unknown problem {problem!r}; choose from {', '.join(PROBLEM_NAMES)}"
        )

    merged = copy.deepcopy(_DEFAULTS[problem])
    merged.setdefault("seed", 7)
    merged.setdefault("scheme", "euler")
    merged.setdefault("with_oracle", True)
    merged.setdefault("workers", os.cpu_count() or 1)
    merged.setdefault("output_dir", f"out_{problem}")
    merged.setdefault("fd_step", 1e-6)
    for key, value in file_cfg.items():
        if key == "problem":
            continue
        if key in ("problem_options", "box") and not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        if key == "problem_options":
            _reject_unknown(
                value,
                _ADVDIFF_OPTION_KEYS if problem == "advdiff" else set(),
                f"problem_options ({problem})",
            )
            merged["problem_options"].update(value)
        elif key == "box":
            _reject_unknown(value, _BOX_KEYS, "box")
            merged["box"] = value
        else:
            merged[key] = value
    for key, value in overrides.items():
        if key != "problem" and value is not None:
            merged[key] = value

    box_cfg = merged["box"]
    if "nominal" not in box_cfg:
        raise ConfigError("box requires a nominal parameter vector")
    has_rel = "relative" in box_cfg
    has_hw = "half_widths" in box_cfg
    if has_rel == has_hw:
        raise ConfigError("box requires exactly one of 'relative' or 'half_widths'")
    try:
        if has_rel:
            box = ParameterBox.relative(box_cfg["nominal"], box_cfg["relative"])
        else:
            box = ParameterBox(
                np.asarray(box_cfg["nominal"], dtype=float),
                np.asarray(box_cfg["half_widths"], dtype=float),
            )
    except ValueError as err:
        raise ConfigError(f"invalid box: {err}") from err

    num_samples, seed, workers = (
        _integer(merged[key], key) for key in ("num_samples", "seed", "workers")
    )
    if num_samples < 1:
        raise ConfigError("num_samples must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    if not isinstance(merged["N_list"], (list, tuple)):
        raise ConfigError(f"N_list must be a list of integers, got {merged['N_list']!r}")
    N_list = [_integer(N, "N_list entry") for N in merged["N_list"]]
    if not N_list or any(N < 1 for N in N_list):
        raise ConfigError("N_list must contain positive integers")
    try:
        scheme = Scheme(merged["scheme"])
    except ValueError as err:
        raise ConfigError(
            f"unknown scheme {merged['scheme']!r}; choose from "
            f"{', '.join(s.value for s in Scheme)}"
        ) from err
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if not isinstance(merged["with_oracle"], bool):
        raise ConfigError(f"with_oracle must be true or false, got {merged['with_oracle']!r}")
    fd_step = _real(merged["fd_step"], "fd_step")
    if not fd_step > 0:
        raise ConfigError("fd_step must be positive")
    output_dir = merged["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {output_dir!r}")

    return RunConfig(
        problem=problem,
        box=box,
        num_samples=num_samples,
        seed=seed,
        N_list=N_list,
        scheme=scheme,
        with_oracle=merged["with_oracle"],
        workers=workers,
        output_dir=output_dir,
        fd_step=fd_step,
        problem_options=merged["problem_options"],
    )


def build_problem(cfg: RunConfig):
    if cfg.problem == "quadratic":
        return QuadraticProblem()
    if cfg.problem == "cubic":
        return DoubleWellProblem()
    if cfg.problem == "logistic1d":
        return LogisticWellProblem()
    from .problems.advdiff import make_advdiff_problem

    opts = cfg.problem_options
    return make_advdiff_problem(
        grid_cells=_integer(opts["grid_cells"], "problem_options.grid_cells"),
        m_true=opts["m_true"],
        theta_data=cfg.box.nominal,
        beta=_real(opts["beta"], "problem_options.beta"),
        m_prior=opts["m_prior"],
        noise_std=_real(opts["noise_std"], "problem_options.noise_std"),
        noise_seed=_integer(opts["noise_seed"], "problem_options.noise_seed"),
    )


# ---------------------------------------------------------------------------
# check


_CHECK_POINTS = {
    "quadratic": np.array([0.3]),
    "cubic": np.array([0.75]),
    "logistic1d": np.array([0.9]),
    "advdiff": None,  # decision point filled from m_true
}


def cmd_check(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else None
    if file_cfg is not None:
        _reject_unknown(file_cfg, _TOP_KEYS, "config")
        named = file_cfg.get("problem")
        if named is not None and named not in PROBLEM_NAMES:
            raise ConfigError(
                f"unknown problem {named!r}; choose from {', '.join(PROBLEM_NAMES)}"
            )
    status = 0
    rng = np.random.default_rng(args.seed if args.seed is not None else 7)
    for name in PROBLEM_NAMES:
        overrides = {**_overrides(args), "problem": name}
        # a config file applies to the problem it names; others keep defaults
        applies = file_cfg is not None and file_cfg.get("problem", name) == name
        cfg = resolve_config(file_cfg if applies else None, overrides)
        problem = build_problem(cfg)
        tol = CHECK_TOLERANCES[name]

        m_canon = _CHECK_POINTS[name]
        if m_canon is None:
            m_canon = np.asarray(cfg.problem_options["m_true"], dtype=float)
        points = [(m_canon, cfg.box.nominal)]
        for _ in range(args.random_points):
            if problem.basin_hint is not None:
                lo, hi = problem.basin_hint
                m_rand = rng.uniform(lo, hi)
            else:
                m_rand = m_canon + rng.uniform(-0.3, 0.3, m_canon.size)
            theta_rand = cfg.box.nominal + cfg.box.half_widths * rng.uniform(
                -1.0, 1.0, cfg.box.p
            )
            points.append((m_rand, theta_rand))

        worst = 0.0
        ok = True
        failure = None
        try:
            for m_pt, theta_pt in points:
                report = check_derivatives(problem, m_pt, theta_pt, cfg.fd_step)
                worst = max(worst, report.worst())
                ok = ok and report.passed(tol)
        except (MinmarchError, ValueError) as err:
            # evaluation broke at a perturbed point; report it, never skip it
            ok = False
            failure = err
        verdict = "PASS" if ok else "FAIL"
        detail = f" ({failure})" if failure is not None else ""
        print(
            f"{name:10s} worst_rel_error={worst:.3e} tol={tol:.0e} "
            f"fd_step={cfg.fd_step:g} points={len(points)} {verdict}{detail}"
        )
        if not ok:
            status = 1
    return status


# ---------------------------------------------------------------------------
# study


def _shared_axis(columns, dimension: int, points: int) -> np.ndarray:
    """A grid over every column, padded by KDE_PADDING bandwidths of each."""
    lo = min(c.min() - KDE_PADDING * silverman_bandwidth(c, dimension) for c in columns)
    hi = max(c.max() + KDE_PADDING * silverman_bandwidth(c, dimension) for c in columns)
    return np.linspace(lo, hi, points)


def _study_kde_files(study: SampleStudy, mask: np.ndarray, out_dir: str) -> list[str]:
    """Write the densities of the samples in mask; zero-spread sources get none."""
    if mask.sum() < 30:
        return []
    d = study.d
    sources: dict[str, np.ndarray] = {}
    if study.with_oracle:
        sources["oracle"] = study.oracle_minimizers()[mask]
    for N in study.N_list:
        sources[f"N{N}"] = study.finals(N)[mask]

    written = []
    for k in range(d):
        columns = {label: data[:, k] for label, data in sources.items()}
        axis = _shared_axis(columns.values(), 1, 256)
        for label, col in columns.items():
            try:
                est = kde(col, grid=(axis,))
            except DegenerateBandwidthError:
                continue
            path = os.path.join(out_dir, f"kde_marginal_{k + 1}_{label}.csv")
            write_kde_marginal_csv(path, est)
            written.append(os.path.basename(path))

    if d == 2:
        axes = tuple(
            _shared_axis([data[:, k] for data in sources.values()], 2, 101) for k in range(2)
        )
        for label, data in sources.items():
            try:
                est = kde(data, grid=axes)
            except DegenerateBandwidthError:
                continue
            path = os.path.join(out_dir, f"kde_joint_{label}.csv")
            write_kde_joint_csv(path, est)
            written.append(os.path.basename(path))
    return written


def cmd_study(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else None
    cfg = resolve_config(file_cfg, _overrides(args))
    problem = build_problem(cfg)
    out_dir = cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)

    timings: dict[str, float] = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    study = propagate_study(
        problem,
        cfg.box,
        cfg.num_samples,
        cfg.N_list,
        cfg.seed,
        with_oracle=cfg.with_oracle,
        scheme=cfg.scheme,
        workers=cfg.workers,
    )
    timings["propagate"] = time.perf_counter() - t0

    slopes = None
    t0 = time.perf_counter()
    summary = None
    if cfg.with_oracle:
        try:
            summary = summary_errors(study)
        except ValueError:
            pass  # fewer than two usable samples: no statistics to report
        else:
            def _clean(values):
                return [None if np.isnan(v) else float(v) for v in values]

            slopes = {
                "mean": _clean(summary.mean.slopes),
                "std": _clean(summary.std.slopes),
                "per_sample": _clean(summary.per_sample.slopes),
            }
    timings["statistics"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    mask = study.valid_mask()
    kde_files = _study_kde_files(study, mask, out_dir)
    timings["kde"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    write_samples_csv(os.path.join(out_dir, "samples.csv"), study)
    if summary is not None:
        write_errors_csv(os.path.join(out_dir, "errors_vs_N.csv"), summary)
    save_study(os.path.join(out_dir, "study.json"), study)
    timings["write"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total

    counts = study.failure_counts()
    manifest = {
        "command": "study",
        "version": __version__,
        "config": to_json_dict(cfg),
        "newton": to_json_dict(study.newton_config),
        "timings_sec": timings,
        "failure_counts": counts,
        "counters": study.counters,
        "excluded_from_statistics": int(cfg.num_samples - mask.sum()),
        "nominal": to_json_dict(study.nominal),
        "fitted_slopes": slopes,
        "kde_files": kde_files,
    }
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)

    print(f"study written to {out_dir}")
    print(
        f"  samples={cfg.num_samples} N_list={cfg.N_list} "
        f"oracle_failures={counts['newton_not_converged']}"
    )
    if slopes is not None:
        print(f"  fitted slopes: mean={slopes['mean']} std={slopes['std']}")
    return 0


def _overrides(args) -> dict:
    """The config values given as command-line flags."""
    return {k: v for k, v in vars(args).items() if k in _TOP_KEYS}


# ---------------------------------------------------------------------------
# trajectory


def cmd_trajectory(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else None
    cfg = resolve_config(file_cfg, _overrides(args))
    problem = build_problem(cfg)

    theta = np.asarray([float(v) for v in args.theta.split(",")], dtype=float)
    theta = cfg.box.require_member(theta)

    out_dir = cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    N = cfg.N_list[0] if args.N_list else max(cfg.N_list)

    nominal = solve_nominal(problem, cfg.box)
    line = ParameterLine(cfg.box.nominal, theta)
    traj = march(
        problem,
        nominal.minimizer,
        line,
        MarchConfig(N, cfg.scheme),
    )
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    write_sensitivity_csv(os.path.join(out_dir, "sensitivity.csv"), traj)

    manifest = {
        "command": "trajectory",
        "version": __version__,
        "config": to_json_dict(cfg),
        "theta": theta.tolist(),
        "num_steps": N,
        "status": traj.status.value,
        "left_basin": traj.left_basin,
        "final_state": traj.final_state.tolist(),
        "nominal": to_json_dict(nominal),
    }
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"trajectory ({traj.status.value}) written to {out_dir}")
    print(f"  final state: {traj.final_state.tolist()}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _steps_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad step list {text!r}") from err


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--problem", choices=PROBLEM_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int, dest="num_samples")
    parser.add_argument("--steps", type=_steps_list, dest="N_list", metavar="N1,N2,...")
    parser.add_argument("--scheme", choices=[s.value for s in Scheme])
    parser.add_argument(
        "--oracle",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="with_oracle",
        help="re-solve each sample with Newton as ground truth",
    )
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out", dest="output_dir", metavar="DIR", help="output directory")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmarch",
        description="march minimizers of parameterized optimization problems "
        "through parameter space and quantify their uncertainty",
    )
    parser.add_argument("--version", action="version", version=f"minmarch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify derivatives of all built-in problems")
    p_check.add_argument("--config", metavar="PATH")
    p_check.add_argument("--fd-step", type=float, dest="fd_step", default=None)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--random-points", type=int, default=3, dest="random_points")
    p_check.set_defaults(func=cmd_check)

    p_study = sub.add_parser("study", help="run the full propagation study")
    _add_common(p_study)
    p_study.set_defaults(func=cmd_study)

    p_traj = sub.add_parser("trajectory", help="march a single parameter sample")
    _add_common(p_traj)
    p_traj.add_argument("--theta", required=True, help="sample, comma separated")
    p_traj.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MinmarchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
