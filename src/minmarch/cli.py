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
from .marching import Scheme, march_block
from .newton import solve_nominal
from .problems import (
    DoubleWellProblem,
    LogisticWellProblem,
    ParameterBox,
    QuadraticProblem,
)
from .reporting import (
    json_value,
    write_errors_csv,
    write_kde_csv,
    write_manifest,
    write_samples_csv,
    write_sensitivity_csv,
    write_trajectory_csv,
)
from .sensitivity import post_optimality_apply
from .uq import SampleStudy, kde, propagate_study, shared_axis, summary_errors

# Each built-in problem's setup, stated once: the class that builds it
# (advdiff is built from its options by make_advdiff_problem), the config
# values in which it differs from _defaults, and its derivative check: a
# point, which is a function of the problem options, and a pass tolerance.
# The keys of a problem's problem_options are the options a config may set.
PROBLEMS: dict[str, dict] = {
    "quadratic": {
        "class": QuadraticProblem,
        "box": {"nominal": [0.4], "relative": 0.40},
        "check": (lambda options: [0.3], 1e-7),
    },
    "cubic": {
        "class": DoubleWellProblem,
        "box": {"nominal": [0.3, 0.75], "half_widths": [0.1, 0.1]},
        "check": (lambda options: [0.75], 1e-6),
    },
    "logistic1d": {
        "class": LogisticWellProblem,
        "box": {"nominal": [1.0, 3.0, 0.1], "relative": 0.40},
        "check": (lambda options: [0.9], 1e-6),
    },
    "advdiff": {
        "box": {"nominal": [10.0, 0.05, 1.0], "relative": 0.20},
        "N_list": [1, 6, 12, 20],
        "problem_options": {
            "grid_cells": 200,
            "beta": 1e-3,
            "m_true": [0.05, 0.4],
            "m_prior": [0.06, 0.32],
            "noise_std": 0.0,
            "noise_seed": 0,
        },
        "check": (lambda options: options["m_true"], 1e-6),
    },
}
PROBLEM_NAMES = tuple(PROBLEMS)

# the keys a box may have, each mapped to a value of the type it takes (see _typed)
_BOX_KEYS = {"nominal": [0.0], "relative": 0.0, "half_widths": [0.0]}

# a config value must have the JSON type of its default: (default's type,
# the types a value may have, what the error message asks for)
_JSON_TYPES = (
    (bool, bool, "true or false"),
    (int, numbers.Integral, "an integer"),
    (float, numbers.Real, "a number"),
    (Scheme, str, f"one of {', '.join(s.value for s in Scheme)}"),
    (str, str, "a non-empty string"),
    (list, (list, tuple), "a JSON array"),
    (dict, dict, "a JSON object"),
)

# the smallest value an integer config value may take, where it has one
_MINIMUM = {"num_samples": 1, "seed": 0, "workers": 1, "N_list entry": 1}


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


def _typed(value, default, key: str):
    """value, checked to have the JSON type of default, as default's Python type.

    A bool is neither an integer nor a number, and a string must not be empty.
    Each entry of a list must have the type of the default's first entry.
    """
    kind, allowed, wanted = next(t for t in _JSON_TYPES if isinstance(default, t[0]))
    try:
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise ValueError
        if value == "":
            raise ValueError
        value = kind(value)  # raises ValueError for a string that names no Scheme
    except ValueError:
        raise ConfigError(f"{key} must be {wanted}, got {value!r}") from None
    if kind is list:
        value = [_typed(entry, default[0], f"{key} entry") for entry in value]
    if key in _MINIMUM and value < _MINIMUM[key]:
        raise ConfigError(f"{key} must be >= {_MINIMUM[key]}, got {value}")
    return value


def _defaults(problem: str) -> dict:
    """The config a run of problem gets from the defaults alone, less the problem key."""
    setup = {key: value for key, value in PROBLEMS[problem].items() if key in _TOP_KEYS}
    return copy.deepcopy(
        {
            "num_samples": 5000,
            "seed": 7,
            "N_list": [1, 2, 4, 8, 16],
            "scheme": Scheme.FORWARD_EULER,
            "with_oracle": True,
            "workers": os.cpu_count() or 1,
            "output_dir": f"out_{problem}",
            "fd_step": 1e-6,
            "problem_options": {},
            **setup,
        }
    )


def resolve_config(file_cfg: dict | None, overrides: dict) -> RunConfig:
    """Merge defaults <- config file <- command-line flags, validating strictly."""
    given = {**(file_cfg or {}), **{k: v for k, v in overrides.items() if v is not None}}
    _reject_unknown(given, _TOP_KEYS, "config")

    problem = given.pop("problem", None)
    if problem is None:
        raise ConfigError("no problem selected; pass --problem or set it in the config file")
    if problem not in PROBLEM_NAMES:
        raise ConfigError(
            f"unknown problem {problem!r}; choose from {', '.join(PROBLEM_NAMES)}"
        )

    merged = _defaults(problem)
    for key, value in given.items():
        value = _typed(value, merged[key], key)
        if key == "problem_options":
            options = merged[key]
            _reject_unknown(value, set(options), f"problem_options ({problem})")
            value = {
                **options,
                **{k: _typed(v, options[k], f"problem_options.{k}") for k, v in value.items()},
            }
        elif key == "box":
            _reject_unknown(value, set(_BOX_KEYS), "box")
            value = {k: _typed(v, _BOX_KEYS[k], f"box.{k}") for k, v in value.items()}
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
            box = ParameterBox(box_cfg["nominal"], box_cfg["half_widths"])
    except ValueError as err:
        raise ConfigError(f"invalid box: {err}") from err

    N_list = merged["N_list"]
    if not N_list or len(set(N_list)) < len(N_list):
        raise ConfigError(f"N_list must be a non-empty list of distinct step counts, got {N_list}")
    if not 0 < merged["fd_step"] < np.inf:
        raise ConfigError(f"fd_step must be positive and finite, got {merged['fd_step']}")

    merged["box"] = box
    return RunConfig(problem=problem, **merged)


def build_problem(cfg: RunConfig):
    if cfg.problem == "advdiff":
        from .problems.advdiff import AdvDiffInverseProblem as cls, make_advdiff_problem
    else:
        cls = PROBLEMS[cfg.problem]["class"]
    if cfg.box.p != cls.p:
        raise ConfigError(f"box has {cfg.box.p} parameters, but {cfg.problem} takes {cls.p}")
    if cfg.problem != "advdiff":
        return cls()
    return make_advdiff_problem(theta_data=cfg.box.nominal, **cfg.problem_options)


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else None
    named = (file_cfg or {}).get("problem")
    if named is not None and named not in PROBLEM_NAMES:
        raise ConfigError(f"unknown problem {named!r}; choose from {', '.join(PROBLEM_NAMES)}")
    if args.random_points < 0:
        raise ConfigError(f"--random-points must be >= 0, got {args.random_points}")
    status = 0
    rng = np.random.default_rng(7 if args.seed is None else _typed(args.seed, 7, "seed"))
    # every config is resolved and built before any check, so that a bad
    # value is reported before any verdict; a config file applies to the
    # problem it names, or to all, and the others keep their defaults
    setups = []
    for name in PROBLEM_NAMES:
        applies = named in (None, name)
        cfg = resolve_config(file_cfg if applies else None, {**_overrides(args), "problem": name})
        setups.append((name, cfg, build_problem(cfg)))
    for name, cfg, problem in setups:
        point, tol = PROBLEMS[name]["check"]
        m_canon = np.asarray(point(cfg.problem_options), dtype=float)
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


def _study_kde_files(study: SampleStudy, mask: np.ndarray, out_dir: str) -> list[str]:
    """Write the densities of the samples in mask; zero-spread sources get none."""
    if mask.sum() < 30:
        return []
    d = study.d
    sources: dict[str, np.ndarray] = {}
    if study.with_oracle:
        sources["oracle"] = study.oracle.minimizer[mask]
    for N in study.N_list:
        sources[f"N{N}"] = study.finals(N)[mask]

    written = []
    # each coordinate's marginal density, then the joint density of a d = 2 study
    for coords in [(k,) for k in range(d)] + [(0, 1)] * (d == 2):
        clouds = {label: data[:, coords] for label, data in sources.items()}
        points = 256 if len(coords) == 1 else 101
        axes = tuple(
            shared_axis([cloud[:, j] for cloud in clouds.values()], len(coords), points)
            for j in range(len(coords))
        )
        name = f"marginal_{coords[0] + 1}" if len(coords) == 1 else "joint"
        for label, cloud in clouds.items():
            try:
                est = kde(cloud, grid=axes)
            except DegenerateBandwidthError:
                continue
            path = os.path.join(out_dir, f"kde_{name}_{label}.csv")
            write_kde_csv(path, est)
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
    timings.update(study.timings)

    t0 = time.perf_counter()
    summary = slopes = None
    if cfg.with_oracle:
        try:
            summary = summary_errors(study)
        except ValueError:
            pass  # fewer than two usable samples: no statistics to report
        else:
            slopes = {f.name: json_value(getattr(summary, f.name).slopes) for f in fields(summary)}
    timings["statistics"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    mask = study.valid_mask()
    kde_files = _study_kde_files(study, mask, out_dir)
    timings["kde"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    write_samples_csv(os.path.join(out_dir, "samples.csv"), study)
    if summary is not None:
        write_errors_csv(os.path.join(out_dir, "errors_vs_N.csv"), summary)
    timings["write"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total

    counts = study.failure_counts()
    manifest = {
        "command": "study",
        "version": __version__,
        "config": cfg,
        "newton": study.newton_config,
        "timings_sec": timings,
        "failure_counts": counts,
        "counters": study.counters,
        "excluded_from_statistics": int(cfg.num_samples - mask.sum()),
        "nominal": study.nominal,
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
    block = march_block(problem, nominal.minimizer, cfg.box.nominal, theta[None], N, cfg.scheme)
    traj = block.trajectory(0)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    # the RHS at (m_n, theta(t_n)) of each completed step, theta(t_n) by the march's arithmetic
    t, direction = traj.times[:-1, None], theta - cfg.box.nominal
    rhs = post_optimality_apply(
        problem,
        traj.states[:-1],
        cfg.box.nominal + t * direction,
        np.broadcast_to(direction, (t.size, direction.size)),
    ).result
    write_sensitivity_csv(os.path.join(out_dir, "sensitivity.csv"), traj, rhs)

    manifest = {
        "command": "trajectory",
        "version": __version__,
        "config": cfg,
        "theta": theta,
        "num_steps": N,
        "status": traj.status,
        "left_basin": traj.left_basin,
        "final_state": traj.final_state,
        "nominal": nominal,
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
    """The flags of study and trajectory; a config file may set every key for both."""
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--problem", choices=PROBLEM_NAMES)
    parser.add_argument("--steps", type=_steps_list, dest="N_list", metavar="N1,N2,...")
    parser.add_argument("--scheme", choices=[s.value for s in Scheme])
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
    p_study.add_argument("--seed", type=int)
    p_study.add_argument("--samples", type=int, dest="num_samples")
    p_study.add_argument(
        "--oracle",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="with_oracle",
        help="re-solve each sample with Newton as ground truth",
    )
    p_study.add_argument("--workers", type=int, help="the most processes a study uses")
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
    except (MinmarchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
