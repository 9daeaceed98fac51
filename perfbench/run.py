"""Benchmark of `minmarch study`: end-to-end timings, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src`` with
``PYTHONPATH``, as the test suite does.  Every study runs in a fresh child
interpreter, one at a time (a closed loop with one client), and writes its
artifacts to a temporary directory under ``.bench_tmp`` that is removed at
the end.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric by name and unit, the output checks and an environment
stamp.  The exit code is 0 only when the outputs are correct.

``--trace 0`` repeats the workload's study back to back for about
``--seconds`` (at least three times) and reports medians of the end-to-end
metrics; its times are plain wall times.  ``--trace 1`` runs the study
untraced, serially untraced, and serially traced (trace_child.py), checks
that all three write the same samples.csv, and reports the per-layer
metrics.  See README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0
MIN_STUDIES = 3
WARMUP_SAMPLES = 8

# Each workload is a set of `resolve_config` overrides on top of the shipped
# problem defaults (box, N list, problem options).  README.md gives the why.
WORKLOADS = {
    "logistic1d-euler": {
        "problem": "logistic1d", "num_samples": 3000, "scheme": "euler",
        "with_oracle": True, "workers": 2,
    },
    "advdiff-euler": {
        "problem": "advdiff", "num_samples": 200, "scheme": "euler",
        "with_oracle": True, "workers": 2,
    },
    "logistic1d-rk4-nooracle": {
        "problem": "logistic1d", "num_samples": 3000, "scheme": "rk4",
        "with_oracle": False, "workers": 1,
    },
}

# Correctness ceiling on march_err, about four times its value at seed 7
# (0.085, 0.10 and 2.4e-8); across seeds it varies by a few percent.
MARCH_ERR_CEILING = {
    "logistic1d-euler": 0.35,
    "advdiff-euler": 0.4,
    "logistic1d-rk4-nooracle": 1e-7,
}

# Calls per sample in the seed's program: marches (one per N), right-hand-side
# evaluations (stages x sum of N), basin checks (sum of N+1), FD second
# derivatives (one per advdiff RHS evaluation) and oracle solves.
STRUCTURE = {
    "logistic1d-euler": {
        "marching.march": 5, "sensitivity.post_optimality_apply": 31,
        "problems.in_basin": 36, "derivatives.fd_second_derivatives": 0,
        "newton.newton_solve": 1,
    },
    "advdiff-euler": {
        "marching.march": 4, "sensitivity.post_optimality_apply": 39,
        "problems.in_basin": 43, "derivatives.fd_second_derivatives": 39,
        "newton.newton_solve": 1,
    },
    "logistic1d-rk4-nooracle": {
        "marching.march": 5, "sensitivity.post_optimality_apply": 124,
        "problems.in_basin": 36, "derivatives.fd_second_derivatives": 0,
        "newton.newton_solve": 0,
    },
}
# tridiagonal solves per RHS evaluation: 10 FD gradients of 2 solves each
SOLVES_PER_RHS = {"logistic1d-euler": 0, "advdiff-euler": 20, "logistic1d-rk4-nooracle": 0}

END_TO_END_UNITS = {
    "study_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "march_err": "1/m",
}
PER_LAYER_UNITS = {
    "problems.solve_banded.per_sample": "count",
    "problems.solve_banded.per_rhs": "count",
    "problems.solve_banded.us": "us",
    "problems.gradient.per_sample": "count",
    "problems.gradient.us": "us",
    "problems.hessian_and_mixed.us": "us",
    "problems.in_basin.per_sample": "count",
    "problems.in_basin.share": "ratio",
    "derivatives.fd_second_derivatives.per_sample": "count",
    "sensitivity.post_optimality_apply.per_sample": "count",
    "sensitivity.post_optimality_apply.us": "us",
    "sensitivity.post_optimality_apply.self_us": "us",
    "marching.march.us_maxN": "us",
    "marching.march.self_share": "ratio",
    "newton.newton_solve.us": "us",
    "newton.iterations.mean": "count",
    "newton.solve_nominal.s": "s",
    "uq.propagate_study.ms_per_sample": "ms",
    "uq.sample.s": "s",
    "uq.summary_errors.s": "s",
    "uq.kde.s": "s",
    "uq.march_oracle_ratio": "ratio",
    "reporting.write.s": "s",
    "reporting.bytes": "bytes",
    "cli.import.s": "s",
    "cli.build_problem.s": "s",
    "trace.overhead": "ratio",
    "trace.structure_mismatches": "count",
}


class BenchError(Exception):
    """A child failed, timed out or wrote output that does not check out."""


class Runner:
    """Starts the benchmark's child interpreters one at a time under a deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self._serial = 0

    def child(self, script: str, *argv: str) -> dict:
        """Run one child to completion; returns its spawn time and wall time."""
        self._serial += 1
        log_path = self.workdir / f"{Path(script).stem}-{self._serial}.log"
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / script), *argv],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{script} did not finish before the run deadline")
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            wall = time.monotonic() - spawned
        if proc.returncode != 0:
            tail = log_path.read_text()[-2000:]
            raise BenchError(f"{script} exited with {proc.returncode}:\n{tail}")
        return {"spawned": spawned, "wall_s": wall}

    def study(self, tag: str, config: dict, seed: int, traced: bool = False) -> dict:
        """One `minmarch study` child; returns its timings and the samples.csv hash."""
        out_dir = self.workdir / tag
        result = self.workdir / f"{tag}.json"
        flags = [
            "--problem", config["problem"],
            "--samples", str(config["num_samples"]),
            "--seed", str(seed),
            "--scheme", config["scheme"],
            "--oracle" if config["with_oracle"] else "--no-oracle",
            "--workers", str(config["workers"]),
            "--out", str(out_dir),
        ]
        script = "trace_child.py" if traced else "study_child.py"
        data = self.child(script, str(result), *flags)
        data.update(json.loads(result.read_text()))
        samples = out_dir / "samples.csv"
        data.update(
            samples_csv=samples,
            samples_sha256=hashlib.sha256(samples.read_bytes()).hexdigest(),
        )
        return data

    def check(self, samples_csv: Path, config: dict, seed: int) -> dict:
        result = self.workdir / "check.json"
        overrides = {**config, "seed": seed}
        self.child("check_child.py", str(result), str(samples_csv), json.dumps(overrides))
        return json.loads(result.read_text())


def check_outputs(name: str, runs: list[dict], check: dict) -> list[str]:
    problems = list(check["errors"])
    digests = {r["samples_sha256"] for r in runs}
    if len(digests) != 1:
        problems.append(f"samples.csv differs between the {len(runs)} runs of one seed")
    if check["march_err"] is None or not check["march_err"] <= MARCH_ERR_CEILING[name]:
        problems.append(
            f"march_err {check['march_err']} exceeds the ceiling {MARCH_ERR_CEILING[name]}"
        )
    return problems


def counts(config: dict, check: dict, studies: int) -> tuple[int, int]:
    """(operations attempted, operations failed): marches plus oracle solves."""
    per_study = config["num_samples"] * (check["n_list_len"] + int(config["with_oracle"]))
    failed = check["march_failures"] + check["oracle_failures"]
    return studies * per_study, studies * failed


def timed_run(runner: Runner, name: str, config: dict, seed: int, seconds: float):
    runner.study("warmup", {**config, "num_samples": WARMUP_SAMPLES}, seed)
    studies: list[dict] = []
    start = time.monotonic()
    while len(studies) < MIN_STUDIES or (
        time.monotonic() - start + studies[-1]["wall_s"] <= seconds
    ):
        studies.append(runner.study(f"study{len(studies)}", config, seed))
    check = runner.check(studies[0]["samples_csv"], config, seed)
    n = config["num_samples"]
    metrics = {
        "study_s": statistics.median(s["wall_s"] for s in studies),
        "samples_per_s": statistics.median(n / s["propagate_s"] for s in studies),
        "setup_s": statistics.median(s["nominal_at"] - s["spawned"] for s in studies),
        "peak_rss_mb": max(s["peak_rss_kb"] for s in studies) / 1024.0,
        "march_err": check["march_err"],
    }
    attempted, failed = counts(config, check, len(studies))
    notes = [
        f"{len(studies)} studies of {n} samples, {config['workers']} worker(s); "
        "wall s each: " + " ".join(f"{s['wall_s']:.3f}" for s in studies),
        f"march_err_mean {check['march_err_mean']!r} (mean |m_Nmax - m_ref|)",
        f"fail_frac {failed / attempted!r} ratio",
    ]
    return metrics, END_TO_END_UNITS, attempted, failed, check_outputs(name, studies, check), notes


def structure_mismatches(name: str, trace: dict, n: int) -> list[str]:
    found = []
    if trace["samples"] != n:
        found.append(f"trace saw {trace['samples']} samples, expected {n}")
    for layer, want in STRUCTURE[name].items():
        got = trace["per_sample"].get(layer, [0] * trace["samples"])
        bad = [i for i, c in enumerate(got) if c != want]
        if bad:
            found.append(f"{layer}: sample {bad[0]} made {got[bad[0]]} calls, expected {want}")
    rhs = trace["count"].get("sensitivity.post_optimality_apply", 0)
    solves = trace["within_rhs"].get("problems.solve_banded", 0)
    if solves != SOLVES_PER_RHS[name] * rhs:
        found.append(f"{solves} tridiagonal solves in {rhs} RHS evaluations, "
                     f"expected {SOLVES_PER_RHS[name]} each")
    return found


def layer_metrics(trace: dict, n: int, max_steps: int, serial: dict) -> dict:
    count, total, self_s = trace["count"], trace["total_s"], trace["self_s"]

    def per_sample(layer):
        return sum(trace["per_sample"].get(layer, [])) / n

    def mean_us(layer):
        return 1e6 * total[layer] / count[layer] if count.get(layer) else 0.0

    def share(a, b):
        return a / b if b else 0.0

    propagate = total["uq.propagate_study"]
    rhs = "sensitivity.post_optimality_apply"
    march_n, march_s = trace["march_by_steps"].get(str(max_steps), [0, 0.0])
    oracle_calls = count.get("newton.newton_solve", 0)
    return {
        "problems.solve_banded.per_sample": per_sample("problems.solve_banded"),
        "problems.solve_banded.per_rhs": share(
            trace["within_rhs"].get("problems.solve_banded", 0), count.get(rhs, 0)
        ),
        "problems.solve_banded.us": mean_us("problems.solve_banded"),
        "problems.gradient.per_sample": per_sample("problems.gradient"),
        "problems.gradient.us": mean_us("problems.gradient"),
        "problems.hessian_and_mixed.us": mean_us("problems.hessian_and_mixed"),
        "problems.in_basin.per_sample": per_sample("problems.in_basin"),
        "problems.in_basin.share": share(total.get("problems.in_basin", 0.0), propagate),
        "derivatives.fd_second_derivatives.per_sample": per_sample(
            "derivatives.fd_second_derivatives"
        ),
        f"{rhs}.per_sample": per_sample(rhs),
        f"{rhs}.us": mean_us(rhs),
        f"{rhs}.self_us": 1e6 * share(self_s.get(rhs, 0.0), count.get(rhs, 0)),
        "marching.march.us_maxN": 1e6 * share(march_s, march_n),
        "marching.march.self_share": share(self_s.get("marching.march", 0.0), propagate),
        "newton.newton_solve.us": mean_us("newton.newton_solve"),
        "newton.iterations.mean": share(trace["oracle_iterations"], oracle_calls),
        "newton.solve_nominal.s": total.get("newton.solve_nominal", 0.0),
        "uq.propagate_study.ms_per_sample": 1e3 * serial["propagate_s"] / n,
        "uq.sample.s": total.get("uq.sample", 0.0),
        "uq.summary_errors.s": total.get("uq.summary_errors", 0.0),
        "uq.kde.s": total.get("uq.kde", 0.0),
        "uq.march_oracle_ratio": share(
            total.get("marching.march", 0.0), total.get("newton.newton_solve", 0.0)
        ),
        "reporting.write.s": total.get("reporting.write", 0.0),
        "reporting.bytes": trace["bytes_written"],
        "cli.import.s": trace["import_s"],
        "cli.build_problem.s": total.get("cli.build_problem", 0.0),
        "trace.overhead": propagate / serial["propagate_s"],
    }


def traced_run(runner: Runner, name: str, config: dict, seed: int):
    runs = [runner.study("untraced", config, seed)]
    serial = runs[0]
    if config["workers"] > 1:
        serial = runner.study("serial", {**config, "workers": 1}, seed)
        runs.append(serial)
    trace = runner.study("traced", config, seed, traced=True)
    runs.append(trace)
    check = runner.check(runs[0]["samples_csv"], config, seed)
    n = config["num_samples"]
    metrics = layer_metrics(trace, n, check["max_steps"], serial)
    mismatches = structure_mismatches(name, trace, n)
    metrics["trace.structure_mismatches"] = len(mismatches)
    for line in mismatches:
        print(f"STRUCTURE CHANGED: {line}", file=sys.stderr)
    attempted, failed = counts(config, check, 1)
    notes = [
        f"traced serial study of {n} samples, compared with untraced runs on "
        f"{sorted({config['workers'], 1})} worker(s)",
        f"march_err {check['march_err']!r} 1/m, fail_frac {failed / attempted!r} ratio",
    ]
    return metrics, PER_LAYER_UNITS, attempted, failed, check_outputs(name, runs, check), notes


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}"] = size
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minmarch" / "cli.py").is_file():
        print(f"no minmarch sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    config = dict(WORKLOADS[args.workload])

    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    runner = Runner(workdir, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            result = traced_run(runner, args.workload, config, args.seed)
        else:
            result = timed_run(runner, args.workload, config, args.seed, args.seconds)
        metrics, units, attempted, failed, problems, notes = result
    except BenchError as err:
        print(f"BENCHMARK FAILED: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for key, value in metrics.items():
        print(f"{key:<46} {value:<24.10g} {units[key]}")
    for problem in problems:
        print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
