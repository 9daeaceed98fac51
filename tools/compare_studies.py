"""Compare the artifacts of two minmarch source trees, file by file.

Usage: python3 tools/compare_studies.py PARENT_SRC CHANGE_SRC OUT

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts, for
example of a ``git worktree`` of the parent commit and of the working tree.
Each command runs in a fresh interpreter with ``PYTHONPATH`` set to one of
them, and writes under OUT/parent and OUT/change (OUT must be new or empty):

- ``minmarch study`` for every problem, scheme (euler, heun, rk4), worker
  count (1, 2, 3) and oracle setting (on, off), with a small sample count and
  the step counts 1, 3, 6.  At these sample counts most blocks are estimated
  to march in less than ``uq.WORKER_MIN_BLOCK_S``, so most of these studies
  run as one block whatever their worker count, and near that threshold
  their ``march_blocks`` can differ between runs.  Three more studies: one
  with more workers than samples; one advdiff study whose single block has
  more samples than the kernel's ``STACK_ROWS``, so that its stacked calls
  come in chunks of other sizes than its first; and one advdiff study whose
  blocks cost far more than the threshold, so that it runs the calling
  process and one worker process, and its ``manifest.json`` counts two
  blocks;
- ``minmarch trajectory`` for every problem and scheme, with 1 and 4 steps,
  at the first three sampled parameters of the parent's study;
- ``minmarch check`` once, with its default seed and 3 random points; its
  stdout, the command's only output, is saved as ``check/stdout.txt``.

Every file that differs, or exists on one side only, is listed, with
``differs:``, ``parent only:`` or ``change only:``.  A differing CSV file
with the parent's header and shape is listed with the largest relative
difference |a - b| / max(|a|, |b|) over its numeric cells, so that a
last-bit change can be sized; a differing cell that is not numeric, or
NaN or infinite on one side, makes it ``inf``.  In ``manifest.json`` the
keys ``timings_sec`` and ``output_dir`` are ignored; everything else, the
work counters included, must match, but for the block count: the study
chooses it from a timing, so two
manifests that differ only in ``counters.march_blocks`` and
``counters.derivative_rows.march`` match when each side's counters obey
``uq.propagate_study``'s formula ``derivative_rows.march ==
rhs_evaluations - K (num_samples - march_blocks p)``, K being the number
of step counts and p the number of parameters.  A ``samples.csv``
of the change that has the parent's lines, each followed by ``,`` and more
cells, has gained columns and lost nothing: it is listed as extended, not
as differing.  Before the summary line, each tree's size is printed: its
source lines, as ``cat src/minmarch/*.py src/minmarch/problems/*.py | wc -l``
counts them, and ``len(minmarch.__all__)``.  The summary counts identical
and extended files apart.  The exit status is 0 when every file matches or
is extended and 1 otherwise.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

# problem and sample count: enough samples for the kde, few enough to be quick
PROBLEMS = {"quadratic": 40, "cubic": 60, "logistic1d": 300, "advdiff": 40}
SCHEMES = ("euler", "heun", "rk4")
WORKERS = (1, 2, 3)
ORACLE = ("--oracle", "--no-oracle")
STEPS = "1,3,6"
TRAJECTORY_STEPS = (1, 4)
TRAJECTORY_SAMPLES = 3
SEED = 7
IGNORED_KEYS = {"timings_sec", "output_dir"}
# (problem, sample count), scheme, workers, oracle of the studies past the matrix:
# more workers than samples, more samples in one block than advdiff's STACK_ROWS,
# and blocks that cost far more than uq.WORKER_MIN_BLOCK_S
EXTRA_STUDIES = [
    (("quadratic", 3), "euler", 5, "--oracle"),
    (("advdiff", 300), "euler", 1, "--oracle"),
    (("advdiff", 600), "rk4", 2, "--oracle"),
]

# imports minmarch and checks that it comes from the tree on PYTHONPATH
IMPORT = """\
import os, sys
import minmarch
src = os.path.realpath(os.environ["PYTHONPATH"])
if not os.path.realpath(minmarch.__file__).startswith(src + os.sep):
    sys.exit(f"minmarch imported from {minmarch.__file__}, not from {src}")
"""
# runs the command line of that tree
CHILD = IMPORT + "from minmarch.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def run(src: Path, args: list[str], ok=(0,), code: str = CHILD) -> str:
    """The stdout of a command that exits with a status in ok."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    if done.returncode not in ok:
        raise SystemExit(f"{' '.join(args)} failed under {src}:\n{done.stderr}")
    return done.stdout


def study_runs():
    """(directory name, study arguments) over the whole matrix, then EXTRA_STUDIES."""
    matrix = itertools.product(PROBLEMS.items(), SCHEMES, WORKERS, ORACLE)
    for (problem, samples), scheme, workers, oracle in [*matrix, *EXTRA_STUDIES]:
        name = f"study-{problem}-{scheme}-w{workers}-{oracle.lstrip('-')}"
        if samples != PROBLEMS[problem]:
            name += f"-n{samples}"
        args = [
            "study", "--problem", problem, "--samples", str(samples), "--seed", str(SEED),
            "--steps", STEPS, "--scheme", scheme, "--workers", str(workers), oracle,
        ]
        yield name, args


def sampled_thetas(samples_csv: Path) -> list[str]:
    """The first sampled parameter vectors of a study, as --theta values."""
    with open(samples_csv, newline="") as fh:
        rows = list(itertools.islice(csv.DictReader(fh), TRAJECTORY_SAMPLES))
    return [",".join(v for k, v in row.items() if k.startswith("theta_")) for row in rows]


def trajectory_runs(out: Path):
    """(directory name, trajectory arguments) at the parent's sampled parameters."""
    for problem, scheme in itertools.product(PROBLEMS, SCHEMES):
        samples = out / "parent" / f"study-{problem}-euler-w1-oracle" / "samples.csv"
        for k, theta in enumerate(sampled_thetas(samples)):
            for N in TRAJECTORY_STEPS:
                name = f"trajectory-{problem}-{scheme}-s{k}-N{N}"
                args = [
                    "trajectory", "--problem", problem, "--scheme", scheme,
                    "--steps", str(N), "--theta", theta,
                ]
                yield name, args


def size(src: Path) -> str:
    """The tree's source lines, as ``wc -l`` counts them, and its exported names."""
    package = src / "minmarch"
    files = [*sorted(package.glob("*.py")), *sorted((package / "problems").glob("*.py"))]
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    names = run(src, [], code=IMPORT + "print(len(minmarch.__all__))\n").strip()
    return f"{lines} source lines, {names} exported names"


def without_ignored(value):
    if isinstance(value, dict):
        return {k: without_ignored(v) for k, v in value.items() if k not in IGNORED_KEYS}
    if isinstance(value, list):
        return [without_ignored(v) for v in value]
    return value


def without_block_count(manifest: dict) -> dict:
    """The manifest without its block count, if its march rows follow from that count."""
    config, counters = manifest["config"], manifest["counters"]
    K, p = len(config["N_list"]), len(config["box"]["nominal"])
    shared = counters["march_blocks"] * p
    rows = counters["rhs_evaluations"] - K * (config["num_samples"] - shared)
    if counters["derivative_rows"]["march"] != rows:
        return manifest
    derivative_rows = {**counters["derivative_rows"], "march": None}
    counters = {**counters, "march_blocks": None, "derivative_rows": derivative_rows}
    return {**manifest, "counters": counters}


def same_file(a: Path, b: Path) -> bool:
    if a.name == "manifest.json":
        old, new = (without_ignored(json.loads(f.read_text())) for f in (a, b))
        return old == new or without_block_count(old) == without_block_count(new)
    return a.read_bytes() == b.read_bytes()


def relative_difference(a: Path, b: Path) -> float | None:
    """The largest relative difference of the cells of two CSV files of one header and shape.

    None when the files are not CSV or differ in header or shape.
    """
    if a.suffix != ".csv":
        return None
    with open(a, newline="") as fa, open(b, newline="") as fb:
        old, new = list(csv.reader(fa)), list(csv.reader(fb))
    if old[:1] != new[:1] or [len(row) for row in old] != [len(row) for row in new]:
        return None
    largest = 0.0
    for x, y in zip(itertools.chain(*old[1:]), itertools.chain(*new[1:])):
        if x == y:
            continue
        try:
            u, v = float(x), float(y)
        except ValueError:
            return math.inf
        if u != v:
            difference = abs(u - v) / max(abs(u), abs(v))
            # NaN against a number, or an infinity, is no last-bit change
            largest = max(largest, difference if math.isfinite(difference) else math.inf)
    return largest


def extended(a: Path, b: Path) -> bool:
    """Whether samples.csv b is a with one or more cells appended to every line."""
    if a.name != "samples.csv":
        return False
    old, new = a.read_bytes().splitlines(), b.read_bytes().splitlines()
    appended = all(line.startswith(base + b",") for base, line in zip(old, new))
    return len(old) == len(new) and appended


def unmatched_files(parent: Path, change: Path) -> tuple[int, list[tuple[str, Path]]]:
    """The number of files compared and (how, relative path) of each one not identical."""
    files = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    files |= {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    unmatched = []
    for rel in sorted(files):
        a, b = parent / rel, change / rel
        if not b.is_file():
            unmatched.append(("parent only", rel))
        elif not a.is_file():
            unmatched.append(("change only", rel))
        elif not same_file(a, b):
            unmatched.append(("extended" if extended(a, b) else "differs", rel))
    return len(files), unmatched


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src, change_src, out = (Path(a).resolve() for a in argv)
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; its files would be compared too", file=sys.stderr)
        return 2
    trees = {"parent": parent_src, "change": change_src}
    # the trajectory runs read the parent's study outputs, made first
    for name, args in itertools.chain(study_runs(), trajectory_runs(out)):
        for side, src in trees.items():
            run(src, [*args, "--out", str(out / side / name)])
    for side, src in trees.items():
        # a check that fails (status 1) still prints its report, compared like a file
        (out / side / "check").mkdir()
        (out / side / "check" / "stdout.txt").write_text(run(src, ["check"], ok=(0, 1)))
    count, unmatched = unmatched_files(out / "parent", out / "change")
    for how, rel in unmatched:
        change = None
        if how == "differs":
            change = relative_difference(out / "parent" / rel, out / "change" / rel)
        note = "" if change is None else f" (largest relative difference {change:.2g})"
        print(f"{how}: {rel}{note}")
    for side, src in trees.items():
        print(f"{side}: {size(src)}")
    extend = sum(how == "extended" for how, _ in unmatched)
    print(f"{count - len(unmatched)} of {count} files identical, {extend} extended")
    return 1 if len(unmatched) > extend else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
