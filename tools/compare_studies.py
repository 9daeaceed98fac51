"""Compare the artifacts of two minmarch source trees, file by file.

Usage: python3 tools/compare_studies.py PARENT_SRC CHANGE_SRC OUT

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts, for
example of a ``git worktree`` of the parent commit and of the working tree.
Each command runs in a fresh interpreter with ``PYTHONPATH`` set to one of
them, and writes under OUT/parent and OUT/change (OUT must be new or empty):

- ``minmarch study`` for every problem, scheme (euler, heun, rk4), worker
  count (1, 2, 3: one block, or the calling process and one or two worker
  processes) and oracle setting (on, off), with a small sample count and
  the step counts 1, 3, 6;
- ``minmarch trajectory`` for every problem and scheme, with 1 and 4 steps,
  at the first three sampled parameters of the parent's study;
- ``minmarch check`` once, with its default seed and 3 random points; its
  stdout, the command's only output, is saved as ``check/stdout.txt``.

Every file that differs, or exists on one side only, is listed.  In
``manifest.json`` the keys ``timings_sec`` and ``output_dir`` are ignored;
everything else, the work counters included, must match.  Before the
summary line, each tree's size is printed: its source lines, as
``cat src/minmarch/*.py src/minmarch/problems/*.py | wc -l`` counts them,
and ``len(minmarch.__all__)``.  The exit status is 0 when every file
matches and 1 otherwise.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

# problem and sample count: enough samples for the kde, few enough to be quick
PROBLEMS = {"quadratic": 40, "cubic": 60, "logistic1d": 300, "advdiff": 24}
SCHEMES = ("euler", "heun", "rk4")
WORKERS = (1, 2, 3)
ORACLE = ("--oracle", "--no-oracle")
STEPS = "1,3,6"
TRAJECTORY_STEPS = (1, 4)
TRAJECTORY_SAMPLES = 3
SEED = 7
IGNORED_KEYS = {"timings_sec", "output_dir"}

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
    """(directory name, study arguments) over the whole matrix."""
    for (problem, samples), scheme, workers, oracle in itertools.product(
        PROBLEMS.items(), SCHEMES, WORKERS, ORACLE
    ):
        name = f"study-{problem}-{scheme}-w{workers}-{oracle.lstrip('-')}"
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


def same_file(a: Path, b: Path) -> bool:
    if a.name == "manifest.json":
        return without_ignored(json.loads(a.read_text())) == without_ignored(
            json.loads(b.read_text())
        )
    return a.read_bytes() == b.read_bytes()


def differing_files(parent: Path, change: Path) -> tuple[int, list[str]]:
    """The number of files compared and the relative paths of those that differ."""
    files = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    files |= {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    differ = []
    for rel in sorted(files):
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file() and same_file(a, b)):
            differ.append(str(rel))
    return len(files), differ


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
    count, differ = differing_files(out / "parent", out / "change")
    for rel in differ:
        print(f"differs: {rel}")
    for side, src in trees.items():
        print(f"{side}: {size(src)}")
    print(f"{count - len(differ)} of {count} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
