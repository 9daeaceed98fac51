"""Output check of one study's samples.csv, run by run.py outside the timed region.

Usage: python3 perfbench/check_child.py RESULT_JSON SAMPLES_CSV CONFIG_JSON

CONFIG_JSON holds the checked run's settings as `resolve_config` overrides;
they rebuild the same problem, box and nominal minimizer.  The check verifies
that the file has one row per sample in index order with the seed's
parameter draws, counts aborted marches and unconverged oracle solves, and
fixes a reference minimizer per sample: the study's oracle column, confirmed
stationary with a positive definite Hessian, or, for a study run without the
oracle, a Newton re-solve made here.  It reports the march error at the
largest step count against that reference, as the sum of the errors over the
sum of the squared distances the minimizers travel (Euler's error grows with
that square, so the ratio varies little from seed to seed), and also as a
plain mean.  Problems found go to the "errors" list.
"""

import csv
import json
import sys


def main(argv: list[str]) -> int:
    result_path, samples_path, overrides = argv[0], argv[1], json.loads(argv[2])
    import numpy as np

    import minmarch.cli as cli
    from minmarch.newton import newton_solve, solve_nominal

    cfg = cli.resolve_config(None, overrides)
    problem = cli.build_problem(cfg)
    nominal = solve_nominal(problem, cfg.box).minimizer
    d, p, n = nominal.size, cfg.box.p, cfg.num_samples
    n_max = max(cfg.N_list)
    errors: list[str] = []

    with open(samples_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n:
        errors.append(f"samples.csv has {len(rows)} rows, expected {n}")
        rows = rows[:n]

    def column(names):
        return np.array([[float(r[c]) for c in names] for r in rows]).reshape(len(rows), -1)

    if [int(r["sample_index"]) for r in rows] != list(range(len(rows))):
        errors.append("sample_index is not 0, 1, 2, ... in file order")
    theta = column([f"theta_{k + 1}" for k in range(p)])
    if not np.array_equal(theta, cfg.box.sample(cfg.seed, n)[: len(rows)]):
        errors.append("theta columns differ from the box draws of this seed")

    march_failures = sum(
        r[f"N{N}_status"] != "completed" for r in rows for N in cfg.N_list
    )
    marched = column([f"N{n_max}_m_{j + 1}" for j in range(d)])
    usable = np.array([r[f"N{n_max}_status"] == "completed" for r in rows])

    if cfg.with_oracle:
        reference = column([f"oracle_m_{j + 1}" for j in range(d)])
        converged = np.array([r["oracle_converged"] == "true" for r in rows])
        for i in np.flatnonzero(converged):
            value, g = problem.objective_gradient(reference[i], theta[i])
            if np.linalg.norm(g) > 1e-8 * (1.0 + abs(value)):
                errors.append(f"oracle minimizer of sample {i} is not stationary")
            elif np.linalg.eigvalsh(problem.hessian(reference[i], theta[i]))[0] <= 0.0:
                errors.append(f"oracle minimizer of sample {i} is not a minimum")
    else:
        solves = [newton_solve(problem, th, nominal) for th in theta]
        reference = np.array([s.minimizer for s in solves]).reshape(len(rows), d)
        converged = np.array([s.converged for s in solves])
        if not converged.all():
            errors.append(f"{int((~converged).sum())} reference re-solves did not converge")
    oracle_failures = int((~converged).sum()) if cfg.with_oracle else 0

    ok = usable & converged
    err = np.linalg.norm(marched[ok] - reference[ok], axis=1)
    travel = np.linalg.norm(reference[ok] - nominal, axis=1)
    if not ok.any() or not np.all(np.isfinite(err)):
        errors.append("march error is undefined or not finite")

    with open(result_path, "w") as fh:
        json.dump(
            {
                "rows": len(rows),
                "n_list_len": len(cfg.N_list),
                "max_steps": n_max,
                "march_failures": int(march_failures),
                "oracle_failures": oracle_failures,
                "march_err": float(err.sum() / (travel**2).sum()) if ok.any() else None,
                "march_err_mean": float(err.mean()) if ok.any() else None,
                "errors": errors[:20],
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
