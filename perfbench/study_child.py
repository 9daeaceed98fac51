"""One `minmarch study` in a fresh interpreter, started by run.py.

Usage: python3 perfbench/study_child.py RESULT_JSON STUDY_ARG...

Runs ``minmarch.cli.main(["study", *STUDY_ARGS])`` exactly as a user would,
with two single-call timers around it: one records the clocks when the
nominal minimizer exists (the end of set-up), the other times the
``propagate_study`` call.  Peak resident memory covers this process and
the pool workers it has reaped.  Results go to RESULT_JSON.
"""

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    result_path, study_args = argv[0], argv[1:]
    import minmarch.cli as cli
    import minmarch.uq as uq

    marks: dict[str, float] = {}
    solve_nominal = uq.solve_nominal
    propagate_study = cli.propagate_study

    def timed_solve_nominal(*args, **kwargs):
        result = solve_nominal(*args, **kwargs)
        marks["nominal_at"] = time.monotonic()
        return result

    def timed_propagate_study(*args, **kwargs):
        t0 = time.perf_counter()
        study = propagate_study(*args, **kwargs)
        marks["propagate_s"] = time.perf_counter() - t0
        return study

    uq.solve_nominal = timed_solve_nominal
    cli.propagate_study = timed_propagate_study
    status = cli.main(["study", *study_args])

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(result_path, "w") as fh:
        json.dump({**marks, "status": status, "peak_rss_kb": peak_kb}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
