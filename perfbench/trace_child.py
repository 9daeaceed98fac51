"""Traced serial `minmarch study`: times and counts the calls into each layer.

Usage: python3 perfbench/trace_child.py RESULT_JSON STUDY_ARG...

The study runs through ``minmarch.cli.main`` as in an untraced run, with
``--workers 1`` appended: the fork pool would lose the spans its workers
record.  Each layer's public functions are replaced, in the module where the
caller looks the name up, by a wrapper that records a span.  Problem methods
are traced through a proxy problem handed to ``propagate_study``; gradients
taken inside the finite-difference helpers are counted by wrapping the
callable those helpers receive.

Spans are aggregated in memory as they close: per layer the call count, the
total time and the self time (total minus the time of spans nested inside).
A sample begins when ``march`` is called with a new parameter-line endpoint;
calls made while a sample is open are also counted per sample, so the
structural counts can be checked sample by sample.  The aggregate goes to
RESULT_JSON when the study ends.
"""

import json
import os
import sys
import time
from collections import Counter, defaultdict

# calls made inside a right-hand-side evaluation are also counted apart, e.g.
# the tridiagonal solves per evaluation
RHS = "sensitivity.post_optimality_apply"


class Tracer:
    """Per-layer span aggregates of one traced study (see the module docstring)."""

    def __init__(self):
        self.count = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.within_rhs = Counter()
        self.per_sample: list[Counter] = []
        self.march_by_steps = defaultdict(lambda: [0, 0.0])
        self.oracle_iterations = 0
        self.bytes_written = 0
        self._rhs_depth = 0
        self._child_time: list[float] = []
        self._sample_end = None

    def call(self, name, fn, args, kwargs):
        self.count[name] += 1
        if self._sample_end is not None:
            self.per_sample[-1][name] += 1
        if self._rhs_depth:
            self.within_rhs[name] += 1
        self._rhs_depth += name == RHS
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            inner = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            self._rhs_depth -= name == RHS
            self.total[name] += elapsed
            self.self_time[name] += elapsed - inner

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def march(self, fn):
        def traced(problem, start_minimizer, line, config, *args, **kwargs):
            end = line.end.tobytes()
            if end != self._sample_end:
                self._sample_end = end
                self.per_sample.append(Counter())
            t0 = time.perf_counter()
            out = self.call(
                "marching.march", fn, (problem, start_minimizer, line, config, *args), kwargs
            )
            tally = self.march_by_steps[config.num_steps]
            tally[0] += 1
            tally[1] += time.perf_counter() - t0
            return out

        return traced

    def propagate(self, fn):
        def traced(problem, *args, **kwargs):
            proxy = TracedProblem(problem, self)
            try:
                return self.call("uq.propagate_study", fn, (proxy, *args), kwargs)
            finally:
                self._sample_end = None

        return traced

    def oracle(self, fn):
        def traced(*args, **kwargs):
            result = self.call("newton.newton_solve", fn, args, kwargs)
            self.oracle_iterations += result.iterations
            return result

        return traced

    def writer(self, fn):
        def traced(path, *args, **kwargs):
            out = self.call("reporting.write", fn, (path, *args), kwargs)
            self.bytes_written += os.path.getsize(path)
            return out

        return traced

    def fd_helper(self, name, fn):
        """Wrap a finite-difference helper whose first argument is a gradient."""

        def traced(func, *args, **kwargs):
            return self.call(name, fn, (self.wrap("problems.gradient", func), *args), kwargs)

        return traced


class TracedProblem:
    """Proxy that records a span for every call into the wrapped problem."""

    _METHODS = {
        "objective": "problems.objective",
        "gradient": "problems.gradient",
        "objective_gradient": "problems.gradient",
        "hessian": "problems.hessian",
        "hessian_and_mixed": "problems.hessian_and_mixed",
        "in_basin": "problems.in_basin",
    }

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        for method, span in self._METHODS.items():
            setattr(self, method, tracer.wrap(span, getattr(problem, method)))

    def __getattr__(self, name):
        return getattr(self._problem, name)


def patch(module, name: str, make) -> None:
    """Replace module.name by make(original); names a refactor removed are skipped."""
    original = getattr(module, name, None)
    if original is not None:
        setattr(module, name, make(original))


def main(argv: list[str]) -> int:
    result_path, study_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import minmarch.cli as cli

    import_s = time.perf_counter() - t0
    import minmarch.marching as marching
    import minmarch.problems.advdiff as advdiff
    import minmarch.uq as uq
    from minmarch.problems.base import ParameterBox

    tracer = Tracer()
    span = tracer.wrap
    patch(uq, "march", tracer.march)
    patch(uq, "newton_solve", tracer.oracle)
    patch(uq, "solve_nominal", lambda f: span("newton.solve_nominal", f))
    patch(marching, "post_optimality_apply", lambda f: span(RHS, f))
    patch(advdiff, "solve_banded", lambda f: span("problems.solve_banded", f))
    patch(advdiff, "fd_second_derivatives",
          lambda f: tracer.fd_helper("derivatives.fd_second_derivatives", f))
    patch(advdiff, "fd_jacobian", lambda f: tracer.fd_helper("derivatives.fd_jacobian", f))
    patch(ParameterBox, "sample", lambda f: span("uq.sample", f))
    patch(cli, "build_problem", lambda f: span("cli.build_problem", f))
    patch(cli, "summary_errors", lambda f: span("uq.summary_errors", f))
    patch(cli, "kde", lambda f: span("uq.kde", f))
    patch(cli, "propagate_study", tracer.propagate)
    for name in dir(cli):
        if name.startswith(("write_", "save_")):
            patch(cli, name, tracer.writer)

    status = cli.main(["study", *study_args, "--workers", "1"])

    per_sample = {}
    for name in sorted({n for c in tracer.per_sample for n in c}):
        per_sample[name] = [c[name] for c in tracer.per_sample]
    with open(result_path, "w") as fh:
        json.dump(
            {
                "status": status,
                "import_s": import_s,
                "samples": len(tracer.per_sample),
                "count": tracer.count,
                "total_s": tracer.total,
                "self_s": tracer.self_time,
                "within_rhs": tracer.within_rhs,
                "per_sample": per_sample,
                "march_by_steps": tracer.march_by_steps,
                "oracle_iterations": tracer.oracle_iterations,
                "bytes_written": tracer.bytes_written,
            },
            fh,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
