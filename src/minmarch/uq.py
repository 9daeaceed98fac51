"""Monte Carlo propagation of minimizers, density estimation, and convergence reports."""

from __future__ import annotations

import functools
import multiprocessing
import pickle
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import DegenerateBandwidthError
from .marching import MarchStatus, Scheme, march_block
from .newton import NewtonConfig, SolveResult, newton_solve_block, solve_nominal
from .problems.base import ParameterBox
from .sensitivity import ParameterLine

SLOPE_FLOOR = 1e-13  # errors at roundoff level carry no rate information
KDE_PADDING = 4.0  # default kde grids extend this many bandwidths past the data
KDE_BLOCK_ELEMENTS = 2**14  # kernel values a 1-d kde evaluates at once: 128 kB, cache-sized
# the SolveResult fields study.json records per sample
_ORACLE_COLUMNS = [f.name for f in fields(SolveResult) if f.name != "history"]


@dataclass
class SampleStudy:
    """All per-sample results of one uncertainty-propagation run, as columns.

    Sample s is row s of ``theta`` (S, p) and of every column.  Per step
    count, in ``N_list`` order, ``march_finals`` (len(N_list), S, d) holds
    the last good state of each march, ``march_status`` (len(N_list), S) its
    ``MarchStatus`` value as a string (``BlockMarch.statuses``) and
    ``left_basin`` whether an iterate left the problem's basin hint; compare
    statuses with ``MarchStatus.COMPLETED.value``, since numpy renders a
    member by its name.  ``oracle`` is the Newton re-solve of every sample
    as one stacked ``SolveResult`` (see ``newton_solve_block``), or None for
    a study run without the oracle.
    """

    box: ParameterBox
    seed: int
    num_samples: int
    N_list: list[int]
    scheme: Scheme
    newton_config: NewtonConfig
    nominal: SolveResult
    theta: np.ndarray
    march_finals: np.ndarray
    march_status: np.ndarray
    left_basin: np.ndarray
    oracle: SolveResult | None
    # work done by the run that produced the study; not part of study.json
    counters: dict = field(default_factory=dict, compare=False)

    @property
    def d(self) -> int:
        return self.nominal.minimizer.size

    @property
    def with_oracle(self) -> bool:
        return self.oracle is not None

    def finals(self, N: int) -> np.ndarray:
        return self.march_finals[self.N_list.index(N)]

    def oracle_minimizers(self) -> np.ndarray:
        return self.oracle.minimizer

    def valid_mask(self) -> np.ndarray:
        """Samples where every march completed and the oracle (if any) converged."""
        ok = (self.march_status == MarchStatus.COMPLETED.value).all(axis=0)
        return ok & self.oracle.converged if self.with_oracle else ok

    def failure_counts(self) -> dict:
        aborted = (self.march_status != MarchStatus.COMPLETED.value).sum(axis=1)
        aborted = dict(zip(self.N_list, aborted.tolist()))
        not_converged = int((~self.oracle.converged).sum()) if self.with_oracle else 0
        return {"march_aborted": aborted, "newton_not_converged": not_converged}


class _RowCounter:
    """A problem whose ``derivatives`` calls are tallied by the rows they pass."""

    def __init__(self, problem):
        self.problem = problem
        self.rows = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def derivatives(self, M, Theta, dTheta=None):
        self.rows += len(M)
        return self.problem.derivatives(M, Theta, dTheta)


def _propagate_block(
    problem, nominal_theta, start, N_list, scheme, with_oracle, newton_config, thetas
) -> tuple:
    """Columns of one contiguous block of samples, thetas of shape (S, p).

    Returns ``march_finals``, ``march_status``, ``left_basin`` and ``oracle``
    in ``SampleStudy``'s layout for the block, and the work it did: its RHS
    evaluations and the rows it passed to ``problem.derivatives`` while
    marching and in the oracle.  The block is marched in lockstep once per
    step count, and the Newton oracle re-solves it in lockstep once.
    """
    lines = ParameterLine(nominal_theta, thetas)
    finals, statuses, left_basin = [], [], []
    rhs_evals = 0
    march_problem = _RowCounter(problem)
    for N in N_list:
        block = march_block(march_problem, start, lines, N, scheme)
        rhs_evals += int(block.rhs_evals.sum())
        # a copy, so that the block's iterates are freed before the next step count
        finals.append(block.finals.copy())
        statuses.append(block.statuses)
        left_basin.append(block.left_basin)
    oracle_problem = _RowCounter(problem)
    oracle = (
        newton_solve_block(oracle_problem, thetas, start, newton_config) if with_oracle else None
    )
    work = (rhs_evals, march_problem.rows, oracle_problem.rows)
    return np.array(finals), np.array(statuses), np.array(left_basin), oracle, work


def _join_blocks(blocks) -> tuple[dict, tuple]:
    """``SampleStudy`` columns of consecutive blocks, and their summed work counts."""
    finals, statuses, left_basin, oracles, work = zip(*blocks)
    oracle = None
    if oracles[0] is not None:
        stacked = {key: [getattr(o, key) for o in oracles] for key in _ORACLE_COLUMNS}
        oracle = SolveResult(**{key: np.concatenate(c) for key, c in stacked.items()})
    columns = {
        "march_finals": np.concatenate(finals, axis=1),
        "march_status": np.concatenate(statuses, axis=1),
        "left_basin": np.concatenate(left_basin, axis=1),
        "oracle": oracle,
    }
    return columns, tuple(map(sum, zip(*work)))


class _WorkerTraceback(Exception):
    """A worker's formatted traceback: the cause of its exception raised again here."""

    def __str__(self):
        return "\n" + self.args[0]


def _run_child(payload: bytes, thetas, sender) -> None:
    """A block's worker process: sends (the block's result, None) or (its error, traceback).

    An error that does not come back from pickle is sent as a RuntimeError
    naming its type and message.
    """
    try:
        sender.send((pickle.loads(payload)(thetas), None))
    except Exception as exc:
        trace = "".join(traceback.format_exception(exc))
        try:
            exc = pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"a block worker raised {type(exc).__qualname__}: {exc}")
        sender.send((exc, trace))


def _run_blocks(run, tasks) -> list:
    """``run`` of each block: the first in this process, each other one in a child process.

    ``run`` reaches each child pickled, under every start method.  A child's
    exception is raised here, chained from its traceback in the child, and
    no child outlives the call.
    """
    payload, children = pickle.dumps(run), []
    try:
        for thetas in tasks[1:]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            args = (payload, thetas, sender)
            child = multiprocessing.Process(target=_run_child, args=args, daemon=True)
            child.start()
            children.append((child, receiver))
            sender.close()
        results = [run(tasks[0])]
        for child, receiver in children:
            # receive before joining: a result larger than the pipe buffer blocks its sender
            try:
                value, trace = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a block worker exited with code {child.exitcode}") from None
            if trace is not None:
                raise value from _WorkerTraceback(trace)
            results.append(value)
        return results
    finally:
        for child, _ in children:
            child.terminate()
            child.join()


def propagate_study(
    problem,
    box: ParameterBox,
    num_samples: int,
    N_list,
    seed: int,
    with_oracle: bool = True,
    scheme: Scheme = Scheme.FORWARD_EULER,
    newton_config: NewtonConfig = NewtonConfig(),
    workers: int = 1,
) -> SampleStudy:
    """Run the full propagation: one nominal solve, then a march per sample.

    Every sample marches from the single nominal minimizer with each step
    count in ``N_list``; with ``with_oracle`` each sample is also re-solved by
    Newton as ground truth, warm-started from the nominal minimizer.
    Samples are taken in ``min(workers, num_samples)`` contiguous blocks of
    near-equal size.  This process marches the first block, and each other
    block runs meanwhile in a process of its own.  Each block is marched in
    lockstep once per step count (``march_block``) and re-solved in lockstep
    once (``newton_solve_block``), and returns its results as arrays; the
    study's columns are their concatenation in sample order.  A sample's
    march and re-solve do not depend on its block, so the output is
    independent of the worker count and of scheduling.  Each worker process
    receives the problem and the block's other arguments pickled, whatever
    the platform's start method, so with more than one block the problem
    must pickle.  An exception in a worker is raised here.
    ``SampleStudy.counters`` reports the RHS evaluations (stage evaluations
    summed over samples and step counts), the number of sample blocks, the
    total oracle iterations and ``derivative_rows``, the rows passed to
    ``problem.derivatives`` while marching and by the oracle; the rows the
    oracle's line search passes to ``problem.values`` are not counted (3.1
    per sample on the shipped advdiff study, beside 7.2 counted).  Each march
    evaluates its first stage of step 0 from one p-row call at the nominal
    point shared by its block (see ``march_block``), so with B blocks,
    K = len(N_list) step counts and p parameters

        derivative_rows["march"] = rhs_evaluations - K (num_samples - B p)

    exactly, aborted marches included; without the sharing it would equal
    rhs_evaluations + K B.
    """
    N_list = [int(N) for N in N_list]
    if not N_list or any(N < 1 for N in N_list) or len(set(N_list)) < len(N_list):
        raise ValueError("N_list must contain distinct positive step counts")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    scheme = Scheme(scheme)

    nominal = solve_nominal(problem, box, newton_config)
    thetas = box.sample(seed, num_samples)
    run = functools.partial(
        _propagate_block,
        problem, box.nominal, nominal.minimizer, tuple(N_list), scheme, with_oracle, newton_config,
    )
    bounds = [num_samples * k // workers for k in range(workers + 1)]
    tasks = [thetas[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    results = _run_blocks(run, tasks) if len(tasks) > 1 else [run(tasks[0])]
    columns, (rhs_evals, march_rows, oracle_rows) = _join_blocks(results)
    oracle = columns["oracle"]
    counters = {
        "rhs_evaluations": rhs_evals,
        "march_blocks": len(tasks),
        "oracle_iterations": int(oracle.iterations.sum()) if oracle is not None else 0,
        "derivative_rows": {"march": march_rows, "oracle": oracle_rows},
    }
    return SampleStudy(
        box=box,
        seed=seed,
        num_samples=num_samples,
        N_list=N_list,
        scheme=scheme,
        newton_config=newton_config,
        nominal=nominal,
        theta=thetas,
        counters=counters,
        **columns,
    )


# ---------------------------------------------------------------------------
# density estimation


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian-kernel density on a tensor grid (1d or 2d)."""

    dimension: int
    axes: tuple[np.ndarray, ...]
    density: np.ndarray
    bandwidth: np.ndarray


def silverman_bandwidth(x: np.ndarray, dimension: int = 1) -> float:
    """Rule-of-thumb bandwidth: 0.9 min(std, IQR/1.34) n^(-1/(d+4)).

    When the IQR is 0 but the spread is not, the std alone sets the scale
    (Silverman 1986, section 3.4.2; R's ``bw.nrd0`` does the same).
    """
    n = x.size
    std = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75, 25])
    a = min(std, (q75 - q25) / 1.34) or std
    return 0.9 * a * n ** (-1.0 / (dimension + 4))


def shared_axis(columns, dimension: int, points: int) -> np.ndarray:
    """A grid over every column, padded by KDE_PADDING bandwidths of each."""
    lo = min(c.min() - KDE_PADDING * silverman_bandwidth(c, dimension) for c in columns)
    hi = max(c.max() + KDE_PADDING * silverman_bandwidth(c, dimension) for c in columns)
    return np.linspace(lo, hi, points)


def _gauss_kernels(grid: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    # (grid, samples) matrix of scaled kernels
    z = (grid[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z**2) / (h * np.sqrt(2.0 * np.pi))


def kde(values: np.ndarray, grid: tuple[np.ndarray, ...] | None = None) -> DensityEstimate:
    """Kernel density estimate of a 1d or 2d sample cloud.

    Bandwidths follow Silverman's rule per coordinate; two-dimensional
    estimates use a product kernel.  ``grid`` is a tuple of one axis per
    coordinate; the default grid extends KDE_PADDING bandwidths beyond the
    sample range so the estimate integrates to one on the grid.  A 1d
    estimate holds KDE_BLOCK_ELEMENTS kernel values (or one grid row) at a
    time, a 2d one a (grid, n) kernel matrix per axis.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n, d = values.shape
    if n < 30:
        raise ValueError(f"kde needs at least 30 samples, got {n}")
    if d not in (1, 2):
        raise ValueError("kde supports 1 or 2 dimensions")

    bw = np.array([silverman_bandwidth(values[:, k], d) for k in range(d)])
    if np.any(bw <= 0.0):
        k = int(np.argmin(bw))
        raise DegenerateBandwidthError(
            f"coordinate {k + 1} has zero spread; density estimate is degenerate"
        )

    if grid is None:
        axes = tuple(shared_axis([values[:, k]], d, 401 if d == 1 else 101) for k in range(d))
    else:
        axes = tuple(np.asarray(g, dtype=float) for g in grid)
        if len(axes) != d:
            raise ValueError(f"grid must supply {d} axis/axes")

    if d == 1:
        # a block of grid rows at a time: a row's mean has the same bits in any block
        axis, rows = axes[0], max(1, KDE_BLOCK_ELEMENTS // n)
        density = np.empty(axis.size)
        for a in range(0, axis.size, rows):
            density[a : a + rows] = _gauss_kernels(axis[a : a + rows], values[:, 0], bw[0]).mean(1)
    else:
        kx = _gauss_kernels(axes[0], values[:, 0], bw[0])
        ky = _gauss_kernels(axes[1], values[:, 1], bw[1])
        density = (kx @ ky.T) / n
    return DensityEstimate(d, axes, density, bw)


# ---------------------------------------------------------------------------
# convergence statistics


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors of the marched minimizers against the oracle, per step count.

    ``errors`` has one row per N (columns per decision coordinate for the
    mean and std reports, a single column for the per-sample report).
    ``slopes`` holds least-squares log-log slopes of error against h, NaN
    where fewer than three informative points remain after dropping
    roundoff-level errors.
    """

    N_list: tuple[int, ...]
    h: np.ndarray
    errors: np.ndarray
    slopes: np.ndarray


@dataclass(frozen=True)
class StudyErrorSummary:
    mean: ConvergenceReport
    std: ConvergenceReport
    per_sample: ConvergenceReport


def fit_loglog_slope(h, errors, floor: float = SLOPE_FLOOR) -> float:
    """Least-squares slope of log(error) vs log(h); NaN when under-determined."""
    h = np.asarray(h, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = np.isfinite(errors) & (errors > floor)
    if mask.sum() < 3:
        return float("nan")
    return float(np.polyfit(np.log(h[mask]), np.log(errors[mask]), 1)[0])


def summary_errors(study: SampleStudy) -> StudyErrorSummary:
    """Mean, standard-deviation, and per-sample error reports against the oracle.

    Statistics use the common subset of samples for which every march
    completed and the oracle converged, so all step counts are compared
    against the same reference.
    """
    if not study.with_oracle:
        raise ValueError("summary_errors requires a study run with the oracle")
    mask = study.valid_mask()
    if mask.sum() < 2:
        raise ValueError("not enough valid samples to form statistics")

    oracle = study.oracle_minimizers()[mask]
    o_mean = oracle.mean(axis=0)
    o_std = oracle.std(axis=0, ddof=1)

    N_list = tuple(study.N_list)
    h = np.array([1.0 / N for N in N_list])
    d = study.d
    mean_err = np.empty((len(N_list), d))
    std_err = np.empty((len(N_list), d))
    ps_err = np.empty(len(N_list))
    for i, N in enumerate(N_list):
        E = study.finals(N)[mask]
        mean_err[i] = np.abs(E.mean(axis=0) - o_mean)
        std_err[i] = np.abs(E.std(axis=0, ddof=1) - o_std)
        ps_err[i] = np.mean(np.linalg.norm(E - oracle, axis=1))

    def report(errs):
        errs2d = errs if errs.ndim == 2 else errs[:, None]
        slopes = np.array([fit_loglog_slope(h, errs2d[:, k]) for k in range(errs2d.shape[1])])
        return ConvergenceReport(N_list, h, errs, slopes)

    return StudyErrorSummary(
        mean=report(mean_err),
        std=report(std_err),
        per_sample=report(ps_err),
    )

