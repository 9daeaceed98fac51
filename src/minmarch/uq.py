"""Monte Carlo propagation of minimizers, density estimation, and convergence reports."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import DegenerateBandwidthError
from .marching import TABLEAUX, Anchor, MarchStatus, Scheme, anchor, march_block
from .newton import NewtonConfig, SolveResult, newton_solve_block, solve_nominal
from .problems.base import ParameterBox

SLOPE_FLOOR = 1e-13  # errors at roundoff level carry no rate information
KDE_PADDING = 4.0  # default kde grids extend this many bandwidths past the data
KDE_BLOCK_ELEMENTS = 2**14  # kernel values a 1-d kde evaluates at once: 128 kB, cache-sized
# samples a 2-d kde sums at once: on the default 101-point grid, two
# kernel matrices of 101 kB each; the density's bits depend on this value
KDE_JOINT_SAMPLES = 128
# most rows of the derivatives call that sizes a study's blocks (_block_estimate)
BLOCK_ESTIMATE_ROWS = 256
# the estimated march time of one block below which a study starts no worker
# process: below it, a worker's start-up and its contention for the cores
# cost more than the split saves (README gives the measurements, on 2 cores)
WORKER_MIN_BLOCK_S = 0.05


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
    a study run without the oracle.  ``write_samples_csv`` renders every
    column, one row per sample; ``manifest.json`` holds ``newton_config``,
    ``nominal`` and ``counters``, and its config the box the samples were
    drawn from.
    """

    N_list: list[int]
    newton_config: NewtonConfig
    nominal: SolveResult
    theta: np.ndarray
    march_finals: np.ndarray
    march_status: np.ndarray
    left_basin: np.ndarray
    oracle: SolveResult | None
    # work done by the run that produced the study, as manifest.json reports it
    counters: dict = field(default_factory=dict, compare=False)
    # seconds of the run's steps that manifest.json adds to its timings_sec
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def d(self) -> int:
        return self.nominal.minimizer.size

    @property
    def with_oracle(self) -> bool:
        return self.oracle is not None

    def finals(self, N: int) -> np.ndarray:
        return self.march_finals[self.N_list.index(N)]

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
    """A problem whose ``derivatives`` and ``values`` calls are tallied by the rows they pass."""

    def __init__(self, problem):
        self.problem = problem
        self.rows = 0
        self.value_rows = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def derivatives(self, M, Theta, dTheta=None):
        self.rows += len(M)
        return self.problem.derivatives(M, Theta, dTheta)

    def values(self, M, Theta):
        self.value_rows += len(M)
        return self.problem.values(M, Theta)


def _propagate_block(
    problem, start: Anchor, N_list, scheme, with_oracle, newton_config, thetas
) -> tuple:
    """Columns of one contiguous block of samples, thetas of shape (S, p).

    Returns ``march_finals``, ``march_status``, ``left_basin`` and ``oracle``
    in ``SampleStudy``'s layout for the block, and the work it did: its RHS
    evaluations, the rows it passed to ``problem.derivatives`` while marching
    and in the oracle, and the rows the oracle passed to ``problem.values``
    (a march calls ``derivatives`` only).  The block is marched in lockstep
    from ``start`` once per step count, and the Newton oracle re-solves it
    in lockstep once.
    """
    finals, statuses, left_basin = [], [], []
    rhs_evals = 0
    march_problem = _RowCounter(problem)
    for N in N_list:
        block = march_block(march_problem, start, thetas, N, scheme)
        rhs_evals += int(block.rhs_evals.sum())
        # a copy, so that the block's iterates are freed before the next step count
        finals.append(block.finals.copy())
        statuses.append(block.statuses)
        left_basin.append(block.left_basin)
    oracle_problem = _RowCounter(problem)
    oracle = None
    if with_oracle:
        oracle = newton_solve_block(oracle_problem, thetas, start.minimizer, newton_config)
    work = (rhs_evals, march_problem.rows, oracle_problem.rows, oracle_problem.value_rows)
    return np.array(finals), np.array(statuses), np.array(left_basin), oracle, work


def _join_blocks(blocks) -> tuple[dict, tuple]:
    """``SampleStudy`` columns of consecutive blocks, and their summed work counts."""
    finals, statuses, left_basin, oracles, work = zip(*blocks)
    oracle = None
    if oracles[0] is not None:
        oracle = SolveResult(
            *(np.concatenate([getattr(o, f.name) for o in oracles]) for f in fields(SolveResult))
        )
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
    import pickle
    import traceback

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
    no child outlives the call.  The modules a worker needs are imported
    here, so that a study of one block never loads them.
    """
    import multiprocessing
    import pickle

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


def _block_estimate(problem, minimizer, thetas, N_list, scheme: Scheme) -> float:
    """Seconds the marches of one block of samples thetas are estimated to take.

    A ``problem.derivatives`` call at the nominal minimizer, without
    directions, is timed and multiplied by the RHS evaluations a sample
    makes: the stages of ``scheme`` times sum(N_list).  The call takes the
    block's first BLOCK_ESTIMATE_ROWS rows at most, its time scaled to the
    block's rows.  A call's fixed cost is scaled too, so for a cheap problem
    the scaled time overestimates: when it reaches WORKER_MIN_BLOCK_S and
    the unscaled time does not, the call is timed over the whole block.
    """
    evaluations = len(TABLEAUX[scheme].nodes) * sum(N_list)

    def seconds(rows):
        M = np.repeat(minimizer[None], len(rows), axis=0)
        t0 = time.perf_counter()
        problem.derivatives(M, rows)
        return (time.perf_counter() - t0) * evaluations

    rows = thetas[:BLOCK_ESTIMATE_ROWS]
    estimate = seconds(rows)
    scaled = estimate * len(thetas) / len(rows)
    if estimate < WORKER_MIN_BLOCK_S <= scaled:
        return seconds(thetas)
    return scaled


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

    Every sample marches from one ``Anchor`` at the nominal minimizer with
    each step count in ``N_list``; with ``with_oracle`` each sample is also
    re-solved by Newton as ground truth, warm-started from that minimizer.
    Samples are taken in B contiguous blocks of near-equal size, B being
    ``min(workers, num_samples)`` or 1.  This process marches the first
    block, and each other block runs meanwhile in a process of its own.
    Each block is marched in lockstep once per step count (``march_block``)
    and re-solved in lockstep once (``newton_solve_block``), and returns its
    results as arrays; the study's columns are their concatenation in sample
    order.  A sample's march and re-solve do not depend on its block, so the
    output is independent of the worker count and of scheduling.

    With more than one block in prospect, a ``problem.derivatives`` call
    over the first block's first BLOCK_ESTIMATE_ROWS rows at most, at the
    nominal minimizer and without directions, is timed before any worker
    starts; scaled to the block and times the RHS evaluations per sample,
    it estimates one block's marches (``_block_estimate``, which times the
    whole block when the scaling alone would cross the threshold).  Below
    WORKER_MIN_BLOCK_S the study marches all samples as one block in this
    process, since starting and running worker processes would cost more
    than the split saves.  The choice follows a timing, so near the threshold
    ``counters["march_blocks"]`` can differ between runs of one config;
    the study's columns and other counters never do.  ``SampleStudy.timings``
    holds the seconds of the nominal solve and, when it was made, the
    estimate (``block_estimate``).

    Each worker process receives the problem and the block's other arguments
    pickled, whatever the platform's start method, so with more than one
    block the problem must pickle.  An exception in a worker is raised here.
    ``SampleStudy.counters`` reports the RHS evaluations (stage evaluations
    summed over samples and step counts), the number of sample blocks, the
    total oracle iterations and ``derivative_rows``: the rows passed to
    ``problem.derivatives`` while marching and by the oracle, and the rows
    the oracle's line search passes to ``problem.values`` (``oracle_values``;
    3.1 per sample on the shipped advdiff study, none on logistic1d).  The
    nominal solve, the anchor (see ``anchor``) and the sizing call are not
    counted, and each march takes its first stage from the anchor, so
    ``derivative_rows["march"] == rhs_evaluations - len(N_list) num_samples``
    exactly, aborted marches included, whatever the block count.
    """
    N_list = [int(N) for N in N_list]
    if not N_list or any(N < 1 for N in N_list) or len(set(N_list)) < len(N_list):
        raise ValueError("N_list must contain distinct positive step counts")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    scheme = Scheme(scheme)

    t0 = time.perf_counter()
    nominal = solve_nominal(problem, box, newton_config)
    timings = {"nominal": time.perf_counter() - t0}
    start = anchor(problem, nominal.minimizer, box.nominal)
    thetas = box.sample(seed, num_samples)
    blocks = min(workers, num_samples)
    if blocks > 1:
        first = thetas[: num_samples // blocks]
        estimate = _block_estimate(problem, nominal.minimizer, first, N_list, scheme)
        timings["block_estimate"] = estimate
        if estimate < WORKER_MIN_BLOCK_S:
            blocks = 1
    run = functools.partial(
        _propagate_block, problem, start, tuple(N_list), scheme, with_oracle, newton_config
    )
    bounds = [num_samples * k // blocks for k in range(blocks + 1)]
    tasks = [thetas[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    results = _run_blocks(run, tasks) if len(tasks) > 1 else [run(tasks[0])]
    columns, (rhs_evals, march_rows, oracle_rows, value_rows) = _join_blocks(results)
    oracle = columns["oracle"]
    counters = {
        "rhs_evaluations": rhs_evals,
        "march_blocks": len(tasks),
        "oracle_iterations": int(oracle.iterations.sum()) if oracle is not None else 0,
        "derivative_rows": {
            "march": march_rows, "oracle": oracle_rows, "oracle_values": value_rows
        },
    }
    return SampleStudy(
        N_list=N_list,
        newton_config=newton_config,
        nominal=nominal,
        theta=thetas,
        counters=counters,
        timings=timings,
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
    a = min(std, _interquartile_range(x) / 1.34) or std
    return 0.9 * a * n ** (-1.0 / (dimension + 4))


def _interquartile_range(x: np.ndarray) -> float:
    """``q75 - q25`` of ``np.percentile(x, [75, 25])`` bit for bit; NaN if x holds a NaN.

    numpy's linear rule written out: quantile q lies at the virtual index
    v = (n - 1) q between the order statistics k = floor(v) and k + 1 (n - 1
    at most), interpolated by numpy's ``_lerp`` with t = v - k.  A partition
    finds them; ``np.percentile`` would also import numpy.ma (through
    ``np.unique``), about 12 ms and 1.3 MB of a study's start.
    """
    last = x.size - 1
    spots = [(last * q, math.floor(last * q)) for q in (0.75, 0.25)]
    kth = sorted({last, *(k for _, k in spots), *(min(k + 1, last) for _, k in spots)})
    ordered = np.partition(x, kth)
    if np.isnan(ordered[last]):  # a partition puts NaN last, as a sort does
        return math.nan
    q75, q25 = (
        _lerp(float(ordered[k]), float(ordered[min(k + 1, last)]), v - k) for v, k in spots
    )
    return q75 - q25


def _lerp(a: float, b: float, t: float) -> float:
    """a + (b - a) t, computed from b where t >= 0.5, as numpy's quantiles do."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def shared_axis(columns, dimension: int, points: int) -> np.ndarray:
    """A grid over every column, padded by KDE_PADDING bandwidths of each."""
    lo = min(c.min() - KDE_PADDING * silverman_bandwidth(c, dimension) for c in columns)
    hi = max(c.max() + KDE_PADDING * silverman_bandwidth(c, dimension) for c in columns)
    return np.linspace(lo, hi, points)


def _gauss_kernels(grid: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    # (grid, samples) matrix of scaled kernels exp(-z^2 / 2) / (h sqrt(2 pi)),
    # z = (grid - x) / h, each step written over the first one's array
    k = np.subtract(grid[:, None], x[None, :])
    np.divide(k, h, out=k)
    np.square(k, out=k)
    np.multiply(-0.5, k, out=k)
    np.exp(k, out=k)
    return np.divide(k, h * np.sqrt(2.0 * np.pi), out=k)


def kde(values: np.ndarray, grid: tuple[np.ndarray, ...] | None = None) -> DensityEstimate:
    """Kernel density estimate of a 1d or 2d sample cloud.

    Bandwidths follow Silverman's rule per coordinate; two-dimensional
    estimates use a product kernel.  ``grid`` is a tuple of one axis per
    coordinate; the default grid extends KDE_PADDING bandwidths beyond the
    sample range so the estimate integrates to one on the grid.  A 1d
    estimate holds KDE_BLOCK_ELEMENTS kernel values (or one grid row) at a
    time.  A 2d one sums the product kernels of KDE_JOINT_SAMPLES samples
    at a time with ``np.einsum`` (no BLAS call), so its memory does not grow
    with n and its bits depend on the samples, the grid and that constant
    only, not on the BLAS thread count.
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
        density = np.zeros((axes[0].size, axes[1].size))
        for a in range(0, n, KDE_JOINT_SAMPLES):
            block = values[a : a + KDE_JOINT_SAMPLES]
            kx = _gauss_kernels(axes[0], block[:, 0], bw[0])
            ky = _gauss_kernels(axes[1], block[:, 1], bw[1])
            # einsum's default optimize=False sums in its own loop, never through BLAS
            density += np.einsum("is,js->ij", kx, ky)
        density /= n
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
    """Least-squares slope of log(error) vs log(h); NaN when under-determined.

    Only finite errors above ``floor`` count, and fewer than three of them
    give NaN.  The slope is the closed form sum(x y) / sum(x^2) of the
    centred x = log h and y = log error, with no LAPACK call.
    """
    h = np.asarray(h, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = np.isfinite(errors) & (errors > floor)
    if mask.sum() < 3:
        return float("nan")
    x, y = np.log(h[mask]), np.log(errors[mask])
    x -= x.mean()
    y -= y.mean()
    return float((x * y).sum() / (x * x).sum())


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

    oracle = study.oracle.minimizer[mask]
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

