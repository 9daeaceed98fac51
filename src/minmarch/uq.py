"""Monte Carlo propagation of minimizers, density estimation, and convergence reports."""

from __future__ import annotations

import enum
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateBandwidthError
from .marching import MarchConfig, MarchStatus, Scheme, march_block
from .newton import NewtonConfig, SolveResult, newton_solve_block, solve_nominal, to_json_dict
from .problems.base import ParameterBox
from .sensitivity import ParameterLine

SLOPE_FLOOR = 1e-13  # errors at roundoff level carry no rate information
KDE_PADDING = 4.0  # default kde grids extend this many bandwidths past the data


@dataclass(frozen=True)
class MarchOutcome:
    """Endpoint of one march: the last good state and how the march ended."""

    final_state: np.ndarray
    status: MarchStatus
    left_basin: bool = False


@dataclass
class SampleRecord:
    index: int
    theta: np.ndarray
    outcomes: dict[int, MarchOutcome]
    oracle: SolveResult | None = None


@dataclass
class SampleStudy:
    """All per-sample results of one uncertainty-propagation run."""

    box: ParameterBox
    seed: int
    num_samples: int
    N_list: list[int]
    scheme: Scheme
    with_oracle: bool
    newton_config: NewtonConfig
    nominal: SolveResult
    records: list[SampleRecord]
    # work done by the run that produced the study; not part of study.json
    counters: dict = field(default_factory=dict, compare=False)

    @property
    def d(self) -> int:
        return self.nominal.minimizer.size

    def finals(self, N: int) -> np.ndarray:
        return np.vstack([r.outcomes[N].final_state for r in self.records])

    def oracle_minimizers(self) -> np.ndarray:
        return np.vstack([r.oracle.minimizer for r in self.records])

    def valid_mask(self) -> np.ndarray:
        """Samples where every march completed and the oracle (if any) converged."""
        ok = np.ones(len(self.records), dtype=bool)
        for i, rec in enumerate(self.records):
            if any(
                rec.outcomes[N].status is not MarchStatus.COMPLETED
                for N in self.N_list
            ):
                ok[i] = False
            if self.with_oracle and (rec.oracle is None or not rec.oracle.converged):
                ok[i] = False
        return ok

    def failure_counts(self) -> dict:
        aborted = {
            N: sum(
                1
                for r in self.records
                if r.outcomes[N].status is not MarchStatus.COMPLETED
            )
            for N in self.N_list
        }
        not_converged = (
            sum(1 for r in self.records if r.oracle is not None and not r.oracle.converged)
            if self.with_oracle
            else 0
        )
        return {"march_aborted": aborted, "newton_not_converged": not_converged}

    def to_dict(self) -> dict:
        return {
            "box": {
                "nominal": self.box.nominal.tolist(),
                "half_widths": self.box.half_widths.tolist(),
            },
            "seed": self.seed,
            "num_samples": self.num_samples,
            "N_list": [int(N) for N in self.N_list],
            "scheme": self.scheme.value,
            "with_oracle": self.with_oracle,
            "newton_config": to_json_dict(self.newton_config),
            "nominal": to_json_dict(self.nominal),
            "records": [
                {
                    "index": r.index,
                    "theta": r.theta.tolist(),
                    "outcomes": {
                        str(N): {
                            "final_state": o.final_state.tolist(),
                            "status": o.status.value,
                            "left_basin": o.left_basin,
                        }
                        for N, o in r.outcomes.items()
                    },
                    "oracle": to_json_dict(r.oracle) if r.oracle else None,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleStudy":
        records = [
            SampleRecord(
                index=rec["index"],
                theta=np.asarray(rec["theta"], dtype=float),
                outcomes={
                    int(N): MarchOutcome(
                        final_state=np.asarray(o["final_state"], dtype=float),
                        status=MarchStatus(o["status"]),
                        left_basin=o["left_basin"],
                    )
                    for N, o in rec["outcomes"].items()
                },
                oracle=_solve_result_from_dict(rec["oracle"]) if rec["oracle"] else None,
            )
            for rec in data["records"]
        ]
        return cls(
            box=ParameterBox(
                np.asarray(data["box"]["nominal"], dtype=float),
                np.asarray(data["box"]["half_widths"], dtype=float),
            ),
            seed=data["seed"],
            num_samples=data["num_samples"],
            N_list=[int(N) for N in data["N_list"]],
            scheme=Scheme(data["scheme"]),
            with_oracle=data["with_oracle"],
            newton_config=NewtonConfig(**data["newton_config"]),
            nominal=_solve_result_from_dict(data["nominal"]),
            records=records,
        )


def _solve_result_from_dict(data: dict) -> SolveResult:
    return SolveResult(**{**data, "minimizer": np.asarray(data["minimizer"], dtype=float)})


@dataclass(frozen=True)
class _StudyPayload:
    problem: object
    nominal_theta: np.ndarray
    start: np.ndarray
    N_list: tuple[int, ...]
    scheme: Scheme
    with_oracle: bool
    newton_config: NewtonConfig


def _propagate_block(payload: _StudyPayload, task) -> tuple[list[SampleRecord], int]:
    """Records of one contiguous block of samples, and the RHS evaluations it made.

    ``task`` is (index of the first sample, thetas of shape (S, p)).  The
    block is marched in lockstep once per step count, and the Newton oracle
    re-solves it in lockstep once.
    """
    first, thetas = task
    lines = ParameterLine(payload.nominal_theta, thetas)
    outcomes: list[dict[int, MarchOutcome]] = [{} for _ in thetas]
    rhs_evals = 0
    for N in payload.N_list:
        block = march_block(payload.problem, payload.start, lines, MarchConfig(N, payload.scheme))
        rhs_evals += int(block.rhs_evals.sum())
        # a copy, so that the block's iterates are freed before the next step count
        finals = block.finals.copy()
        for by_N, final, status, left in zip(
            outcomes, finals, block.statuses, block.left_basin.tolist()
        ):
            by_N[N] = MarchOutcome(final, status, left)
    oracles = (
        newton_solve_block(payload.problem, thetas, payload.start, payload.newton_config)
        if payload.with_oracle
        else [None] * len(thetas)
    )
    records = [
        SampleRecord(first + s, theta, by_N, oracle)
        for s, (theta, by_N, oracle) in enumerate(zip(thetas, outcomes, oracles))
    ]
    return records, rhs_evals


_WORKER_PAYLOAD: _StudyPayload | None = None


def _init_worker(payload):
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _worker_task(task):
    return _propagate_block(_WORKER_PAYLOAD, task)


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
    Samples are taken in contiguous blocks: one block with one worker,
    ``workers * 8`` blocks spread over a pool of ``workers`` processes
    otherwise.  Each block is marched in lockstep once per step count
    (``march_block``) and re-solved in lockstep once
    (``newton_solve_block``).  A sample's march and re-solve do not depend
    on its block, and records are assembled in sample order, so the output
    is independent of the worker count and of scheduling.  The pool uses the
    platform's default start method; under spawn or forkserver the problem
    must pickle.  ``SampleStudy.counters`` reports the RHS evaluations (stage
    evaluations summed over samples and step counts), the number of sample
    blocks and the total oracle iterations.
    """
    N_list = [int(N) for N in N_list]
    if not N_list or any(N < 1 for N in N_list):
        raise ValueError("N_list must contain positive step counts")
    scheme = Scheme(scheme)

    nominal = solve_nominal(problem, box, newton_config)
    thetas = box.sample(seed, num_samples)
    payload = _StudyPayload(
        problem=problem,
        nominal_theta=box.nominal,
        start=nominal.minimizer,
        N_list=tuple(N_list),
        scheme=scheme,
        with_oracle=with_oracle,
        newton_config=newton_config,
    )

    if workers > 1 and num_samples > 1:
        blocks = workers * 8
        bounds = [num_samples * k // blocks for k in range(blocks + 1)]
        tasks = [(a, thetas[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with multiprocessing.Pool(
            workers, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            results = pool.map(_worker_task, tasks, chunksize=1)
    else:
        tasks = [(0, thetas)]
        results = [_propagate_block(payload, tasks[0])]

    records = [rec for block_records, _ in results for rec in block_records]
    counters = {
        "rhs_evaluations": sum(evals for _, evals in results),
        "march_blocks": len(tasks),
        "oracle_iterations": sum(r.oracle.iterations for r in records if r.oracle),
    }
    return SampleStudy(
        box=box,
        seed=seed,
        num_samples=num_samples,
        N_list=N_list,
        scheme=scheme,
        with_oracle=with_oracle,
        newton_config=newton_config,
        nominal=nominal,
        records=records,
        counters=counters,
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
    kernel: str = "gaussian"

    def integral(self) -> float:
        if self.dimension == 1:
            return float(np.trapezoid(self.density, self.axes[0]))
        inner = np.trapezoid(self.density, self.axes[1], axis=1)
        return float(np.trapezoid(inner, self.axes[0]))


def silverman_bandwidth(x: np.ndarray, dimension: int = 1) -> float:
    """Rule-of-thumb bandwidth: 0.9 min(std, IQR/1.34) n^(-1/(d+4))."""
    n = x.size
    std = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75, 25])
    a = min(std, (q75 - q25) / 1.34)
    return 0.9 * a * n ** (-1.0 / (dimension + 4))


def _gauss_columns(grid: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    # (grid, samples) matrix of scaled kernels
    z = (grid[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z**2) / (h * np.sqrt(2.0 * np.pi))


def kde(
    values: np.ndarray,
    grid: tuple[np.ndarray, ...] | np.ndarray | None = None,
    num_points: int | None = None,
) -> DensityEstimate:
    """Kernel density estimate of a 1d or 2d sample cloud.

    Bandwidths follow Silverman's rule per coordinate; two-dimensional
    estimates use a product kernel.  The default grid extends KDE_PADDING
    bandwidths beyond the sample range so the estimate integrates to one on
    the grid.
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
        pts = num_points or (401 if d == 1 else 101)
        axes = tuple(
            np.linspace(
                values[:, k].min() - KDE_PADDING * bw[k],
                values[:, k].max() + KDE_PADDING * bw[k],
                pts,
            )
            for k in range(d)
        )
    else:
        axes = (np.asarray(grid, dtype=float),) if isinstance(grid, np.ndarray) else tuple(
            np.asarray(g, dtype=float) for g in grid
        )
        if len(axes) != d:
            raise ValueError(f"grid must supply {d} axis/axes")

    if d == 1:
        density = _gauss_columns(axes[0], values[:, 0], bw[0]).mean(axis=1)
    else:
        kx = _gauss_columns(axes[0], values[:, 0], bw[0])
        ky = _gauss_columns(axes[1], values[:, 1], bw[1])
        density = (kx @ ky.T) / n
    return DensityEstimate(d, axes, density, bw)


# ---------------------------------------------------------------------------
# convergence statistics


class Statistic(str, enum.Enum):
    MEAN = "mean"
    STD = "std"
    PER_SAMPLE = "per_sample"


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors of the marched minimizers against the oracle, per step count.

    ``errors`` has one row per N (columns per decision coordinate for MEAN
    and STD, a single column for PER_SAMPLE).  ``slopes`` holds least-squares
    log-log slopes of error against h, NaN where fewer than three informative
    points remain after dropping roundoff-level errors.
    """

    statistic: Statistic
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

    def report(stat, errs):
        errs2d = errs if errs.ndim == 2 else errs[:, None]
        slopes = np.array([fit_loglog_slope(h, errs2d[:, k]) for k in range(errs2d.shape[1])])
        return ConvergenceReport(stat, N_list, h, errs, slopes)

    return StudyErrorSummary(
        mean=report(Statistic.MEAN, mean_err),
        std=report(Statistic.STD, std_err),
        per_sample=report(Statistic.PER_SAMPLE, ps_err),
    )

