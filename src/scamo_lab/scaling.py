"""IsoFLOPs frontier extraction and scaling-law fitting.

Runs are bucketed by log10 compute and the best (lowest normalized loss) run
per bucket forms the frontier. Power laws are ordinary least squares in
log10-log10 space; the loss law is least squares of loss against log10
compute. No constraint ties the fitted laws together; their joint drift from
the compute identity is a planner-level diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence, get_type_hints

import numpy as np

from .core import RunRecord, RunTable
from .flops import _check_real, _check_real_array

__all__ = [
    "PowerLawFit",
    "LogLawFit",
    "ScalingFits",
    "FrontierPoint",
    "pareto_frontier",
    "fit_power_law",
    "fit_log_law",
    "fit_all",
]


@dataclass(frozen=True)
class PowerLawFit:
    """y = 10**log10_coef * x**exponent, with the fit's r2 when known."""

    log10_coef: float
    exponent: float
    r2: float | None = None

    def __post_init__(self) -> None:
        _check_real("log10_coef", self.log10_coef)
        _check_real("exponent", self.exponent)
        if self.r2 is not None:
            _check_real("r2", self.r2)

    def evaluate(self, x: float) -> float:
        _check_real("x", x, "positive")
        try:
            return 10.0**self.log10_coef * x**self.exponent
        except OverflowError:  # a Python float past range; numpy scalars give inf
            return math.inf


@dataclass(frozen=True)
class LogLawFit:
    """loss = slope * log10(c) + intercept, with the fit's r2 when known."""

    slope: float
    intercept: float
    r2: float | None = None

    def __post_init__(self) -> None:
        _check_real("slope", self.slope)
        _check_real("intercept", self.intercept)
        if self.r2 is not None:
            _check_real("r2", self.r2)

    def evaluate(self, c: float) -> float:
        _check_real("c", c, "positive")
        return self.slope * math.log10(c) + self.intercept


@dataclass(frozen=True)
class ScalingFits:
    """The five fitted laws of one scaling study."""

    nv_vs_c: PowerLawFit
    nnv_vs_c: PowerLawFit
    d_vs_c: PowerLawFit
    nv_vs_nnv: PowerLawFit
    loss_vs_c: LogLawFit

    def allocation(self, c: float) -> tuple[float, float, float]:
        """(n_v, n_nv, d_tokens): the three *_vs_c laws at compute c, evaluated in that order."""
        return self.nv_vs_c.evaluate(c), self.nnv_vs_c.evaluate(c), self.d_vs_c.evaluate(c)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ScalingFits":
        """Inverse of to_json_dict. Coefficients must be numbers; r2 may be null."""
        if not isinstance(obj, dict):
            raise ValueError("fits document must be a JSON object")
        laws = get_type_hints(cls)
        unexpected = sorted(map(str, set(obj) - set(laws)))
        if unexpected:
            raise ValueError(f"fits document has unexpected key(s): {', '.join(unexpected)}")
        missing = sorted(set(laws) - set(obj))
        if missing:
            raise ValueError(f"fits document missing: {', '.join(missing)}")
        kwargs = {}
        for name, law in laws.items():
            entry = obj[name]
            keys = tuple(p.name for p in fields(law))
            if not isinstance(entry, dict) or set(entry) != set(keys):
                raise ValueError(f"{name} must be an object with keys {keys}")
            try:
                kwargs[name] = law(**entry)
            except ValueError as exc:  # the rule's "<key> must be ...", named in full
                raise ValueError(f"{name}.{exc}") from None
        return cls(**kwargs)


@dataclass(frozen=True)
class FrontierPoint:
    """Best run in one log10-compute bucket plus its fitted quantities.

    n_v = vocab_size * d_model and n_nv = params_non_embedding(config) come
    from the winning run; d_tokens is its token count.
    """

    flops_bucket_log10: float
    run: RunRecord
    n_nv: float
    n_v: float
    d_tokens: float
    loss: float


def pareto_frontier(
    runs: Sequence[RunRecord],
    bin_width_log10: float = 0.25,
) -> list[FrontierPoint]:
    """Loss-minimizing run per compute bucket, ascending in compute.

    Buckets are floor(log10(flops) / bin_width) * bin_width, and a run exactly
    on an edge k * bin_width falls in bucket k. Loss ties prefer smaller n_nv,
    then smaller n_v, then the lexicographically smaller run_id. runs may be a
    RunTable or any sequence of RunRecords.
    """
    _check_real("bin_width_log10", bin_width_log10, "positive")
    if len(runs) == 0:
        raise ValueError("no runs")
    table = runs if isinstance(runs, RunTable) else RunTable(runs)
    buckets, rows = _winners(table, bin_width_log10)
    return [FrontierPoint(flops_bucket_log10=k * bin_width_log10, run=run, n_nv=float(run.n_nv()),
                          n_v=float(run.n_v), d_tokens=float(run.tokens_trained),
                          loss=run.normalized_loss)
            for k, run in zip(buckets, map(table.__getitem__, rows))]


def _winners(table: RunTable, bin_width_log10: float) -> tuple[list[float], list[int]]:
    """Each occupied bucket's index k, ascending, and the table row of its winner."""
    # math.log10, not np.log10, which may differ in the last bit and move a run across an edge;
    # log10 and the division each round, so flops exactly on an edge k * bin_width can give a
    # quotient a few ULP short of k
    q = np.fromiter(map(math.log10, table.flops.tolist()), np.float64, len(table))
    with np.errstate(over="ignore"):  # a tiny bin width; refused below
        q /= bin_width_log10
    if not np.isfinite(q).all():
        raise ValueError(f"bin_width_log10 {bin_width_log10!r} is too small: "
                         "log10(flops) / bin_width_log10 overflows")
    k = np.round(q)
    bucket = np.where(np.abs(q - k) <= 4 * np.spacing(np.abs(q)), k, np.floor(q))
    # rows by bucket, then loss: a bucket's winner is among the rows tied at its first loss
    order = np.lexsort((table.normalized_loss, bucket))
    loss, bucket = table.normalized_loss[order], bucket[order]
    starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]]).tolist()
    rows = []
    for start, end in zip(starts, [*starts[1:], len(order)]):
        tied = order[start:end][loss[start:end] == loss[start]].tolist()
        # ties break on the exact integer counts (12 * L * d**2 can pass int64), then run_id
        rows.append(min(tied, key=lambda i: ((r := table[i]).n_nv(), r.n_v, r.run_id)))
    return bucket[starts].tolist(), rows


# squares past float range reach r2 as inf or nan; a flat row's 0 / 0 slope is masked
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares line through each row of the (..., n) stacks x and y: (slope, intercept, r2)
    arrays over the leading axes, 0-d for a 1-D pair. A row of constant y is a flat line with
    r2 = 1.0, whatever its x; at zero total variance, r2 is 1.0 when residuals vanish and 0.0
    otherwise. numpy sums a C-contiguous last axis pairwise, as it does a 1-D array, so each row
    of a contiguous stack gives its 1-D bits."""
    if x.shape[-1] < 2:
        raise ValueError("need at least 2 samples to fit")
    flat = (y == y[..., :1]).all(axis=-1)
    xm, ym = x.mean(axis=-1, keepdims=True), y.mean(axis=-1, keepdims=True)
    dx = x - xm
    sxx = (dx**2).sum(axis=-1)
    if (~flat & (sxx == 0.0)).any():
        raise ValueError("x values must not all be equal")
    slope = (dx * (y - ym)).sum(axis=-1) / sxx
    intercept = ym[..., 0] - slope * xm[..., 0]
    ss_res = ((y - (slope[..., None] * x + intercept[..., None])) ** 2).sum(axis=-1)
    ss_tot = ((y - ym) ** 2).sum(axis=-1)
    r2 = np.where(ss_res == 0.0, 1.0, np.where(ss_tot == 0.0, 0.0, 1.0 - ss_res / ss_tot))
    return np.where(flat, 0.0, slope), np.where(flat, y[..., 0], intercept), np.where(flat, 1.0, r2)


def fit_power_law(xs, ys) -> PowerLawFit:
    """OLS fit of log10(y) on log10(x); exponent is the slope."""
    xs = _check_real_array("xs", xs, (None,), "positive")
    ys = _check_real_array("ys", ys, xs.shape, "positive")
    slope, intercept, r2 = map(float, _ols(np.log10(xs), np.log10(ys)))
    return PowerLawFit(log10_coef=intercept, exponent=slope, r2=r2)


def fit_log_law(cs, losses) -> LogLawFit:
    """OLS fit of loss on log10(c); losses may be negative."""
    cs = _check_real_array("cs", cs, (None,), "positive")
    losses = _check_real_array("losses", losses, cs.shape)
    slope, intercept, r2 = map(float, _ols(np.log10(cs), losses))
    return LogLawFit(slope=slope, intercept=intercept, r2=r2)


def fit_all(frontier: Sequence[FrontierPoint]) -> ScalingFits:
    """All five laws from a frontier of at least two points, in one least-squares call.

    The x variable for the *_vs_c fits is each winning run's own flops value,
    not the bucket edge.
    """
    if len(frontier) < 2:
        raise ValueError("need at least 2 frontier points")
    # the columns flops, n_v, n_nv, d_tokens and loss as contiguous rows, and each law's x and y
    # rows in law order: nv_vs_c, nnv_vs_c, d_vs_c, nv_vs_nnv, loss_vs_c
    cols = np.array([(p.run.flops, p.n_v, p.n_nv, p.d_tokens, p.loss) for p in frontier],
                    dtype=np.float64).T.copy()
    xs, ys = [0, 0, 0, 2, 0], [1, 2, 3, 1, 4]
    if not (np.isfinite(cols).all() and (cols[:4] > 0).all()):
        # a bad value: the fits in law order raise the first law's error, which may be an
        # earlier law's equal x
        for fit, x, y in zip([fit_power_law] * 4 + [fit_log_law], cols[xs], cols[ys]):
            fit(x, y)
    logs = np.log10(cols[:4])
    *power, log = np.transpose(_ols(logs[xs], np.vstack([logs[ys[:4]], cols[4:]]))).tolist()
    return ScalingFits(*(PowerLawFit(b, m, r2) for m, b, r2 in power), LogLawFit(*log))
