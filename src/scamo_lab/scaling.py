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

from .core import RunRecord
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

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ScalingFits":
        """Inverse of to_json_dict. Coefficients must be numbers; r2 may be null."""
        if not isinstance(obj, dict):
            raise ValueError("fits document must be a JSON object")
        laws = get_type_hints(cls)
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
    then smaller n_v, then the lexicographically smaller run_id.
    """
    _check_real("bin_width_log10", bin_width_log10, "positive")
    if len(runs) == 0:
        raise ValueError("no runs")
    best: dict[int, tuple[tuple, RunRecord, int, int]] = {}
    for run in runs:
        # log10 and the division each round, so flops exactly on an edge
        # k * bin_width can give a quotient a few ULP short of k.
        q = math.log10(run.flops) / bin_width_log10
        k = round(q)
        bucket = k if abs(q - k) <= 4 * math.ulp(q) else math.floor(q)
        n_nv = run.n_nv()
        n_v = run.n_v
        key = (run.normalized_loss, n_nv, n_v, run.run_id)
        if bucket not in best or key < best[bucket][0]:
            best[bucket] = (key, run, n_nv, n_v)
    frontier = []
    for bucket in sorted(best):
        _, run, n_nv, n_v = best[bucket]
        frontier.append(
            FrontierPoint(
                flops_bucket_log10=bucket * bin_width_log10,
                run=run,
                n_nv=float(n_nv),
                n_v=float(n_v),
                d_tokens=float(run.tokens_trained),
                loss=run.normalized_loss,
            )
        )
    return frontier


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line, returning (slope, intercept, r2).

    Constant y short-circuits to a flat line with r2 = 1.0. At zero total
    variance, r2 is 1.0 when residuals vanish and 0.0 otherwise.
    """
    if x.size < 2:
        raise ValueError("need at least 2 samples to fit")
    if np.all(y == y[0]):
        return 0.0, float(y[0]), 1.0
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("x values must not all be equal")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_res == 0.0 else (0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), float(r2)


def fit_power_law(xs, ys) -> PowerLawFit:
    """OLS fit of log10(y) on log10(x); exponent is the slope."""
    xs = _check_real_array("xs", xs, (None,), "positive")
    ys = _check_real_array("ys", ys, xs.shape, "positive")
    slope, intercept, r2 = _ols(np.log10(xs), np.log10(ys))
    return PowerLawFit(log10_coef=intercept, exponent=slope, r2=r2)


def fit_log_law(cs, losses) -> LogLawFit:
    """OLS fit of loss on log10(c); losses may be negative."""
    cs = _check_real_array("cs", cs, (None,), "positive")
    losses = _check_real_array("losses", losses, cs.shape)
    slope, intercept, r2 = _ols(np.log10(cs), losses)
    return LogLawFit(slope=slope, intercept=intercept, r2=r2)


def fit_all(frontier: Sequence[FrontierPoint]) -> ScalingFits:
    """All five laws from a frontier of at least two points.

    The x variable for the *_vs_c fits is each winning run's own flops value,
    not the bucket edge.
    """
    if len(frontier) < 2:
        raise ValueError("need at least 2 frontier points")
    flops = np.array([p.run.flops for p in frontier], dtype=np.float64)
    n_v = np.array([p.n_v for p in frontier], dtype=np.float64)
    n_nv = np.array([p.n_nv for p in frontier], dtype=np.float64)
    d_tokens = np.array([p.d_tokens for p in frontier], dtype=np.float64)
    loss = np.array([p.loss for p in frontier], dtype=np.float64)
    return ScalingFits(
        nv_vs_c=fit_power_law(flops, n_v),
        nnv_vs_c=fit_power_law(flops, n_nv),
        d_vs_c=fit_power_law(flops, d_tokens),
        nv_vs_nnv=fit_power_law(n_nv, n_v),
        loss_vs_c=fit_log_law(flops, loss),
    )
