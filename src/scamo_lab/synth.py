"""Deterministic synthetic data for oracles.

Two generators: latent clouds for exercising the quantizers' usage metrics,
and run logs whose isoFLOPs frontier provably follows a prescribed set of
scaling laws. All randomness flows through numpy's seeded PCG64 generator, so
equal seeds give bit-identical output on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RunRecord
from .flops import _check_int
from .fsq import FsqLevels, _logit
from .scaling import ScalingFits

__all__ = [
    "CGridSpec",
    "SynthSpec",
    "config_for_params",
    "synth_runs",
    "synth_latents",
]

_PARAM_GRANULE = 12  # params_non_embedding of the smallest config (1 layer, width 1, ff_ratio 4)


@dataclass(frozen=True)
class CGridSpec:
    """Log10-spaced compute grid."""

    min_log10: float
    max_log10: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.min_log10) and math.isfinite(self.max_log10)):
            raise ValueError("grid bounds must be finite")
        if self.max_log10 < self.min_log10:
            raise ValueError("max_log10 must be >= min_log10")
        _check_int("n_points", self.n_points)
        if self.n_points > 1 and self.max_log10 == self.min_log10:
            raise ValueError("grid with several points needs max_log10 > min_log10")

    def values_log10(self) -> np.ndarray:
        if self.n_points == 1:
            return np.array([self.min_log10])
        return np.linspace(self.min_log10, self.max_log10, self.n_points)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic isoFLOPs sweep."""

    laws: ScalingFits
    c_grid_log10: CGridSpec
    runs_per_budget: int = 3
    noise_sigma_log10: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        _check_int("runs_per_budget", self.runs_per_budget)
        if not (math.isfinite(self.noise_sigma_log10) and self.noise_sigma_log10 >= 0):
            raise ValueError("noise_sigma_log10 must be non-negative and finite")
        _check_int("seed", self.seed, minimum=None)


def config_for_params(n_nv_target: float, rel_tol: float = 0.2) -> tuple[int, int, int]:
    """Back-solve (n_layers, n_heads, d_model) nearest to a parameter target.

    At ff_ratio 4 the parameter count is 12 * n_layers * d_model**2, so the
    width-1 family reaches every multiple of 12 and always contains a globally
    nearest config (within 6 of any target). These shapes are fit fixtures,
    not plausible models. Errors when the target sits below the smallest
    config or the relative mismatch exceeds rel_tol.
    """
    if not (math.isfinite(n_nv_target) and n_nv_target > 0):
        raise ValueError(f"n_nv_target must be positive and finite, got {n_nv_target!r}")
    n_layers = int(math.floor(n_nv_target / _PARAM_GRANULE + 0.5))
    if n_layers < 1:
        raise ValueError(
            f"target {n_nv_target} is below the smallest valid config ({_PARAM_GRANULE} params)"
        )
    achieved = _PARAM_GRANULE * n_layers
    if abs(achieved - n_nv_target) > rel_tol * n_nv_target:
        raise ValueError(f"no config within {rel_tol:.0%} of target {n_nv_target}")
    return n_layers, 1, 1


def synth_runs(spec: SynthSpec) -> list[RunRecord]:
    """Generate an isoFLOPs sweep whose per-budget optimum follows spec.laws.

    Budget i uses an independent generator seeded with seed + i, so budgets
    can be regenerated in isolation or in parallel. Every record at a budget
    carries flops equal to the exact budget (same compute, different
    allocation). The first run (suffix -00) is the law point, perturbed by
    multiplicative 10**N(0, sigma) noise on the triplet and additive N(0,
    sigma) noise on the loss; siblings draw fresh perturbations and add a
    uniform loss offset of at least 0.01, so frontier extraction always
    selects the law point.
    """
    records: list[RunRecord] = []
    for i, x in enumerate(spec.c_grid_log10.values_log10()):
        rng = np.random.default_rng(spec.seed + i)
        c = 10.0**x
        loss_opt = 0.0
        for j in range(spec.runs_per_budget):
            shift = rng.normal(0.0, spec.noise_sigma_log10, size=3)
            n_v = spec.laws.nv_vs_c.evaluate(c) * 10.0 ** shift[0]
            n_nv = spec.laws.nnv_vs_c.evaluate(c) * 10.0 ** shift[1]
            d_tokens = spec.laws.d_vs_c.evaluate(c) * 10.0 ** shift[2]
            if j == 0:
                loss = spec.laws.loss_vs_c.slope * x + spec.laws.loss_vs_c.intercept
                loss += rng.normal(0.0, spec.noise_sigma_log10)
                loss_opt = loss
            else:
                loss = loss_opt + rng.uniform(0.01, 0.5)
            n_layers, n_heads, d_model = config_for_params(n_nv)
            records.append(
                RunRecord(
                    run_id=f"synth-{i:03d}-{j:02d}",
                    n_layers=n_layers,
                    n_heads=n_heads,
                    d_model=d_model,
                    n_ctx=1024,
                    vocab_size=max(1, int(math.floor(n_v / d_model + 0.5))),
                    tokens_trained=max(1, int(math.floor(d_tokens + 0.5))),
                    flops=c,
                    normalized_loss=float(loss),
                )
            )
    return records


def _uniform_code_latents(
    n: int, lv: FsqLevels, rng: np.random.Generator, eps: float
) -> np.ndarray:
    """Latents whose quantized code distribution is exactly uniform.

    Per channel, a uniform draw is warped through the inverse CDF of the
    quantizer's rounding-cell layout: the integer part picks the code
    uniformly, the fractional part places the value inside that code's cell
    (endpoint cells are half width, so plain uniform sampling would
    under-weight them).
    """
    u = rng.uniform(eps, 1.0 - eps, size=(n, lv.dimension))
    out = np.empty_like(u)
    for i, level in enumerate(lv.levels):
        t = u[:, i] * level
        code0 = np.minimum(level - 1, np.floor(t).astype(np.int64))  # 0-based code
        frac = t - code0
        span = 1.0 / (level - 1)
        lo = np.where(code0 == 0, 0.0, (code0 - 0.5) * span)
        hi = np.where(code0 == level - 1, 1.0, (code0 + 0.5) * span)
        v = np.clip(lo + frac * (hi - lo), eps, 1.0 - eps)
        out[:, i] = _logit(v)
    return out


def synth_latents(
    kind: str,
    n: int,
    dim: int,
    *,
    levels: FsqLevels | tuple[int, ...] | None = None,
    n_components: int = 4,
    means=None,
    seed: int = 42,
    eps: float = 1e-6,
) -> np.ndarray:
    """Seeded latent generator, returning an (n, dim) float array.

    kind "uniform_code" requires levels matching dim and yields latents whose
    finite-scalar-quantized codes are uniform over the whole codebook. kind
    "gaussian_mixture" draws from equally weighted unit isotropic Gaussians;
    means defaults to seeded uniform draws in [-2, 2]**dim, or pass explicit
    means with shape (n_components, dim).
    """
    _check_int("n", n)
    _check_int("dim", dim)
    _check_int("seed", seed, minimum=None)
    rng = np.random.default_rng(seed)
    if kind == "uniform_code":
        if levels is None:
            raise ValueError("uniform_code needs levels")
        lv = levels if isinstance(levels, FsqLevels) else FsqLevels(tuple(levels))
        if lv.dimension != dim:
            raise ValueError(f"levels dimension {lv.dimension} does not match dim {dim}")
        return _uniform_code_latents(n, lv, rng, eps)
    if kind == "gaussian_mixture":
        if means is None:
            _check_int("n_components", n_components)
            means = rng.uniform(-2.0, 2.0, size=(n_components, dim))
        else:
            means = np.asarray(means, dtype=np.float64)
            if means.ndim != 2 or means.shape[1] != dim or means.shape[0] < 1:
                raise ValueError(f"means must be a (m, {dim}) array, got shape {means.shape}")
            if not np.isfinite(means).all():
                raise ValueError("means must be finite")
        component = rng.integers(0, means.shape[0], size=n)
        return means[component] + rng.standard_normal((n, dim))
    raise ValueError(f"unknown latent kind {kind!r}")
