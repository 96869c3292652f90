"""Deterministic synthetic data for oracles.

Two generators: latent clouds for exercising the quantizers' usage metrics,
and run logs whose isoFLOPs frontier provably follows a prescribed set of
scaling laws. All randomness flows through numpy's seeded PCG64 generator, so
equal seeds give bit-identical output on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RunRecord, RunTable
from .flops import ModelConfig, _check_int, _check_real, _check_real_array, params_non_embedding
from .fsq import _LATENT_EPS, FsqLevels, _levels_of, _logit
from .scaling import ScalingFits

__all__ = [
    "CGridSpec",
    "SynthSpec",
    "synth_runs",
    "synth_latents",
]

# n_nv of one layer of width 1 at ff_ratio 4; L such layers have L times it
_PARAM_GRANULE = params_non_embedding(ModelConfig(1, 1, 1, 1, 1))
_PARAM_REL_TOL = 0.2  # largest relative miss between a drawn n_nv, n_v or d_tokens and its count


@dataclass(frozen=True)
class CGridSpec:
    """Log10-spaced compute grid."""

    min_log10: float
    max_log10: float
    n_points: int

    def __post_init__(self) -> None:
        _check_real("min_log10", self.min_log10)
        _check_real("max_log10", self.max_log10)
        if self.max_log10 < self.min_log10:
            raise ValueError("max_log10 must be >= min_log10")
        _check_real("max_log10 - min_log10", self.max_log10 - self.min_log10)
        _check_int("n_points", self.n_points)
        if self.n_points > 1 and self.max_log10 == self.min_log10:
            raise ValueError("grid with several points needs max_log10 > min_log10")

    def values_log10(self) -> np.ndarray:
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
        _check_real("noise_sigma_log10", self.noise_sigma_log10, "non-negative")
        _check_int("seed", self.seed, minimum=0)


@np.errstate(over="ignore", invalid="ignore")  # overflowed draws reach the checks as inf or nan
def synth_runs(spec: SynthSpec) -> RunTable:
    """Generate an isoFLOPs sweep whose per-budget optimum follows spec.laws.

    Budget i uses an independent generator seeded with seed + i, so budgets
    can be regenerated in isolation or in parallel. Every record at a budget
    carries flops equal to the exact budget (same compute, different
    allocation). The first run (suffix -00) is the law point, perturbed by
    multiplicative 10**N(0, sigma) noise on the triplet and additive N(0,
    sigma) noise on the loss; siblings draw fresh perturbations and add a
    uniform loss offset of at least 0.01, so frontier extraction always
    selects the law point. Every run is one layer wide, with the n_layers
    whose 12 * n_layers is nearest its drawn n_nv: fit fixtures, not plausible
    models. An overflowing budget or draw, an n_nv 20% off every such shape, or an n_v or
    d_tokens 20% off every positive integer, fails its check; the first row to break a run rule
    fails with its error.
    """
    laws, sigma = spec.laws, spec.noise_sigma_log10
    grid, per_budget = spec.c_grid_log10.values_log10(), spec.runs_per_budget
    run_id = [f"synth-{i:03d}-{j:02d}" for i in range(len(grid)) for j in range(per_budget)]
    counts = np.empty((len(run_id), 3), dtype=np.int64)  # n_layers, vocab_size, tokens_trained
    flops, losses = np.empty(len(run_id)), np.empty(len(run_id))
    z, u = np.empty((per_budget, 3)), np.empty(per_budget)
    for i, x in enumerate(grid):
        rng = np.random.default_rng(spec.seed + i)
        c = _check_real(f"budget 10**{float(x)}", 10.0**x, "positive")
        budget = slice(i * per_budget, (i + 1) * per_budget)
        n_v_law, n_nv_law, d_law = map(float, laws.allocation(c))  # the same for a whole budget
        # the draws that normal(0, sigma, 3), then normal(0, sigma) on row 0 and uniform(0.01,
        # 0.5) on every other row make, in their order, scaled below by numpy's own formulas
        for j in range(per_budget):
            z[j] = rng.standard_normal(3)
            u[j] = rng.random() if j else rng.standard_normal()
        loss = laws.loss_vs_c.slope * x + laws.loss_vs_c.intercept + (0.0 + sigma * u[:1])
        loss = np.concatenate([loss, loss + (0.01 + (0.5 - 0.01) * u[1:])])
        # a scalar pow a value: numpy's array pow may differ from it by an ulp; numpy's scalar pow
        # calls the same C pow as Python's float pow, but gives inf past float range
        s = (0.0 + sigma * z).ravel().tolist()
        p = np.fromiter(map(np.float64(10.0).__pow__, s), np.float64, len(s))
        # fits[q, k]: row k's n_nv, n_v or d_tokens has a count >= 1 within 20% (nan, inf: false)
        n_v, n_nv, d_tokens = p.reshape(z.shape).T * np.array([[n_v_law], [n_nv_law], [d_law]])
        drawn, granule = np.array([n_nv, n_v, d_tokens]), np.array([[_PARAM_GRANULE], [1], [1]])
        shape = np.floor(drawn / granule + 0.5)
        fits = (shape >= 1) & (abs(granule * shape - drawn) <= _PARAM_REL_TOL * drawn)
        ok = fits.all(axis=0) & (shape.max(axis=0) < 2.0**63) & np.isfinite(loss)
        if not ok.all():  # the first flagged row breaks a rule: word the first, in the rules' order
            k = int(np.argmin(ok))
            _check_real("n_v", float(n_v[k]), "non-negative")
            _check_real("d_tokens", float(d_tokens[k]), "non-negative")
            target = _check_real("n_nv_target", float(n_nv[k]), "positive")
            if shape[0, k] < 1:
                raise ValueError(
                    f"target {target} is below the smallest valid config ({_PARAM_GRANULE} params)")
            if not fits[0, k]:
                raise ValueError(f"no config within {_PARAM_REL_TOL:.0%} of target {target}")
            for name, value, fit in zip(("n_v", "d_tokens"), drawn[1:, k], fits[1:, k]):
                if not fit:
                    raise ValueError(f"{name} {float(value)} at budget 10**{float(x)} is more than "
                                     f"{_PARAM_REL_TOL:.0%} from every positive integer")
            n_layers, vocab, tokens = map(int, shape[:, k].tolist())
            RunRecord(run_id[budget.start + k], n_layers, 1, 1, 1024, vocab, tokens, c,
                      float(loss[k]))  # words the int64 bound and the loss
        counts[budget] = shape.T
        flops[budget], losses[budget] = c, loss
    # n_heads = d_model = 1 and n_ctx = 1024 for every run: read-only views of one value each
    one, n_ctx = (np.broadcast_to(np.int64(value), len(run_id)) for value in (1, 1024))
    return RunTable._of(run_id, counts[:, 0], one, one, n_ctx, *counts[:, 1:].T, flops, losses)


def _uniform_code_latents(n: int, lv: FsqLevels, rng: np.random.Generator) -> np.ndarray:
    """Latents whose quantized code distribution is exactly uniform.

    Per channel, a uniform draw is warped through the inverse CDF of the
    quantizer's rounding-cell layout: the integer part picks the code
    uniformly, the fractional part places the value inside that code's cell
    (endpoint cells are half width, so plain uniform sampling would
    under-weight them).
    """
    u = rng.uniform(_LATENT_EPS, 1.0 - _LATENT_EPS, size=(n, lv.dimension))
    out = np.empty_like(u)
    for i, level in enumerate(lv.levels):
        t = u[:, i] * level
        code0 = np.minimum(level - 1, np.floor(t).astype(np.int64))  # 0-based code
        frac = t - code0
        span = 1.0 / (level - 1)
        lo = np.where(code0 == 0, 0.0, (code0 - 0.5) * span)
        hi = np.where(code0 == level - 1, 1.0, (code0 + 0.5) * span)
        v = np.clip(lo + frac * (hi - lo), _LATENT_EPS, 1.0 - _LATENT_EPS)
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
    _check_int("seed", seed, minimum=0)
    rng = np.random.default_rng(seed)
    if kind == "uniform_code":
        if levels is None:
            raise ValueError("uniform_code needs levels")
        lv = _levels_of(levels)
        if lv.dimension != dim:
            raise ValueError(f"levels dimension {lv.dimension} does not match dim {dim}")
        return _uniform_code_latents(n, lv, rng)
    if kind == "gaussian_mixture":
        if means is None:
            _check_int("n_components", n_components)
            means = rng.uniform(-2.0, 2.0, size=(n_components, dim))
        else:
            means = _check_real_array("means", means, (None, dim))
        component = rng.integers(0, means.shape[0], size=n)
        return means[component] + rng.standard_normal((n, dim))
    raise ValueError(f"unknown latent kind {kind!r}")
