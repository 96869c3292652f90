"""Compute-budget planning on top of fitted scaling laws.

plan_budget evaluates the vocab, non-vocab, and data laws at a budget and
reports how far their joint recommendation drifts from the compute identity
C = 6 * (N_nv + N_v) * D as a log10 residual. The residual is surfaced, never
silently absorbed; callers may opt into rescaling the token count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .flops import _check_int, _check_real, flops_approx
from .scaling import LogLawFit, PowerLawFit, ScalingFits

__all__ = [
    "CONSISTENCY_TOLERANCE_LOG10",
    "FITS_PRESETS",
    "REFERENCE_PRESETS",
    "ReferenceSelection",
    "BudgetPlan",
    "VocabForModel",
    "nearest_power_of_two",
    "plan_budget",
    "consistency_report",
    "vocab_for_model",
]


@dataclass(frozen=True)
class ReferenceSelection:
    """A published (n_nv, vocab_size, d_tokens) choice to sanity-check plans against."""

    n_nv: float
    vocab_size: int
    d_tokens: float

    def __post_init__(self) -> None:
        _check_real("n_nv", self.n_nv, "positive")
        _check_int("vocab_size", self.vocab_size)
        _check_real("d_tokens", self.d_tokens, "positive")


# Shipped coefficient preset. r2 is only known for the vocab-vs-params law;
# the rest were published without one and stay None.
FITS_PRESETS: dict[str, ScalingFits] = {
    "scamo-paper": ScalingFits(
        nv_vs_c=PowerLawFit(log10_coef=-5.29, exponent=0.75, r2=None),
        nnv_vs_c=PowerLawFit(log10_coef=-0.52, exponent=0.57, r2=None),
        d_vs_c=PowerLawFit(log10_coef=-0.05, exponent=0.43, r2=None),
        nv_vs_nnv=PowerLawFit(log10_coef=-5.604, exponent=1.467, r2=0.95),
        loss_vs_c=LogLawFit(slope=-1.062, intercept=13.839, r2=None),
    ),
}

# The selection published alongside the preset at a 1e18 FLOPs budget.
REFERENCE_PRESETS: dict[str, ReferenceSelection] = {
    "scamo-paper": ReferenceSelection(n_nv=3e9, vocab_size=65536, d_tokens=10**7.5),
}

CONSISTENCY_TOLERANCE_LOG10 = 0.35


def nearest_power_of_two(n: int) -> int:
    """Nearest power of two in log2 space; exact ties round up."""
    _check_int("n", n)
    k = n.bit_length() - 1  # floor(log2 n)
    # closer to 2**(k+1) iff log2(n) >= k + 0.5, i.e. n**2 >= 2**(2k+1)
    return 1 << (k + 1) if n * n >= 1 << (2 * k + 1) else 1 << k


@dataclass(frozen=True)
class BudgetPlan:
    """Law-optimal allocation for one compute budget."""

    flops_budget: float
    n_nv: float
    n_v: float
    vocab_size: int
    vocab_pow2: int
    d_tokens: float
    predicted_loss: float
    constraint_residual_log10: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def plan_budget(
    c_flops: float,
    fits: ScalingFits,
    d_model: int,
    rescale_d: bool = False,
) -> BudgetPlan:
    """Evaluate the fitted laws at a budget.

    vocab_size = round(n_v / d_model), with its nearest power of two reported
    alongside. constraint_residual_log10 = log10(6 * (n_nv + n_v) * d / c)
    measures the laws' drift from the compute identity. With rescale_d the
    token count is divided by 10**residual, restoring the identity, and the
    reported residual becomes (numerically) zero. The law values must be
    finite, and n_nv and d_tokens positive.
    """
    _check_real("c_flops", c_flops, "positive")
    _check_int("d_model", d_model)
    n_v, n_nv, d_tokens = fits.allocation(c_flops)
    predicted = fits.loss_vs_c.evaluate(c_flops)
    _check_real("predicted_loss", predicted)

    def log10_ratio() -> float:  # of the current d_tokens; the ratio may underflow to 0
        ratio = flops_approx(n_nv, n_v, d_tokens) / c_flops
        return math.log10(_check_real("6 (n_nv + n_v) d_tokens / c_flops", ratio, "positive"))

    residual = log10_ratio()
    if rescale_d:  # numpy's scalar pow is Python's, but gives inf past float range: refused
        with np.errstate(over="ignore"):
            d_tokens /= _check_real("10**residual", float(np.float64(10.0) ** residual))
        residual = log10_ratio()
    vocab = _vocab(n_v, d_model)
    return BudgetPlan(
        flops_budget=float(c_flops),
        n_nv=n_nv,
        n_v=n_v,
        vocab_size=vocab.vocab_size,
        vocab_pow2=vocab.vocab_pow2,
        d_tokens=d_tokens,
        predicted_loss=predicted,
        constraint_residual_log10=residual,
    )


def consistency_report(plan: BudgetPlan, reference: ReferenceSelection) -> dict:
    """Per-quantity log10 gaps between a plan and a reference selection.

    vocab_size stands in for n_v; the d_model factor cancels in the gap. A gap
    is within tolerance when it is at most CONSISTENCY_TOLERANCE_LOG10 either way.
    """
    gaps = {
        "n_nv": math.log10(plan.n_nv / reference.n_nv),
        "vocab_size": math.log10(plan.vocab_size / reference.vocab_size),
        "d_tokens": math.log10(plan.d_tokens / reference.d_tokens),
    }
    within = {name: abs(gap) <= CONSISTENCY_TOLERANCE_LOG10 for name, gap in gaps.items()}
    return {
        "reference": asdict(reference),
        "tolerance_log10": CONSISTENCY_TOLERANCE_LOG10,
        "log10_gaps": gaps,
        "within_tolerance": within,
        "agrees": all(within.values()),
    }


class VocabForModel(NamedTuple):
    n_v: float
    vocab_size: int
    vocab_pow2: int


def vocab_for_model(n_nv: float, law: PowerLawFit, d_model: int) -> VocabForModel:
    """Vocabulary recommended for a model with n_nv non-embedding params."""
    _check_int("d_model", d_model)
    return _vocab(law.evaluate(_check_real("n_nv", n_nv, "positive")), d_model)


def _vocab(n_v: float, d_model: int) -> VocabForModel:
    """vocab_size = round(n_v / d_model), exact halves up and at least 1, and its power of two."""
    vocab = max(1, int(math.floor(_check_real("n_v", n_v, "non-negative") / d_model + 0.5)))
    return VocabForModel(n_v=n_v, vocab_size=vocab, vocab_pow2=nearest_power_of_two(vocab))
