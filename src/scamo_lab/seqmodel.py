"""Prefix-attention masks and per-token sequence losses.

Sequences are a text prefix of length t_text followed by a motion suffix of
length t_motion. Text attends bidirectionally within the text block, motion
attends to all text and causally within motion, and text never attends to
motion. Losses are reported in nats; the normalized loss subtracts a
per-token baseline so that zero means "no better than the baseline".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flops import _check_int, _check_int_array, _check_real

__all__ = [
    "PrefixMask",
    "build_prefix_mask",
    "TokenProbRecord",
    "ce_loss",
    "normalized_loss",
    "unigram_baseline",
]


@dataclass(frozen=True)
class PrefixMask:
    """Boolean attention mask; allowed[i, j] says query i may attend to key j."""

    t_text: int
    t_motion: int
    allowed: np.ndarray


def build_prefix_mask(t_text: int, t_motion: int) -> PrefixMask:
    """Block-structured prefix mask over a text+motion sequence.

    Blocks, with T = t_text + t_motion:
        text  -> text   all True (bidirectional prefix)
        text  -> motion all False
        motion-> text   all True
        motion-> motion causal, j <= i
    """
    _check_int("t_text", t_text, minimum=0)
    _check_int("t_motion", t_motion, minimum=0)
    total = t_text + t_motion
    if total == 0:
        raise ValueError("empty sequence: t_text + t_motion must be positive")
    allowed = np.zeros((total, total), dtype=bool)
    allowed[:, :t_text] = True
    allowed[t_text:, t_text:] = np.tril(np.ones((t_motion, t_motion), dtype=bool))
    return PrefixMask(t_text=t_text, t_motion=t_motion, allowed=allowed)


@dataclass(frozen=True)
class TokenProbRecord:
    """Log-probabilities (nats) of one observed token under model and baseline."""

    model_logp: float
    baseline_logp: float

    def __post_init__(self) -> None:
        _check_real("model_logp", self.model_logp, "non-positive")
        _check_real("baseline_logp", self.baseline_logp, "non-positive")


def ce_loss(records: Sequence[TokenProbRecord]) -> dict[str, float]:
    """Cross-entropy of the model log-probs: sum and mean, in nats."""
    if len(records) == 0:
        raise ValueError("no records")
    total = -math.fsum(r.model_logp for r in records)
    return {"sum_nats": total, "mean_nats": total / len(records)}


def normalized_loss(records: Sequence[TokenProbRecord]) -> float:
    """Mean per-token log-likelihood ratio against the baseline, negated.

    -(1/T) * sum(model_logp - baseline_logp). Zero when the model matches the
    baseline exactly; negative when it beats the baseline. Invariant to adding
    a common constant to both log-probs of any token.
    """
    if len(records) == 0:
        raise ValueError("no records")
    return -math.fsum(r.model_logp - r.baseline_logp for r in records) / len(records)


def unigram_baseline(token_counts: Sequence[int], smoothing_lambda: float) -> np.ndarray:
    """Add-lambda smoothed unigram log-probabilities in nats.

    logp_k = ln((count_k + lambda) / (total + lambda * V)). lambda must be
    positive so every token, including unseen ones, gets a finite
    log-probability. All-zero counts give the uniform ln(1/V) table.
    """
    _check_real("smoothing_lambda", smoothing_lambda, "positive")
    counts = _check_int_array("token_counts", token_counts, (None,), 0).astype(np.float64)
    denom = counts.sum() + smoothing_lambda * counts.size
    return np.log((counts + smoothing_lambda) / denom)
