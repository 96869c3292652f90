"""Vector quantization with an EMA-trained codebook and dead-code resets.

The codebook carries exponential moving averages of assignment counts
(usage_counts) and assigned-vector sums (ema_sums); entries are the ratio of
the two. Codes whose usage decays below a threshold are reseeded from batch
vectors with a seeded generator so training stays reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flops import _check_int

__all__ = [
    "VqCodebook",
    "VqTrainParams",
    "VqAssignment",
    "VqResetResult",
    "vq_assign",
    "vq_quantize",
    "commitment_loss",
    "vq_ema_update",
    "vq_reset",
]

_EMA_EPS = 1e-8
_BLOCK_ROWS = 256  # a (256, K=1024) float64 shortlist block is 2 MB


@dataclass
class VqCodebook:
    """Codebook entries (K, d) plus the EMA statistics that train them."""

    entries: np.ndarray
    usage_counts: np.ndarray
    ema_sums: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or self.entries.shape[0] < 1 or self.entries.shape[1] < 1:
            raise ValueError("entries must be a (K, d) array with K >= 1 and d >= 1")
        if not np.isfinite(self.entries).all():
            raise ValueError("entries must be finite")
        self.usage_counts = np.asarray(self.usage_counts, dtype=np.float64)
        if self.usage_counts.shape != (self.size,):
            raise ValueError("usage_counts must have shape (K,)")
        if not np.isfinite(self.usage_counts).all() or (self.usage_counts < 0).any():
            raise ValueError("usage_counts must be finite and non-negative")
        self.ema_sums = np.asarray(self.ema_sums, dtype=np.float64)
        if self.ema_sums.shape != self.entries.shape:
            raise ValueError("ema_sums must have the same shape as entries")
        if not np.isfinite(self.ema_sums).all():
            raise ValueError("ema_sums must be finite")

    @classmethod
    def fresh(cls, entries) -> "VqCodebook":
        """Codebook whose EMA state is consistent with its entries (usage 1)."""
        entries = np.asarray(entries, dtype=np.float64)
        return cls(
            entries=entries.copy(),
            usage_counts=np.ones(entries.shape[0]),
            ema_sums=entries.copy(),
        )

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class VqTrainParams:
    """Constants for commitment loss, EMA updates, and dead-code resets."""

    alpha: float = 1.0
    ema_decay: float = 0.99
    reset_threshold: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be non-negative, got {self.alpha!r}")
        if not (0.0 < self.ema_decay < 1.0):
            raise ValueError(f"ema_decay must lie in (0, 1), got {self.ema_decay!r}")
        if not (math.isfinite(self.reset_threshold) and self.reset_threshold >= 0):
            raise ValueError(f"reset_threshold must be non-negative, got {self.reset_threshold!r}")
        _check_int("rng_seed", self.rng_seed, minimum=None)


class VqAssignment(NamedTuple):
    index: int
    entry: np.ndarray


def _check_vector(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (dim,):
        raise ValueError(f"latent must have shape ({dim},), got {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("latent must be finite")
    return z


def _check_batch(batch, dim: int) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != dim or batch.shape[0] < 1:
        raise ValueError(f"batch must be a non-empty (n, {dim}) array, got shape {batch.shape}")
    if not np.isfinite(batch).all():
        raise ValueError("batch must be finite")
    return batch


@np.errstate(over="ignore", invalid="ignore")  # rows whose norms overflow keep every entry
def vq_assign(batch, codebook: VqCodebook) -> np.ndarray:
    """Nearest entry for each row of an (n, d) batch; ties pick the lowest index.

    Exact: BLAS only shortlists, ((z - e) ** 2).sum() decides; _BLOCK_ROWS rows at a time.
    """
    batch = _check_batch(batch, codebook.dim)
    entries, size, dim = codebook.entries, codebook.size, codebook.dim
    e2, neg2_et = np.einsum("kd,kd->k", entries, entries), -2.0 * entries.T
    out = np.empty(len(batch), dtype=np.int64)
    buffer = np.empty((min(len(batch), _BLOCK_ROWS), size))
    step = max(1, _BLOCK_ROWS * size // dim)  # (step, d) re-check temporaries match the buffer
    for lo in range(0, len(batch), _BLOCK_ROWS):
        z = batch[lo:lo + _BLOCK_ROWS]
        bound = np.einsum("nd,nd->n", z, z) + e2.max()
        short = np.matmul(z, neg2_et, out=buffer[:len(z)])
        short += e2  # |e|^2 - 2 z.e: the distance less the row constant |z|^2
        # Rounding moves short and the exact sum together by <= 4 (d + 2) u (|z|^2 + |e|^2) plus
        # 2 d subnormals (u = eps / 2), so the winner is within twice that of min(short); margin 4x.
        margin = 16 * (dim + 2) * np.spacing(bound)
        limit = np.where(np.isfinite(4 * bound), short.min(axis=1) + margin, np.inf)
        rows, cols = np.divmod(np.flatnonzero(~(short > limit[:, None])), size)  # NaN stays in
        d2 = np.concatenate([((z[rows[s:s + step]] - entries[cols[s:s + step]]) ** 2).sum(axis=1)
                             for s in range(0, len(rows), step)])
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        first = np.where(d2 == np.minimum.reduceat(d2, starts)[rows], cols, size)
        out[lo + rows[starts]] = np.minimum.reduceat(first, starts)
    return out


def vq_quantize(z, codebook: VqCodebook) -> VqAssignment:
    """vq_assign for one latent: its nearest entry, the lowest index on ties."""
    z = _check_vector(z, codebook.dim)
    index = int(vq_assign(z[None, :], codebook)[0])
    return VqAssignment(index=index, entry=codebook.entries[index].copy())


def commitment_loss(z, z_hat, alpha: float) -> float:
    """alpha * squared distance between a latent and its assigned entry."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    z = np.asarray(z, dtype=np.float64)
    z_hat = np.asarray(z_hat, dtype=np.float64)
    if z.shape != z_hat.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {z_hat.shape}")
    if not (np.isfinite(z).all() and np.isfinite(z_hat).all()):
        raise ValueError("inputs must be finite")
    return float(alpha * ((z - z_hat) ** 2).sum())


def vq_ema_update(batch, codebook: VqCodebook, params: VqTrainParams) -> VqCodebook:
    """One EMA codebook update from a batch of latents.

    Per code k with n_k assigned vectors summing to s_k:
        usage_k <- decay * usage_k + (1 - decay) * n_k
        sums_k  <- decay * sums_k  + (1 - decay) * s_k
        entry_k <- sums_k / max(usage_k, 1e-8)   when updated usage_k > 0
    Codes with zero updated usage keep their entries. The input codebook is
    not mutated.
    """
    batch = _check_batch(batch, codebook.dim)
    indices = vq_assign(batch, codebook)
    n = np.bincount(indices, minlength=codebook.size).astype(np.float64)
    s = np.zeros_like(codebook.ema_sums)
    np.add.at(s, indices, batch)
    decay = params.ema_decay
    usage = decay * codebook.usage_counts + (1.0 - decay) * n
    sums = decay * codebook.ema_sums + (1.0 - decay) * s
    entries = codebook.entries.copy()
    live = usage > 0
    entries[live] = sums[live] / np.maximum(usage[live], _EMA_EPS)[:, None]
    return VqCodebook(entries=entries, usage_counts=usage, ema_sums=sums)


class VqResetResult(NamedTuple):
    codebook: VqCodebook
    n_reset: int


def vq_reset(codebook: VqCodebook, batch, params: VqTrainParams) -> VqResetResult:
    """Reseed codes whose usage sits below params.reset_threshold.

    Replacements are drawn uniformly from the batch with a generator seeded by
    params.rng_seed, so the outcome is reproducible. Reset codes get usage 1
    and ema_sums equal to their new entry. Returns the new codebook and how
    many codes were reset; the input codebook is not mutated.
    """
    batch = _check_batch(batch, codebook.dim)
    dead = np.flatnonzero(codebook.usage_counts < params.reset_threshold)
    entries = codebook.entries.copy()
    usage = codebook.usage_counts.copy()
    sums = codebook.ema_sums.copy()
    if dead.size:
        rng = np.random.default_rng(params.rng_seed)
        picks = rng.integers(0, batch.shape[0], size=dead.size)
        entries[dead] = batch[picks]
        usage[dead] = 1.0
        sums[dead] = batch[picks]
    return VqResetResult(
        codebook=VqCodebook(entries=entries, usage_counts=usage, ema_sums=sums),
        n_reset=int(dead.size),
    )
