"""Vector quantization with an EMA-trained codebook and dead-code resets.

The codebook carries exponential moving averages of assignment counts
(usage_counts) and assigned-vector sums (ema_sums); entries are the ratio of
the two. Codes whose usage decays below a threshold are reseeded from batch
vectors with a seeded generator so training stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flops import _check_int, _check_real, _check_real_array

__all__ = [
    "VqCodebook",
    "VqTrainParams",
    "VqAssignment",
    "VqResetResult",
    "vq_assign",
    "vq_quantize",
    "vq_ema_update",
    "vq_reset",
]

_EMA_EPS = 1e-8
_BLOCK_ROWS = 256  # a (256, K=1024) float32 shortlist block is 1 MB
_F32 = np.finfo(np.float32)


@dataclass
class VqCodebook:
    """Codebook entries (K, d) plus the EMA statistics that train them."""

    entries: np.ndarray
    usage_counts: np.ndarray
    ema_sums: np.ndarray

    def __post_init__(self) -> None:
        self.entries = _check_real_array("entries", self.entries, (None, None))
        self.usage_counts = _check_real_array(
            "usage_counts", self.usage_counts, (self.size,), "non-negative"
        )
        self.ema_sums = _check_real_array("ema_sums", self.ema_sums, self.entries.shape)

    @classmethod
    def fresh(cls, entries) -> "VqCodebook":
        """Codebook whose EMA state is consistent with its entries (usage 1)."""
        entries = _check_real_array("entries", entries, (None, None))
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
    """Constants for EMA updates and dead-code resets."""

    ema_decay: float = 0.99
    reset_threshold: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if _check_real("ema_decay", self.ema_decay, "positive") >= 1.0:
            raise ValueError(f"ema_decay must lie in (0, 1), got {self.ema_decay!r}")
        _check_real("reset_threshold", self.reset_threshold, "non-negative")
        _check_int("rng_seed", self.rng_seed, minimum=0)


class VqAssignment(NamedTuple):
    index: int
    entry: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # rows near float32's max keep every entry
def vq_assign(batch, codebook: VqCodebook) -> np.ndarray:
    """Nearest entry for each row of an (n, d) batch; ties pick the lowest index.

    Exact: float32 BLAS only shortlists, ((z - e) ** 2).sum() decides; _BLOCK_ROWS rows at a time.
    """
    batch = _check_real_array("batch", batch, (None, codebook.dim))
    entries, size, dim = codebook.entries, codebook.size, codebook.dim
    e2 = np.einsum("kd,kd->k", entries, entries)
    # [z, 1] @ weights = |e|^2 - 2 z.e in float32, one call a block
    weights = np.vstack([-2.0 * entries.T, e2]).astype(np.float32)
    bound = np.einsum("nd,nd->n", batch, batch) + e2.max()  # S = |z|^2 + |e|^2 <= bound
    # With u = 2^-24 and t float32's smallest normal, rounding to float32 moves x by <= u |x| + t,
    # with gradual underflow or flush-to-zero. The casts of z, -2 e and |e|^2 move short by
    # <= 4 u bound + t (2 |z||e| <= S), and the length d + 1 dot, its terms summing in |.| to
    # <= 2 bound, in any order with or without FMA by <= 2 (d + 1) u bound + (d + 1) t. The
    # float64 re-check errs by far less than u bound, so the winner's short is within (4 d + 13)
    # u bound + 2 (d + 2) t of min(short) to first order. margin is 4x that, enough for d < 2^22
    # with the higher-order terms, and each row's limit is rounded up to float32, never down.
    margin = 4 * ((4 * dim + 13) * 2.0**-24 * bound + 2 * (dim + 2) * _F32.tiny)
    margin[bound >= _F32.max / 8] = np.inf  # keep every entry; below max / 8 nothing overflows
    out = np.empty(len(batch), dtype=np.int64)
    n_buf = min(len(batch), _BLOCK_ROWS)
    z1 = np.ones((n_buf, dim + 1), dtype=np.float32)  # each block's [z, 1], last column at 1
    buffer, base = np.empty((n_buf, size), dtype=np.float32), np.arange(n_buf) * size
    step = max(1, _BLOCK_ROWS * size // dim)  # (step, d) re-check temporaries match the buffer
    for lo in range(0, len(batch), _BLOCK_ROWS):
        z = batch[lo:lo + _BLOCK_ROWS]
        n = len(z)
        z1[:n, :dim] = z
        short = np.matmul(z1[:n], weights, out=buffer[:n])  # the distance less |z|^2
        flat, best = short.reshape(-1), base[:n] + short.argmin(axis=1)
        low = flat[best]
        flat[best] = np.inf  # the runner-up is the row minimum with the argmin masked out
        second = flat[base[:n] + short.argmin(axis=1)]
        flat[best] = low
        limit = np.nextafter((low + margin[lo:lo + n]).astype(np.float32), np.float32(np.inf))
        out[lo:lo + n] = best - base[:n]  # rows whose runner-up lies above the limit are done
        tied = np.flatnonzero(~(second > limit))  # NaN stays in
        if not tied.size:
            continue
        r, cols = np.divmod(np.flatnonzero(~(short[tied] > limit[tied, None])), size)
        rows = tied[r]
        d2 = np.concatenate([((z[rows[s:s + step]] - entries[cols[s:s + step]]) ** 2).sum(axis=1)
                             for s in range(0, len(rows), step)])
        starts = np.flatnonzero(np.diff(r, prepend=-1))  # every tied row keeps its argmin
        first = np.where(d2 == np.minimum.reduceat(d2, starts)[r], cols, size)
        out[lo + tied] = np.minimum.reduceat(first, starts)
    return out


def vq_quantize(z, codebook: VqCodebook) -> VqAssignment:
    """vq_assign for one latent: its nearest entry, the lowest index on ties."""
    z = _check_real_array("latent", z, (codebook.dim,))
    index = int(vq_assign(z[None, :], codebook)[0])
    return VqAssignment(index=index, entry=codebook.entries[index].copy())


def vq_ema_update(batch, codebook: VqCodebook, params: VqTrainParams) -> VqCodebook:
    """One EMA codebook update from a batch of latents.

    Per code k with n_k assigned vectors summing to s_k:
        usage_k <- decay * usage_k + (1 - decay) * n_k
        sums_k  <- decay * sums_k  + (1 - decay) * s_k
        entry_k <- sums_k / max(usage_k, 1e-8)   when updated usage_k > 0
    Codes with zero updated usage keep their entries. The input codebook is
    not mutated.
    """
    batch = _check_real_array("batch", batch, (None, codebook.dim))
    indices = vq_assign(batch, codebook)
    n = np.bincount(indices, minlength=codebook.size).astype(np.float64)
    # per column, rows added in order from +0.0: the sums np.add.at gives, bit for bit
    s = np.column_stack([np.bincount(indices, weights=col, minlength=codebook.size)
                         for col in batch.T])
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
    batch = _check_real_array("batch", batch, (None, codebook.dim))
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
