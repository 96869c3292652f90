"""Finite scalar quantization with per-channel level counts.

Channel i of a latent vector is squashed through a sigmoid and rounded onto
levels[i] evenly spaced points spanning [0, 1]. Codes are 1-based per channel.
A code vector maps to a flat codebook index in mixed-radix order with channel
0 least significant, so the full codebook enumerates as index 0..prod(levels)-1.

All array ops accept a single latent of shape (dim,) or a batch (n, dim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .flops import _check_int

__all__ = [
    "FsqLevels",
    "LEVEL_PRESETS",
    "codebook_size",
    "fsq_quantize",
    "fsq_dequantize",
    "fsq_encode_index",
    "fsq_decode_index",
    "fsq_ste_forward",
    "SteForward",
    "latent_for_code",
]

# Flat indices are vectorized in int64, so keep the codebook inside that range.
_MAX_CODEBOOK = 2**63 - 1


@dataclass(frozen=True)
class FsqLevels:
    """Per-channel level counts of a finite scalar quantizer."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.levels, tuple):
            object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) == 0:
            raise ValueError("levels must be non-empty")
        for lv in self.levels:
            _check_int("every level count", lv, minimum=2)
        if math.prod(self.levels) > _MAX_CODEBOOK:
            raise ValueError("codebook size exceeds the exact int64 range")

    @property
    def dimension(self) -> int:
        return len(self.levels)


# Production presets keyed by nominal codebook size. Products match the
# nominal size only for 2^6 and 2^9; the rest trade size for channel balance
# (15, 240, 1000, 1920, 4375, 15360, 64000).
LEVEL_PRESETS: dict[str, FsqLevels] = {
    "2^4": FsqLevels((5, 3)),
    "2^6": FsqLevels((8, 8)),
    "2^8": FsqLevels((8, 6, 5)),
    "2^9": FsqLevels((8, 8, 8)),
    "2^10": FsqLevels((8, 5, 5, 5)),
    "2^11": FsqLevels((8, 8, 6, 5)),
    "2^12": FsqLevels((7, 5, 5, 5, 5)),
    "2^14": FsqLevels((8, 8, 8, 6, 5)),
    "2^16": FsqLevels((8, 8, 8, 5, 5, 5)),
}


def _levels_of(levels: FsqLevels | Sequence[int]) -> FsqLevels:
    if isinstance(levels, FsqLevels):
        return levels
    return FsqLevels(tuple(levels))


def codebook_size(levels: FsqLevels | Sequence[int]) -> int:
    """Number of distinct codes, prod(levels), as an exact integer."""
    return math.prod(_levels_of(levels).levels)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)); an overflowing exp gives exactly 0, as it should."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _logit(v: np.ndarray) -> np.ndarray:
    """log(v / (1 - v)); scipy's piecewise form, log1p near v = 1/2 where the ratio loses bits."""
    s = 2.0 * (v - 0.5)
    near_half = (v >= 0.3) & (v <= 0.65)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(near_half, np.log1p(s) - np.log1p(-s), np.log(v / (1.0 - v)))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _check_latents(z, lv: FsqLevels) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != lv.dimension:
        raise ValueError(
            f"latents must have {lv.dimension} channels in the last axis, got shape {z.shape}"
        )
    if not np.isfinite(z).all():
        raise ValueError("latents must be finite")
    return z


def _check_codes(q, lv: FsqLevels) -> np.ndarray:
    q = np.asarray(q)
    if not np.issubdtype(q.dtype, np.integer):
        raise ValueError("codes must be integers")
    if q.ndim not in (1, 2) or q.shape[-1] != lv.dimension:
        raise ValueError(
            f"codes must have {lv.dimension} channels in the last axis, got shape {q.shape}"
        )
    q = q.astype(np.int64)
    bounds = np.asarray(lv.levels, dtype=np.int64)
    if ((q < 1) | (q > bounds)).any():
        raise ValueError(f"code channels must lie in 1..levels, levels {lv.levels}")
    return q


def fsq_quantize(z, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Quantize latents to 1-based codes: q_i = 1 + round(sigmoid(z_i) * (levels[i] - 1)).

    Rounding is half away from zero. Returns int64 codes with the input shape.
    """
    lv = _levels_of(levels)
    z = _check_latents(z, lv)
    spans = np.asarray(lv.levels, dtype=np.float64) - 1.0
    return (1 + _round_half_away(_sigmoid(z) * spans)).astype(np.int64)


def fsq_dequantize(q, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Map codes to their level centers (q_i - 1) / (levels[i] - 1) in [0, 1]."""
    lv = _levels_of(levels)
    q = _check_codes(q, lv)
    spans = np.asarray(lv.levels, dtype=np.float64) - 1.0
    return (q - 1) / spans


def fsq_encode_index(q, levels: FsqLevels | Sequence[int]) -> int | np.ndarray:
    """Flatten a code vector to its mixed-radix index, channel 0 least significant.

    index = sum_i (q_i - 1) * prod_{j<i} levels[j]. A single code vector gives
    a Python int; a batch gives an int64 array.
    """
    lv = _levels_of(levels)
    q = _check_codes(q, lv)
    place = np.concatenate(([1], np.cumprod(np.asarray(lv.levels[:-1], dtype=np.int64))))
    idx = ((q - 1) * place).sum(axis=-1)
    return int(idx) if q.ndim == 1 else idx


def fsq_decode_index(index, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Invert fsq_encode_index: flat index back to the 1-based code vector."""
    lv = _levels_of(levels)
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("index must be an integer")
    if idx.ndim > 1:
        raise ValueError("index must be a scalar or 1-D array")
    size = codebook_size(lv)
    if ((idx < 0) | (idx >= size)).any():
        raise ValueError(f"index out of range [0, {size})")
    rem = idx.reshape(-1).astype(np.int64)
    digits = np.empty((rem.size, lv.dimension), dtype=np.int64)
    for i, base in enumerate(lv.levels):
        digits[:, i] = rem % base + 1
        rem = rem // base
    return digits[0] if idx.ndim == 0 else digits


class SteForward(NamedTuple):
    value: np.ndarray
    surrogate_jacobian_diag: np.ndarray


def fsq_ste_forward(z, levels: FsqLevels | Sequence[int]) -> SteForward:
    """Straight-through forward pass.

    value is the dequantized code of z. The true jacobian of the rounding is
    zero almost everywhere, so the surrogate diagonal is the sigmoid
    derivative sigmoid(z) * (1 - sigmoid(z)) per channel.
    """
    lv = _levels_of(levels)
    z = _check_latents(z, lv)
    value = fsq_dequantize(fsq_quantize(z, lv), lv)
    s = _sigmoid(z)
    return SteForward(value=value, surrogate_jacobian_diag=s * (1.0 - s))


def latent_for_code(q, levels: FsqLevels | Sequence[int], eps: float = 1e-6) -> np.ndarray:
    """A latent that quantizes to q: logit of the level center, clamped into
    (eps, 1 - eps) so the endpoint codes stay finite."""
    lv = _levels_of(levels)
    v = np.clip(fsq_dequantize(q, lv), eps, 1.0 - eps)
    return _logit(v)
