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

from .flops import _INT64_MAX, _check_int, _check_int_array, _check_real_array

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

_LATENT_EPS = 1e-6  # latents for endpoint codes stay this far inside (0, 1) before the logit


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
        if math.prod(self.levels) > _INT64_MAX:  # flat indices are int64
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


def _rows(lv: FsqLevels):
    """The shape of one lv-channel vector, or of a batch of them, by the array's rank."""
    return lambda ndim: (lv.dimension,) if ndim == 1 else (None, lv.dimension)


def fsq_quantize(z, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Quantize latents to 1-based codes: q_i = 1 + round(sigmoid(z_i) * (levels[i] - 1)).

    Rounding is half away from zero: the scaled sigmoid is never negative, so it is
    floor(x + 0.5). Returns int64 codes with the input shape.
    """
    lv = _levels_of(levels)
    z = _check_real_array("latents", z, _rows(lv))
    spans = np.asarray(lv.levels, dtype=np.float64) - 1.0
    return (1 + np.floor(_sigmoid(z) * spans + 0.5)).astype(np.int64)


def fsq_dequantize(q, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Map codes to their level centers (q_i - 1) / (levels[i] - 1) in [0, 1]."""
    lv = _levels_of(levels)
    q = _check_int_array("codes", q, _rows(lv), 1, lv.levels)
    spans = np.asarray(lv.levels, dtype=np.float64) - 1.0
    return (q - 1) / spans


def fsq_encode_index(q, levels: FsqLevels | Sequence[int]) -> int | np.ndarray:
    """Flatten a code vector to its mixed-radix index, channel 0 least significant.

    index = sum_i (q_i - 1) * prod_{j<i} levels[j]. A single code vector gives
    a Python int; a batch gives an int64 array.
    """
    lv = _levels_of(levels)
    q = _check_int_array("codes", q, _rows(lv), 1, lv.levels)
    idx = np.ravel_multi_index(tuple((q - 1).T[::-1]), lv.levels[::-1])
    return int(idx) if q.ndim == 1 else idx


def fsq_decode_index(index, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Invert fsq_encode_index: flat index back to the 1-based code vector."""
    lv = _levels_of(levels)
    idx = _check_int_array("index", index, lambda ndim: () if ndim == 0 else (None,), 0,
                           codebook_size(lv) - 1)
    codes = np.stack(np.unravel_index(idx, lv.levels[::-1])[::-1], axis=-1)
    codes += 1
    return codes


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
    z = _check_real_array("latents", z, _rows(lv))
    value = fsq_dequantize(fsq_quantize(z, lv), lv)
    s = _sigmoid(z)
    return SteForward(value=value, surrogate_jacobian_diag=s * (1.0 - s))


def latent_for_code(q, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """A latent that quantizes to q: logit of the level center, clamped into
    (_LATENT_EPS, 1 - _LATENT_EPS) so the endpoint codes stay finite."""
    lv = _levels_of(levels)
    v = np.clip(fsq_dequantize(q, lv), _LATENT_EPS, 1.0 - _LATENT_EPS)
    return _logit(v)
