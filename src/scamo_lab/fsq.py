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

from .flops import _BLOCK_ROWS, _INT64_MAX, _check_int, _check_int_array, _check_real_array

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
]

_LATENT_EPS = 1e-6  # latents for endpoint codes stay this far inside (0, 1) before the logit
_MAX_LEVEL = 2**52  # quantize rounds in float64: floor(x + 0.5) is exact only for x < 2**52


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
            _check_int("every level count", lv, minimum=2, maximum=_MAX_LEVEL)
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


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), into out if given; an overflowing exp gives exactly 0, as it should."""
    with np.errstate(over="ignore"):
        out = np.negative(z, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _logit(v: np.ndarray) -> np.ndarray:
    """log(v / (1 - v)); scipy's piecewise form, log1p near v = 1/2 where the ratio loses bits."""
    s = 2.0 * (v - 0.5)
    near_half = (v >= 0.3) & (v <= 0.65)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(near_half, np.log1p(s) - np.log1p(-s), np.log(v / (1.0 - v)))


def _rows(lv: FsqLevels):
    """The shape of one lv-channel vector, or of a batch of them, by the array's rank."""
    return lambda ndim: (lv.dimension,) if ndim == 1 else (None, lv.dimension)


def _blocks(n: int):
    """Slices of at most _BLOCK_ROWS rows that cover range(n) in order."""
    return (slice(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def fsq_quantize(z, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Quantize latents to 1-based codes: q_i = 1 + round(sigmoid(z_i) * (levels[i] - 1)).

    Rounding is half away from zero: the scaled sigmoid is never negative, so it is
    floor(x + 0.5). Returns int64 codes with the input shape. Works _BLOCK_ROWS rows at a
    time in one reused float64 buffer.
    """
    lv = _levels_of(levels)
    z = _check_real_array("latents", z, _rows(lv))
    spans = np.asarray(lv.levels, dtype=np.float64) - 1.0
    out = np.empty_like(z, dtype=np.int64)  # in the latents' memory order, as a ufunc's output
    rows, codes = z.reshape(-1, lv.dimension), out.reshape(-1, lv.dimension)
    buffer = np.empty((min(len(rows), _BLOCK_ROWS), lv.dimension))
    for block in _blocks(len(rows)):
        x, c = _sigmoid(rows[block], out=buffer[:block.stop - block.start]), codes[block]
        x *= spans
        x += 0.5
        np.floor(x, out=c, casting="unsafe")  # floored in float64, then cast: exact
        c += 1
    return out


def fsq_dequantize(q, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Map codes to their level centers (q_i - 1) / (levels[i] - 1) in [0, 1]."""
    lv = _levels_of(levels)
    q = _check_int_array("codes", q, _rows(lv), 1, lv.levels)
    spans = np.asarray(lv.levels, dtype=np.float64) - 1.0
    return (q - 1) / spans


def fsq_encode_index(q, levels: FsqLevels | Sequence[int]) -> int | np.ndarray:
    """Flatten a code vector to its mixed-radix index, channel 0 least significant.

    index = sum_i (q_i - 1) * prod_{j<i} levels[j]. A single code vector gives
    a Python int; a batch gives an int64 array. Horner's rule from the last
    channel, _BLOCK_ROWS rows at a time; every partial sum stays below
    prod(levels), so none overflows int64.
    """
    lv = _levels_of(levels)
    q = _check_int_array("codes", q, _rows(lv), 1, lv.levels)
    rows = q.reshape(-1, lv.dimension)
    out = np.empty(len(rows), dtype=np.int64)
    for block in _blocks(len(rows)):
        acc, c = out[block], rows[block]
        np.subtract(c[:, -1], 1, out=acc)
        for i in range(lv.dimension - 2, -1, -1):
            acc *= lv.levels[i]
            acc -= 1
            acc += c[:, i]
    return int(out[0]) if q.ndim == 1 else out


def fsq_decode_index(index, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Invert fsq_encode_index: flat index back to the 1-based code vector.

    Channel by channel from channel 0, _BLOCK_ROWS indices at a time: divmod
    by the level count leaves the channel's code and the remainder to divide on.
    """
    lv = _levels_of(levels)
    idx = _check_int_array("index", index, lambda ndim: () if ndim == 0 else (None,), 0,
                           codebook_size(lv) - 1)
    out = np.empty(idx.shape + (lv.dimension,), dtype=np.int64)
    flat, codes = idx.reshape(-1), out.reshape(-1, lv.dimension)
    remainder = np.empty(min(len(flat), _BLOCK_ROWS), dtype=np.int64)
    for block in _blocks(len(flat)):
        rem, c = remainder[:block.stop - block.start], codes[block]
        np.copyto(rem, flat[block])
        for i, level in enumerate(lv.levels[:-1]):
            np.divmod(rem, level, out=(rem, c[:, i]))
        c[:, -1] = rem  # below the last level count once the others are divided out
        c += 1
    return out


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
