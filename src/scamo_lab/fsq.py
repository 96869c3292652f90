"""Finite scalar quantization with per-channel level counts.

Channel i of a latent vector is squashed through a sigmoid and rounded onto
levels[i] evenly spaced points spanning [0, 1]. Codes are 1-based per channel.
A code vector maps to a flat codebook index in mixed-radix order with channel
0 least significant, so the full codebook enumerates as index 0..prod(levels)-1.

All array ops accept a single latent of shape (dim,) or a batch (n, dim).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import AbstractSet, Mapping, NamedTuple, Sequence

import numpy as np

from .flops import (_BLOCK_ROWS, _INT64_MAX, _check_int, _check_real_block, _int_array, _int_rule,
                    _real_array)

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
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class FsqLevels:
    """Per-channel level counts of a finite scalar quantizer."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(levels := self.levels, (str, bytes, Mapping, AbstractSet)):  # not in order
            raise ValueError(f"levels must be a sequence of integers, got {type(levels).__name__}")
        object.__setattr__(self, "levels", tuple(levels))  # a tuple stays the same object
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
    return levels if isinstance(levels, FsqLevels) else FsqLevels(levels)


def codebook_size(levels: FsqLevels | Sequence[int]) -> int:
    """Number of distinct codes, prod(levels), as an exact integer."""
    return math.prod(_levels_of(levels).levels)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)); exp's overflow and underflow give exactly 0 and 1."""
    with np.errstate(over="ignore", under="ignore"):  # set on this thread, whatever the caller's
        out = np.negative(z)
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


def _fan_out(n: int, kernel) -> None:
    """Call kernel(block) on each slice of at most _BLOCK_ROWS rows of range(n), n > 0, in order
    within at most _WORKERS runs of whole blocks: the first run on this thread, the rest on
    threads, all joined before the first error is raised."""
    per = -(-n // (_BLOCK_ROWS * _WORKERS)) * _BLOCK_ROWS  # rows in a run; under 2 blocks, 1 run
    errors = []
    def run(lo: int) -> None:
        try:
            for start in range(lo, min(lo + per, n), _BLOCK_ROWS):
                kernel(slice(start, min(start + _BLOCK_ROWS, n)))
        except BaseException as exc:  # raised on the calling thread once every run is done
            errors.append(exc)
    threads = [threading.Thread(target=run, args=(lo,)) for lo in range(per, n, per)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _spans(lv: FsqLevels, n: int) -> np.ndarray:
    """levels - 1 tiled to a block of at most n rows: a block is scaled in one loop, not per row."""
    return np.tile(np.asarray(lv.levels, dtype=np.float64) - 1.0, (min(n, _BLOCK_ROWS), 1))


def _code(x: np.ndarray, spans: np.ndarray, c: np.ndarray) -> None:
    """c = 1 + floor(x * span + 0.5) for a block of sigmoids x >= 0, which it overwrites."""
    x *= spans[:len(x)]
    x += 0.5
    np.copyto(c, x, casting="unsafe")  # x >= 0.5, so the cast's truncation is its floor
    c += 1


def _value(c: np.ndarray, spans: np.ndarray, v: np.ndarray) -> None:
    """v = (c - 1) / span for a block of codes c."""
    np.subtract(c, 1, out=v, casting="unsafe")  # exact: codes are at most 2**52
    v /= spans[:len(v)]


def fsq_quantize(z, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Quantize latents to 1-based codes: q_i = 1 + round(sigmoid(z_i) * (levels[i] - 1)).

    Rounding is half away from zero: the scaled sigmoid is never negative, so it is
    floor(x + 0.5). Returns int64 codes with the input shape. Works _BLOCK_ROWS rows at a
    time, each block's values checked as it is read.
    """
    lv = _levels_of(levels)
    z = _real_array("latents", z, _rows(lv))
    out = np.empty_like(z, dtype=np.int64)  # in the latents' memory order, as a ufunc's output
    rows, codes = z.reshape(-1, lv.dimension), out.reshape(-1, lv.dimension)
    spans = _spans(lv, len(rows))
    def kernel(block: slice) -> None:
        _check_real_block("latents", rows[block])
        _code(_sigmoid(rows[block]), spans, codes[block])
    _fan_out(len(rows), kernel)
    return out


def fsq_dequantize(q, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Map codes to their level centers (q_i - 1) / (levels[i] - 1) in [0, 1]."""
    lv = _levels_of(levels)
    q = _int_array("codes", q, _rows(lv))
    out = np.empty_like(q, dtype=np.float64)  # in the codes' memory order, as a ufunc's output
    rows, values = q.reshape(-1, lv.dimension), out.reshape(-1, lv.dimension)
    spans, check = _spans(lv, len(rows)), _int_rule("codes", rows, 1, lv.levels)
    def kernel(block: slice) -> None:
        check(rows[block])
        _value(rows[block], spans, values[block])
    _fan_out(len(rows), kernel)
    return out


def fsq_encode_index(q, levels: FsqLevels | Sequence[int]) -> int | np.ndarray:
    """Flatten a code vector to its mixed-radix index, channel 0 least significant.

    index = sum_i (q_i - 1) * prod_{j<i} levels[j]. A single code vector gives
    a Python int; a batch gives an int64 array. Horner's rule from the last
    channel, _BLOCK_ROWS rows at a time; every partial sum stays below
    prod(levels), so none overflows int64.
    """
    lv = _levels_of(levels)
    q = _int_array("codes", q, _rows(lv))
    rows = q.reshape(-1, lv.dimension)
    out, check = np.empty(len(rows), dtype=np.int64), _int_rule("codes", rows, 1, lv.levels)
    def kernel(block: slice) -> None:
        acc, c = out[block], rows[block]
        check(c)
        np.subtract(c[:, -1], 1, out=acc)
        for i in range(lv.dimension - 2, -1, -1):
            acc *= lv.levels[i]
            acc -= 1
            acc += c[:, i]
    _fan_out(len(rows), kernel)
    return int(out[0]) if q.ndim == 1 else out


def fsq_decode_index(index, levels: FsqLevels | Sequence[int]) -> np.ndarray:
    """Invert fsq_encode_index: flat index back to the 1-based code vector.

    Channel by channel from channel 0, _BLOCK_ROWS indices at a time: the quotient by
    the level count, kept as a contiguous row of the block's (dim, block) quotients, is what
    is left to divide, and the value less quotient times level count is the channel's code.
    """
    lv = _levels_of(levels)
    idx = _int_array("index", index, lambda ndim: () if ndim == 0 else (None,))
    out = np.empty(idx.shape + (lv.dimension,), dtype=np.int64)
    flat, codes = idx.reshape(-1), out.reshape(-1, lv.dimension)
    check = _int_rule("index", flat, 0, codebook_size(lv) - 1)
    def kernel(block: slice) -> None:
        check(flat[block])
        t, c = np.empty((lv.dimension, block.stop - block.start), dtype=np.int64), codes[block]
        np.copyto(t[0], flat[block])
        for i, level in enumerate(lv.levels[:-1]):
            np.floor_divide(t[i], level, out=t[i + 1])
            np.subtract(t[i], t[i + 1] * level, out=c[:, i])
        c[:, -1] = t[-1]  # below the last level count once the others are divided out
        c += 1
    _fan_out(len(flat), kernel)
    return out


class SteForward(NamedTuple):
    value: np.ndarray
    surrogate_jacobian_diag: np.ndarray


def fsq_ste_forward(z, levels: FsqLevels | Sequence[int]) -> SteForward:
    """Straight-through forward pass.

    value is the dequantized code of z. The true jacobian of the rounding is
    zero almost everywhere, so the surrogate diagonal is the sigmoid
    derivative sigmoid(z) * (1 - sigmoid(z)) per channel. One sigmoid per block
    gives both, through quantize's and dequantize's block arithmetic.
    """
    lv = _levels_of(levels)
    z = _real_array("latents", z, _rows(lv))
    value, jac = np.empty_like(z), np.empty_like(z)  # in the latents' memory order
    rows, values, jacs = (a.reshape(-1, lv.dimension) for a in (z, value, jac))
    spans = _spans(lv, len(rows))
    def kernel(block: slice) -> None:
        _check_real_block("latents", rows[block])
        s = _sigmoid(rows[block])
        np.multiply(s, 1.0 - s, out=jacs[block])
        c = np.empty(s.shape, dtype=np.int64)
        _code(s, spans, c)
        _value(c, spans, values[block])
    _fan_out(len(rows), kernel)
    return SteForward(value=value, surrogate_jacobian_diag=jac)
