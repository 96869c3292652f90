"""Transformer FLOPs and parameter accounting.

Forward-pass FLOPs per token are counted per component with the
multiply-accumulate-equals-2-FLOPs convention; the attention mask term is the
only one that depends on context length. Parameters split into non-embedding
weights and the vocabulary matrix N_v = V * d_model (embedding and readout
shared). Training compute is approximated as C = 6 * (N_nv + N_v) * D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelConfig",
    "FlopsBreakdown",
    "flops_per_token_exact",
    "params_non_embedding",
    "flops_approx",
]


_INT64_MAX = 2**63 - 1  # bounds FSQ codebooks and run shapes; run counts stay below ~1e96
_BLOCK_ROWS = 8192  # rows per kernel block: a (8192, 6) float64 block buffer is 384 KB


def _check_int(name: str, value: object, minimum: int = 1, maximum=None) -> None:
    """The package's one integer rule: an int, never a bool, in [minimum, maximum]."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < minimum
            or (maximum is not None and value > maximum)):
        kind = (f"an integer in [{minimum}, {maximum}]" if maximum is not None
                else {0: "a non-negative integer", 1: "a positive integer"}[minimum])
        raise ValueError(f"{name} must be {kind}, got {value!r}")


# each kind of real number: its words, and its test on the (lowest, highest) of finite values
_REAL_KINDS = {"finite": ("finite", lambda lo, hi: True),
               "positive": ("positive and finite", lambda lo, hi: lo > 0),
               "non-negative": ("non-negative and finite", lambda lo, hi: lo >= 0),
               "non-positive": ("non-positive and finite", lambda lo, hi: hi <= 0)}


def _check_real(name: str, value: object, kind: str = "finite") -> float:
    """The one real-number rule: an int or float (numpy's too, never a bool), finite and, by kind,
    also positive, non-negative or non-positive. Returns it as a float; a huge int is +-inf."""
    if isinstance(value, float):  # numpy's float64 too; the common case, tested first
        x = value
    elif isinstance(value, (int, np.floating, np.integer)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past float range
            x = math.inf if value > 0 else -math.inf
    else:
        raise ValueError(f"{name} must be a number, got {value!r}")
    words, test = _REAL_KINDS[kind]
    if math.isfinite(x) and test(x, x):
        return x
    raise ValueError(f"{name} must be {words}, got {float(x)!r}")


def _as_array(value) -> np.ndarray:
    """np.asarray(value), or TypeError for a list holding a bool, which numpy would turn into a
    number ([True, 0.5] is float64). An ndarray is judged by its dtype alone, unscanned."""
    array = np.asarray(value)
    if not isinstance(value, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat):
        raise TypeError
    return array


def _shaped(name: str, array: np.ndarray, shape) -> np.ndarray:
    """array, if it has shape: an int is exactly that length, None any length >= 1. shape may
    also be a function of the array's rank that returns one."""
    shape = shape(array.ndim) if callable(shape) else shape
    if len(array.shape) != len(shape) or any(
        n < 1 if want is None else n != want for n, want in zip(array.shape, shape)
    ):
        want = ", ".join("n" if n is None else str(n) for n in shape) + "," * (len(shape) == 1)
        raise ValueError(f"{name} must have shape ({want}), got {array.shape}")
    return array


def _real_array(name: str, value, shape) -> np.ndarray:
    """The real-number rule's type and shape: integer, float or object values (never bool,
    complex or text, nor a ragged nesting) of the given shape, as float64. A float64 array comes
    back as is, not copied."""
    try:
        array = _as_array(value)
        if array.dtype.kind not in "iufO":  # bool, complex, text or dates
            raise TypeError
        array = array.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be real numbers") from None
    return _shaped(name, array, shape)


def _check_real_block(name: str, block: np.ndarray, kind: str = "finite") -> None:
    """The real-number rule's values on one non-empty block or whole array: every value finite,
    and also positive, non-negative or non-positive by kind."""
    words, test = _REAL_KINDS[kind]
    low, high = block.min(), block.max()  # no temporary: a NaN gives NaN, an infinity shows
    if not (-math.inf < low and high < math.inf and test(low, high)):
        raise ValueError(f"{name} must be {words}")


def _check_real_array(name: str, value, shape, kind: str = "finite") -> np.ndarray:
    """_real_array, then _check_real_block on the whole array, which its shape keeps non-empty."""
    array = _real_array(name, value, shape)
    _check_real_block(name, array, kind)
    return array


def _int_array(name: str, value, shape) -> np.ndarray:
    """The integer rule's type and shape: an integer dtype (never bool or float) of the given
    shape, as int64; an int64 array comes back as is, not copied. Python ints past the int64
    range, which numpy holds as objects, or as float64 beside a negative, come back unconverted
    for _int_rule to refuse; a uint64 past it wraps negative, below any minimum."""
    try:
        array = _as_array(value)
        integral = np.issubdtype(array.dtype, np.integer)
        wide = not (integral or isinstance(value, np.ndarray)) and array.size > 0 and all(
            type(x) is int for x in np.asarray(value, dtype=object).flat)
    except (TypeError, ValueError):  # a ragged nesting, or a bool in a list
        integral = wide = False
    if not integral and not wide:
        raise ValueError(f"{name} must be integers")
    array = _shaped(name, array, shape)
    return array if wide else array.astype(np.int64, copy=False)


def _int_rule(name: str, rows: np.ndarray, minimum: int, maximum=None):
    """The integer rule's values, as a function that judges one non-empty block of at most
    _BLOCK_ROWS of rows: rows of one value, or of channels for a maximum per channel. It refuses
    a value outside [minimum, maximum] (minimum is never negative), and an unconverted block."""
    # the maximum, one or per channel, tiled once to a whole block: a block compares in one loop
    top = None if maximum is None else np.broadcast_to(maximum, rows[:_BLOCK_ROWS].shape).copy()
    def check(block: np.ndarray) -> None:
        if (block.dtype != np.int64 or block.min() < minimum
                or top is not None and not (block <= top[:len(block)]).all()):
            bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
            raise ValueError(f"{name} must be integers {bounds}")
    return check


def _check_int_array(name: str, value, shape, minimum: int, maximum=None) -> np.ndarray:
    """_int_array, then _int_rule on each block; maximum may be per channel, broadcast on the
    last axis."""
    array = _int_array(name, value, shape)
    rows = array.reshape(-1, *np.shape(maximum))  # a view: rows of one value or of channels
    check = _int_rule(name, rows, minimum, maximum)
    for lo in range(0, len(rows), _BLOCK_ROWS):
        check(rows[lo:lo + _BLOCK_ROWS])
    return array


@dataclass(frozen=True, slots=True)
class ModelConfig:
    """Decoder-only transformer shape.

    n_ctx is always explicit; FLOPs depend on it through the attention mask
    term and there is no safe default.
    """

    n_layers: int
    n_heads: int
    d_model: int
    n_ctx: int
    n_vocab: int
    ff_ratio: int = 4

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_model", "n_ctx", "n_vocab", "ff_ratio"):
            _check_int(name, getattr(self, name), 1, _INT64_MAX)
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )

    @property
    def d_attn(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_ff(self) -> int:
        return self.d_model * self.ff_ratio


@dataclass(frozen=True)
class FlopsBreakdown:
    """Per-token forward FLOPs split by component, all exact integers."""

    embeddings: int
    attn_qkv: int
    attn_mask: int
    attn_project: int
    ff: int
    logits: int
    total: int


def flops_per_token_exact(cfg: ModelConfig) -> FlopsBreakdown:
    """Exact per-token forward FLOPs, including the context-length term.

    Integer arithmetic throughout; total is the sum of the six components.
    """
    d_qkv = cfg.d_attn * cfg.n_heads
    embeddings = 4 * cfg.d_model
    attn_qkv = 2 * cfg.n_layers * cfg.d_model * 3 * d_qkv
    attn_mask = 2 * cfg.n_layers * cfg.n_ctx * d_qkv
    attn_project = 2 * cfg.n_layers * d_qkv * cfg.d_model
    ff = 2 * cfg.n_layers * 2 * cfg.d_model * cfg.d_ff
    logits = 2 * cfg.d_model * cfg.n_vocab
    total = embeddings + attn_qkv + attn_mask + attn_project + ff + logits
    return FlopsBreakdown(
        embeddings=embeddings,
        attn_qkv=attn_qkv,
        attn_mask=attn_mask,
        attn_project=attn_project,
        ff=ff,
        logits=logits,
        total=total,
    )


def params_non_embedding(cfg: ModelConfig) -> int:
    """Non-embedding parameter count 2 * d_model * n_layers * (2 * d_attn * n_heads + d_ff).

    At ff_ratio 4 this reduces to 12 * n_layers * d_model**2.
    """
    return 2 * cfg.d_model * cfg.n_layers * (2 * cfg.d_attn * cfg.n_heads + cfg.d_ff)


def flops_approx(n_nv: float, n_v: float, d_tokens: float) -> float:
    """Training-compute approximation C = 6 * (n_nv + n_v) * d_tokens."""
    _check_real("n_nv", n_nv, "positive")
    _check_real("n_v", n_v, "non-negative")
    _check_real("d_tokens", d_tokens, "positive")
    return 6.0 * (n_nv + n_v) * float(d_tokens)
