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

__all__ = [
    "ModelConfig",
    "FlopsBreakdown",
    "flops_per_token_exact",
    "params_non_embedding",
    "params_vocab",
    "flops_approx",
]


def _check_int(name: str, value: object, minimum: int | None = 1) -> None:
    """The package's one integer rule: an int, never a bool, of at least minimum."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or (minimum is not None and value < minimum):
        kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
        kind = kind.get(minimum, f"an integer >= {minimum}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")


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
            _check_int(name, getattr(self, name))
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


def params_vocab(vocab_size: int, d_model: int) -> int:
    """Vocabulary parameter count N_v = vocab_size * d_model."""
    _check_int("vocab_size", vocab_size)
    _check_int("d_model", d_model)
    return vocab_size * d_model


def flops_approx(n_nv: float, n_v: float, d_tokens: float) -> float:
    """Training-compute approximation C = 6 * (n_nv + n_v) * d_tokens."""
    if not (math.isfinite(n_nv) and n_nv > 0):
        raise ValueError(f"n_nv must be positive and finite, got {n_nv!r}")
    if not (math.isfinite(n_v) and n_v >= 0):
        raise ValueError(f"n_v must be non-negative and finite, got {n_v!r}")
    if not (math.isfinite(d_tokens) and d_tokens > 0):
        raise ValueError(f"d_tokens must be positive and finite, got {d_tokens!r}")
    return 6.0 * (n_nv + n_v) * float(d_tokens)
