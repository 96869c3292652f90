"""FLOPs and parameter accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scamo_lab import (
    FlopsBreakdown,
    ModelConfig,
    flops_approx,
    flops_per_token_exact,
    params_non_embedding,
)
from scamo_lab.flops import _REAL_KINDS, _check_real, _check_real_array


def test_breakdown_reference_shape():
    cfg = ModelConfig(n_layers=8, n_heads=8, d_model=512, n_ctx=1024, n_vocab=65536)
    b = flops_per_token_exact(cfg)
    assert b == FlopsBreakdown(
        embeddings=2048,
        attn_qkv=12582912,
        attn_mask=8388608,
        attn_project=4194304,
        ff=33554432,
        logits=67108864,
        total=125831168,
    )


def test_breakdown_tiny_hand_computed():
    cfg = ModelConfig(n_layers=1, n_heads=1, d_model=2, n_ctx=3, n_vocab=5)
    b = flops_per_token_exact(cfg)
    assert b.embeddings == 8
    assert b.attn_qkv == 24
    assert b.attn_mask == 12
    assert b.attn_project == 8
    assert b.ff == 64
    assert b.logits == 20
    assert b.total == 136


def test_total_is_sum_of_components():
    rng = np.random.default_rng(0)
    for _ in range(200):
        heads = int(rng.integers(1, 17))
        cfg = ModelConfig(
            n_layers=int(rng.integers(1, 65)),
            n_heads=heads,
            d_model=heads * int(rng.integers(1, 129)),
            n_ctx=int(rng.integers(1, 4097)),
            n_vocab=int(rng.integers(1, 100001)),
            ff_ratio=int(rng.integers(1, 9)),
        )
        b = flops_per_token_exact(cfg)
        parts = [b.embeddings, b.attn_qkv, b.attn_mask, b.attn_project, b.ff, b.logits]
        assert b.total == sum(parts)
        assert all(isinstance(p, int) for p in parts)


def test_total_decomposes_into_params_and_mask_term():
    # attn_qkv + attn_project + ff = 2 * N_nv, so the total is
    # 4d + 2*N_nv + 2*L*ctx*d + 2*d*V for every shape.
    rng = np.random.default_rng(1)
    for _ in range(100):
        heads = int(rng.integers(1, 9))
        cfg = ModelConfig(
            n_layers=int(rng.integers(1, 49)),
            n_heads=heads,
            d_model=heads * int(rng.integers(1, 65)),
            n_ctx=int(rng.integers(1, 2049)),
            n_vocab=int(rng.integers(1, 70001)),
            ff_ratio=int(rng.integers(1, 9)),
        )
        b = flops_per_token_exact(cfg)
        n_nv = params_non_embedding(cfg)
        assert b.attn_qkv + b.attn_project + b.ff == 2 * n_nv
        mask = 2 * cfg.n_layers * cfg.n_ctx * cfg.d_model
        assert b.total == 4 * cfg.d_model + 2 * n_nv + mask + 2 * cfg.d_model * cfg.n_vocab


# Published model shapes: name -> (n_layers, n_heads, d_model).
SHAPES = {
    "scamo-44m": (8, 8, 512),
    "scamo-111m": (12, 12, 768),
    "scamo-343m": (24, 16, 1024),
    "scamo-775m": (36, 20, 1280),
    "scamo-1.4b": (48, 24, 1536),
    "scamo-3b": (24, 32, 3200),
}


def test_params_non_embedding_is_12_l_d2_at_default_ff():
    for n_layers, n_heads, d_model in SHAPES.values():
        cfg = ModelConfig(
            n_layers=n_layers, n_heads=n_heads, d_model=d_model, n_ctx=1024, n_vocab=512
        )
        assert params_non_embedding(cfg) == 12 * n_layers * d_model**2


def test_params_3b_preset():
    n_layers, n_heads, d_model = SHAPES["scamo-3b"]
    cfg = ModelConfig(n_layers=n_layers, n_heads=n_heads, d_model=d_model, n_ctx=1024, n_vocab=2)
    assert params_non_embedding(cfg) == 2949120000


def test_flops_approx_value():
    assert flops_approx(1e9, 2e8, 1e7) == 6.0 * 1.2e9 * 1e7
    assert flops_approx(1.0, 0.0, 1.0) == 6.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_nv": 0.0, "n_v": 1.0, "d_tokens": 1.0},
        {"n_nv": -1.0, "n_v": 1.0, "d_tokens": 1.0},
        {"n_nv": 1.0, "n_v": -1.0, "d_tokens": 1.0},
        {"n_nv": 1.0, "n_v": 1.0, "d_tokens": 0.0},
        {"n_nv": float("inf"), "n_v": 1.0, "d_tokens": 1.0},
        {"n_nv": 1.0, "n_v": float("nan"), "d_tokens": 1.0},
    ],
)
def test_flops_approx_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        flops_approx(**kwargs)


def test_model_config_derived_dims():
    cfg = ModelConfig(n_layers=12, n_heads=12, d_model=768, n_ctx=1024, n_vocab=512)
    assert cfg.d_attn == 64
    assert cfg.d_ff == 3072


def test_model_config_validation():
    good = dict(n_layers=2, n_heads=2, d_model=4, n_ctx=8, n_vocab=16)
    ModelConfig(**good)
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(**{**good, "d_model": 5})
    for field in good:
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{**good, field: 0})
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{**good, field: 2.0})
    with pytest.raises(ValueError, match="ff_ratio"):
        ModelConfig(**good, ff_ratio=0)
    with pytest.raises(ValueError, match="n_layers"):
        ModelConfig(**{**good, "n_layers": True})


# floats of every sort, with the edges named, and ints a float holds: an int past float range is
# inf to the scalar rule but not a real number to the array rule, by design
REALS = (st.floats() | st.integers(-2**1023, 2**1023)
         | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan]))


@pytest.mark.parametrize("kind", sorted(_REAL_KINDS))
@given(value=REALS)
def test_scalar_and_array_real_rules_agree(kind, value):
    def verdict(check, *args):
        try:
            check("x", *args, kind)
        except ValueError as exc:
            return str(exc).split(", got ")[0]
        return "accepted"

    scalar = verdict(_check_real, value)
    assert scalar in ("accepted", f"x must be {_REAL_KINDS[kind][0]}")
    assert verdict(_check_real_array, [value], (1,)) == scalar


@pytest.mark.parametrize("value", [-1.0, 0.0, 1.0])
def test_a_misspelt_real_kind_raises_for_any_value(value):
    with pytest.raises(KeyError):
        _check_real("x", value, "positve")
    with pytest.raises(KeyError):
        _check_real_array("x", [value], (1,), "positve")
