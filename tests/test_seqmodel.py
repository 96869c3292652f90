"""Prefix masks and normalized sequence losses."""

import math
import re

import numpy as np
import pytest

from scamo_lab import (
    TokenProbRecord,
    build_prefix_mask,
    ce_loss,
    normalized_loss,
)

LN_HALF = math.log(0.5)


def test_mask_worked_example():
    mask = build_prefix_mask(2, 2)
    expected = np.array(
        [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 1, 1, 1],
        ],
        dtype=bool,
    )
    assert np.array_equal(mask.allowed, expected)
    assert mask.t_text == 2 and mask.t_motion == 2


def test_mask_block_rules():
    for t_text, t_motion in [(0, 5), (5, 0), (1, 1), (3, 4), (7, 2)]:
        if t_text + t_motion == 0:
            continue
        m = build_prefix_mask(t_text, t_motion).allowed
        assert m.shape == (t_text + t_motion, t_text + t_motion)
        assert m[:t_text, :t_text].all()
        assert not m[:t_text, t_text:].any()
        assert m[t_text:, :t_text].all()
        motion = m[t_text:, t_text:]
        assert np.array_equal(motion, np.tril(np.ones_like(motion)))


def test_mask_degenerate_blocks():
    causal = build_prefix_mask(0, 4).allowed
    assert np.array_equal(causal, np.tril(np.ones((4, 4), dtype=bool)))
    full = build_prefix_mask(4, 0).allowed
    assert full.all()


def test_mask_validation():
    with pytest.raises(ValueError):
        build_prefix_mask(-1, 3)
    with pytest.raises(ValueError):
        build_prefix_mask(3, -1)
    with pytest.raises(ValueError, match="empty"):
        build_prefix_mask(0, 0)
    with pytest.raises(ValueError):
        build_prefix_mask(2.0, 3)


def test_record_validation():
    TokenProbRecord(0.0, 0.0)  # probability one is legal
    with pytest.raises(ValueError):
        TokenProbRecord(0.1, 0.0)
    with pytest.raises(ValueError):
        TokenProbRecord(0.0, float("nan"))
    with pytest.raises(ValueError):
        TokenProbRecord(float("-inf"), 0.0)


def test_ce_loss_hand_computed():
    records = [TokenProbRecord(LN_HALF, 0.0)] * 4
    out = ce_loss(records)
    assert out["sum_nats"] == pytest.approx(-4 * LN_HALF)
    assert out["mean_nats"] == pytest.approx(-LN_HALF)
    with pytest.raises(ValueError):
        ce_loss([])


def test_normalized_loss_hand_example():
    # two tokens: one matches the baseline, one is half as likely
    records = [TokenProbRecord(0.0, 0.0), TokenProbRecord(LN_HALF, 0.0)]
    assert normalized_loss(records) == pytest.approx(0.34657359027997264, abs=1e-15)


def test_normalized_loss_zero_when_model_is_baseline():
    rng = np.random.default_rng(2)
    records = [TokenProbRecord(lp, lp) for lp in -rng.exponential(size=50)]
    assert normalized_loss(records) == 0.0


def test_normalized_loss_sign():
    better = [TokenProbRecord(math.log(0.9), math.log(0.5))]
    worse = [TokenProbRecord(math.log(0.1), math.log(0.5))]
    assert normalized_loss(better) < 0 < normalized_loss(worse)


def test_normalized_loss_equals_ce_difference():
    rng = np.random.default_rng(3)
    records = [
        TokenProbRecord(-float(a), -float(b))
        for a, b in rng.exponential(size=(100, 2))
    ]
    model_mean = ce_loss(records)["mean_nats"]
    baseline_mean = -math.fsum(r.baseline_logp for r in records) / len(records)
    assert abs(normalized_loss(records) - (model_mean - baseline_mean)) < 1e-12


@pytest.mark.parametrize("loss, sum_of", [
    (ce_loss, "model_logp"),
    (normalized_loss, "model_logp - baseline_logp"),
])
def test_a_sum_past_float_range_is_a_value_error(loss, sum_of):
    records = [TokenProbRecord(-1e308, 0.0)] * 2
    with pytest.raises(ValueError, match=f"^the sum of {re.escape(sum_of)} overflows$"):
        loss(records)


def test_normalized_loss_empty():
    with pytest.raises(ValueError):
        normalized_loss([])
