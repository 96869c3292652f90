"""Budget planning against the shipped coefficient preset."""

import dataclasses
import math

import pytest

from scamo_lab import (
    CONSISTENCY_TOLERANCE_LOG10,
    FITS_PRESETS,
    REFERENCE_PRESETS,
    PowerLawFit,
    ReferenceSelection,
    consistency_report,
    nearest_power_of_two,
    plan_budget,
    vocab_for_model,
)

PRESET = FITS_PRESETS["scamo-paper"]


def test_preset_coefficients():
    assert PRESET.nv_vs_c.log10_coef == -5.29 and PRESET.nv_vs_c.exponent == 0.75
    assert PRESET.nnv_vs_c.log10_coef == -0.52 and PRESET.nnv_vs_c.exponent == 0.57
    assert PRESET.d_vs_c.log10_coef == -0.05 and PRESET.d_vs_c.exponent == 0.43
    assert PRESET.nv_vs_nnv.log10_coef == -5.604 and PRESET.nv_vs_nnv.exponent == 1.467
    assert PRESET.nv_vs_nnv.r2 == 0.95
    assert PRESET.loss_vs_c.slope == -1.062 and PRESET.loss_vs_c.intercept == 13.839


def test_reference_preset():
    ref = REFERENCE_PRESETS["scamo-paper"]
    assert ref.n_nv == 3e9
    assert ref.vocab_size == 65536
    assert ref.d_tokens == pytest.approx(10**7.5)


def test_predict_loss_at_1e18():
    assert PRESET.loss_vs_c.evaluate(1e18) == pytest.approx(-5.277, abs=1e-12)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, 1),
        (2, 2),
        (3, 4),  # 3^2 = 9 >= 8, ties in log2 round up
        (5, 4),
        (6, 8),
        (1024, 1024),
        (1448, 1024),
        (1449, 2048),
        (50682, 65536),
        (62200, 65536),
    ],
)
def test_nearest_power_of_two(n, expected):
    assert nearest_power_of_two(n) == expected


def test_nearest_power_of_two_validation():
    with pytest.raises(ValueError):
        nearest_power_of_two(0)
    with pytest.raises(ValueError):
        nearest_power_of_two(2.0)


def test_plan_reference_budget():
    plan = plan_budget(1e18, PRESET, 3200)
    assert plan.flops_budget == 1e18
    assert plan.predicted_loss == pytest.approx(-5.277, abs=1e-12)
    assert plan.vocab_size == 50682
    assert plan.vocab_pow2 == 65536
    assert math.log10(plan.n_nv) == pytest.approx(9.74, abs=1e-12)
    assert math.log10(plan.d_tokens) == pytest.approx(7.69, abs=1e-12)
    assert math.log10(plan.n_v) == pytest.approx(8.21, abs=1e-12)
    assert plan.constraint_residual_log10 == pytest.approx(0.22078270242933343, abs=1e-12)


def test_plan_takes_its_allocation_from_the_laws_point():
    plan = plan_budget(1e18, PRESET, 3200)
    assert PRESET.allocation(1e18) == (plan.n_v, plan.n_nv, plan.d_tokens)
    assert PRESET.allocation(1e18) == tuple(
        law.evaluate(1e18) for law in (PRESET.nv_vs_c, PRESET.nnv_vs_c, PRESET.d_vs_c))


def test_preset_laws_disagree_as_the_readme_states():
    """The facts stated beside the preset in the README, recomputed from its laws."""
    law = PRESET.nv_vs_nnv
    # n_v against n_nv along the *_vs_c laws: nv_vs_c composed with the inverse of nnv_vs_c
    (v1, n1, _), (v2, n2, _) = PRESET.allocation(1e16), PRESET.allocation(1e20)
    exponent = math.log10(v2 / v1) / math.log10(n2 / n1)
    log10_coef = math.log10(v1) - exponent * math.log10(n1)
    assert (round(exponent, 3), round(log10_coef, 3)) == (1.316, -4.606)
    assert (law.exponent, law.log10_coef) == (1.467, -5.604)
    # the gap at n_nv = 3e9, at the budget where nnv_vs_c gives 3e9
    c_3e9 = (3e9 / 10**PRESET.nnv_vs_c.log10_coef) ** (1 / PRESET.nnv_vs_c.exponent)
    n_v, n_nv, _ = PRESET.allocation(c_3e9)
    assert n_nv == pytest.approx(3e9, rel=1e-12)
    assert round(math.log10(law.evaluate(n_nv) / n_v), 3) == 0.435
    # the gap at the 1e18 plan's n_nv, past the consistency tolerance
    n_v, n_nv, _ = PRESET.allocation(1e18)
    assert f"{n_nv:.2e}" == "5.50e+09"
    gap = math.log10(law.evaluate(n_nv) / n_v)
    assert round(gap, 3) == 0.475 and gap > CONSISTENCY_TOLERANCE_LOG10 == 0.35
    # the 1e18 residual: a coefficient offset, since the exponents of n_nv and d sum to 1.00,
    # plus the n_v share
    residual = plan_budget(1e18, PRESET, 3200).constraint_residual_log10
    offset = math.log10(6) + PRESET.nnv_vs_c.log10_coef + PRESET.d_vs_c.log10_coef
    share = math.log10(1 + n_v / n_nv)
    assert round(PRESET.nnv_vs_c.exponent + PRESET.d_vs_c.exponent, 2) == 1.00
    assert (round(residual, 4), round(offset, 4), round(share, 4)) == (0.2208, 0.2082, 0.0126)
    assert residual == pytest.approx(offset + share, abs=1e-12)


def test_plan_residual_is_budget_invariant_up_to_drift():
    # the three laws drift from the compute identity by a slowly moving
    # residual; adjacent decades agree to a few hundredths
    r16 = plan_budget(1e16, PRESET, 3200).constraint_residual_log10
    r18 = plan_budget(1e18, PRESET, 3200).constraint_residual_log10
    assert abs(r18 - r16) < 0.05


def test_plan_rescale_d_restores_identity():
    plan = plan_budget(1e18, PRESET, 3200, rescale_d=True)
    assert abs(plan.constraint_residual_log10) < 1e-12
    raw = plan_budget(1e18, PRESET, 3200)
    assert plan.d_tokens == pytest.approx(raw.d_tokens / 10**raw.constraint_residual_log10)
    assert plan.vocab_size == raw.vocab_size  # vocab untouched by the rescale
    assert plan.predicted_loss == raw.predicted_loss


def test_plan_json_keys_in_order():
    doc = plan_budget(1e18, PRESET, 3200).to_json_dict()
    assert list(doc) == [
        "flops_budget",
        "n_nv",
        "n_v",
        "vocab_size",
        "vocab_pow2",
        "d_tokens",
        "predicted_loss",
        "constraint_residual_log10",
    ]


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_budget(0.0, PRESET, 3200)
    with pytest.raises(ValueError):
        plan_budget(float("nan"), PRESET, 3200)
    with pytest.raises(ValueError):
        plan_budget(1e18, PRESET, 0)
    with pytest.raises(ValueError):
        plan_budget(1e18, PRESET, 3200.0)


def test_consistency_report_reference_values():
    plan = plan_budget(1e18, PRESET, 3200)
    report = consistency_report(plan, REFERENCE_PRESETS["scamo-paper"])
    gaps = report["log10_gaps"]
    assert gaps["n_nv"] == pytest.approx(0.2629, abs=1e-4)
    assert gaps["vocab_size"] == pytest.approx(-0.1116, abs=1e-4)
    assert gaps["d_tokens"] == pytest.approx(0.19, abs=1e-12)
    assert report["tolerance_log10"] == CONSISTENCY_TOLERANCE_LOG10 == 0.35
    assert report["within_tolerance"] == {"n_nv": True, "vocab_size": True, "d_tokens": True}
    assert report["agrees"] is True
    assert report["reference"]["vocab_size"] == 65536
    # a tenth of the budget keeps n_nv and d_tokens within 0.35 but not vocab_size
    report = consistency_report(plan_budget(1e17, PRESET, 3200), REFERENCE_PRESETS["scamo-paper"])
    assert report["within_tolerance"] == {"n_nv": True, "vocab_size": False, "d_tokens": True}
    assert report["agrees"] is False


def test_reference_selection_validation():
    with pytest.raises(ValueError):
        ReferenceSelection(n_nv=0.0, vocab_size=65536, d_tokens=1e7)
    with pytest.raises(ValueError):
        ReferenceSelection(n_nv=3e9, vocab_size=0, d_tokens=1e7)
    with pytest.raises(ValueError):
        ReferenceSelection(n_nv=3e9, vocab_size=65536, d_tokens=float("inf"))


def test_vocab_for_model_3b():
    out = vocab_for_model(3e9, PRESET.nv_vs_nnv, 3200)
    assert out.n_v == pytest.approx(1.9903840402859727e8)
    assert out.vocab_size == 62200
    assert out.vocab_pow2 == 65536


def test_vocab_for_model_validation():
    with pytest.raises(ValueError):
        vocab_for_model(3e9, PRESET.nv_vs_nnv, -1)
    with pytest.raises(ValueError, match="^n_nv must be positive and finite, got -3000000000.0$"):
        vocab_for_model(-3e9, PRESET.nv_vs_nnv, 3200)


def test_vocab_past_float_range_is_rejected():
    huge = PowerLawFit(log10_coef=400.0, exponent=0.75)
    with pytest.raises(ValueError, match="^n_v must be non-negative and finite, got inf$"):
        plan_budget(1e18, dataclasses.replace(PRESET, nv_vs_c=huge), 3200)
    with pytest.raises(ValueError, match="^n_v must be non-negative and finite, got inf$"):
        vocab_for_model(3e9, huge, 3200)
