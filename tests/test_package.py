"""Package-wide contracts: exported names, a numpy-only import, one integer and one real rule."""

import re
import subprocess
import sys

import numpy as np
import pytest

import scamo_lab

EXPORTS = {
    # core
    "MODEL_SHAPE_PRESETS", "RUN_FIELDS", "RunRecord", "RunLogError", "load_runs",
    "CodeUsageHistogram", "CodebookMetrics", "codebook_metrics",
    # flops
    "ModelConfig", "FlopsBreakdown", "flops_per_token_exact", "params_non_embedding",
    "params_vocab", "flops_approx",
    # fsq
    "LEVEL_PRESETS", "FsqLevels", "SteForward", "codebook_size", "fsq_decode_index",
    "fsq_dequantize", "fsq_encode_index", "fsq_quantize", "fsq_ste_forward",
    "latent_for_code",
    # planner
    "CONSISTENCY_TOLERANCE_LOG10", "FITS_PRESETS", "REFERENCE_PRESETS", "ReferenceSelection",
    "BudgetPlan", "VocabForModel", "flops_for_loss", "nearest_power_of_two", "plan_budget",
    "consistency_report", "vocab_for_model", "scale_faster_report",
    # scaling
    "PowerLawFit", "LogLawFit", "ScalingFits", "FrontierPoint", "pareto_frontier",
    "fit_power_law", "fit_log_law", "fit_all",
    # seqmodel
    "PrefixMask", "TokenProbRecord", "build_prefix_mask", "ce_loss", "normalized_loss",
    "unigram_baseline",
    # synth
    "CGridSpec", "SynthSpec", "config_for_params", "synth_runs", "synth_latents",
    # vq
    "VqAssignment", "VqCodebook", "VqResetResult", "VqTrainParams", "commitment_loss",
    "vq_assign", "vq_ema_update", "vq_quantize", "vq_reset",
}


def test_exported_names_are_pinned_and_resolve():
    assert len(scamo_lab.__all__) == len(set(scamo_lab.__all__))
    assert set(scamo_lab.__all__) == EXPORTS
    for name in scamo_lab.__all__:
        assert getattr(scamo_lab, name) is not None


def test_import_leaves_scipy_out():
    code = "import sys, scamo_lab; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


SHAPE = dict(n_layers=2, n_heads=2, d_model=8, n_ctx=16)
PAPER_FITS = scamo_lab.FITS_PRESETS["scamo-paper"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: scamo_lab.ModelConfig(**{**SHAPE, "n_vocab": 32, "ff_ratio": True}),
        lambda: scamo_lab.RunRecord("r", **SHAPE, vocab_size=32, tokens_trained=True,
                                    flops=None, normalized_loss=0.0),
        lambda: scamo_lab.FsqLevels((8, True)),
        lambda: scamo_lab.ReferenceSelection(n_nv=3e9, vocab_size=True, d_tokens=1e7),
        lambda: scamo_lab.nearest_power_of_two(True),
        lambda: scamo_lab.plan_budget(1e18, PAPER_FITS, True),
        lambda: scamo_lab.vocab_for_model(3e9, PAPER_FITS.nv_vs_nnv, True),
        lambda: scamo_lab.build_prefix_mask(4, True),
        lambda: scamo_lab.CGridSpec(14.0, 15.0, True),
        lambda: scamo_lab.SynthSpec(PAPER_FITS, scamo_lab.CGridSpec(14.0, 15.0, 2),
                                    runs_per_budget=True),
        lambda: scamo_lab.SynthSpec(PAPER_FITS, scamo_lab.CGridSpec(14.0, 15.0, 2), seed=True),
        lambda: scamo_lab.synth_latents("gaussian_mixture", True, 2),
        lambda: scamo_lab.synth_latents("gaussian_mixture", 10, True),
        lambda: scamo_lab.synth_latents("gaussian_mixture", 10, 2, n_components=True),
        lambda: scamo_lab.VqTrainParams(rng_seed=True),
        lambda: scamo_lab.params_vocab(True, 8),
        lambda: scamo_lab.params_vocab(8, True),
    ],
    ids=["ff_ratio", "tokens_trained", "level", "vocab_size", "nearest_power_of_two",
         "plan_budget", "vocab_for_model", "t_motion", "n_points", "runs_per_budget", "seed",
         "n", "dim", "n_components", "rng_seed", "params_vocab_size", "params_vocab_d_model"],
)
def test_true_is_not_an_integer(build):
    with pytest.raises(ValueError, match="integer.*, got True$"):
        build()


PAPER_PLAN = scamo_lab.plan_budget(1e18, PAPER_FITS, 3200)
GRID = scamo_lab.CGridSpec(14.0, 15.0, 2)


def a_run(flops=1e15, loss=0.0):
    return scamo_lab.RunRecord("r", **SHAPE, vocab_size=32, tokens_trained=10, flops=flops,
                               normalized_loss=loss)


# Every public real-valued argument: (id, name in the error, kind, call with a value).
REALS = [
    ("flops_approx.n_nv", "n_nv", "positive", lambda v: scamo_lab.flops_approx(v, 1.0, 1.0)),
    ("flops_approx.n_v", "n_v", "non-negative", lambda v: scamo_lab.flops_approx(1.0, v, 1.0)),
    ("flops_approx.d_tokens", "d_tokens", "positive",
     lambda v: scamo_lab.flops_approx(1.0, 1.0, v)),
    ("RunRecord.flops", "flops", "positive", lambda v: a_run(flops=v)),
    ("RunRecord.normalized_loss", "normalized_loss", "finite", lambda v: a_run(loss=v)),
    ("PowerLawFit.log10_coef", "log10_coef", "finite", lambda v: scamo_lab.PowerLawFit(v, 1.0)),
    ("PowerLawFit.exponent", "exponent", "finite", lambda v: scamo_lab.PowerLawFit(0.0, v)),
    ("PowerLawFit.r2", "r2", "finite", lambda v: scamo_lab.PowerLawFit(0.0, 1.0, v)),
    ("PowerLawFit.evaluate", "x", "positive",
     lambda v: scamo_lab.PowerLawFit(0.0, 1.0).evaluate(v)),
    ("LogLawFit.slope", "slope", "finite", lambda v: scamo_lab.LogLawFit(v, 1.0)),
    ("LogLawFit.intercept", "intercept", "finite", lambda v: scamo_lab.LogLawFit(1.0, v)),
    ("LogLawFit.r2", "r2", "finite", lambda v: scamo_lab.LogLawFit(1.0, 1.0, v)),
    ("LogLawFit.evaluate", "c", "positive", lambda v: scamo_lab.LogLawFit(1.0, 1.0).evaluate(v)),
    ("pareto_frontier", "bin_width_log10", "positive",
     lambda v: scamo_lab.pareto_frontier([a_run()], bin_width_log10=v)),
    ("ReferenceSelection.n_nv", "n_nv", "positive",
     lambda v: scamo_lab.ReferenceSelection(n_nv=v, vocab_size=8, d_tokens=1e7)),
    ("ReferenceSelection.d_tokens", "d_tokens", "positive",
     lambda v: scamo_lab.ReferenceSelection(n_nv=3e9, vocab_size=8, d_tokens=v)),
    ("flops_for_loss", "target_loss", "finite",
     lambda v: scamo_lab.flops_for_loss(v, PAPER_FITS.loss_vs_c)),
    ("plan_budget", "c_flops", "positive", lambda v: scamo_lab.plan_budget(v, PAPER_FITS, 8)),
    ("consistency_report", "tolerance_log10", "positive",
     lambda v: scamo_lab.consistency_report(
         PAPER_PLAN, scamo_lab.REFERENCE_PRESETS["scamo-paper"], tolerance_log10=v)),
    ("unigram_baseline", "smoothing_lambda", "positive",
     lambda v: scamo_lab.unigram_baseline([1, 2], v)),
    ("CGridSpec.min_log10", "min_log10", "finite", lambda v: scamo_lab.CGridSpec(v, 15.0, 2)),
    ("CGridSpec.max_log10", "max_log10", "finite", lambda v: scamo_lab.CGridSpec(14.0, v, 2)),
    ("SynthSpec", "noise_sigma_log10", "non-negative",
     lambda v: scamo_lab.SynthSpec(PAPER_FITS, GRID, noise_sigma_log10=v)),
    ("config_for_params", "n_nv_target", "positive", lambda v: scamo_lab.config_for_params(v)),
    ("VqTrainParams.alpha", "alpha", "non-negative", lambda v: scamo_lab.VqTrainParams(alpha=v)),
    ("VqTrainParams.reset_threshold", "reset_threshold", "non-negative",
     lambda v: scamo_lab.VqTrainParams(reset_threshold=v)),
    ("commitment_loss", "alpha", "non-negative",
     lambda v: scamo_lab.commitment_loss([0.0], [0.0], v)),
]
# nan breaks every kind; the range kinds also get a numpy scalar just outside the range,
# which the error prints as a plain float
OUT_OF_RANGE = {"finite": [], "positive": [np.float64(0.0)], "non-negative": [np.float64(-1.0)]}


@pytest.mark.parametrize(
    "name, kind, build, value",
    [
        pytest.param(name, kind, build, value, id=f"{entry}={value}")
        for entry, name, kind, build in REALS
        for value in [float("nan"), *OUT_OF_RANGE[kind]]
    ],
)
def test_one_rule_for_reals(name, kind, build, value):
    rule = "finite" if kind == "finite" else f"{kind} and finite"
    got = re.escape(repr(float(value)))
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {got}$"):
        build(value)
