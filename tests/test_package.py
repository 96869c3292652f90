"""Package-wide contracts: the exported names, a numpy-only import, one integer rule."""

import subprocess
import sys

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
    "vq_ema_update", "vq_quantize", "vq_reset",
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
    ],
    ids=["ff_ratio", "tokens_trained", "level", "vocab_size", "nearest_power_of_two",
         "plan_budget", "vocab_for_model", "t_motion", "n_points", "runs_per_budget", "seed",
         "n", "dim", "n_components", "rng_seed"],
)
def test_true_is_not_an_integer(build):
    with pytest.raises(ValueError, match="integer.*, got True$"):
        build()
