"""The package root re-exports every submodule's public names."""

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
