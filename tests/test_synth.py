"""Synthetic latents and synthetic scaling sweeps."""

import json

import numpy as np
import pytest

from scamo_lab import (
    FITS_PRESETS,
    LEVEL_PRESETS,
    CGridSpec,
    SynthSpec,
    config_for_params,
    fit_all,
    fsq_quantize,
    load_runs,
    pareto_frontier,
    synth_latents,
    synth_runs,
)

LAWS = FITS_PRESETS["scamo-paper"]


def make_spec(**overrides):
    base = dict(
        laws=LAWS,
        c_grid_log10=CGridSpec(15.0, 17.0, 5),
        runs_per_budget=3,
        noise_sigma_log10=0.0,
        seed=42,
    )
    return SynthSpec(**{**base, **overrides})


def test_grid_values():
    assert np.allclose(CGridSpec(14.0, 16.0, 5).values_log10(), [14.0, 14.5, 15.0, 15.5, 16.0])
    assert CGridSpec(14.0, 14.0, 1).values_log10().tolist() == [14.0]


def test_grid_validation():
    with pytest.raises(ValueError):
        CGridSpec(16.0, 14.0, 3)
    with pytest.raises(ValueError):
        CGridSpec(14.0, 16.0, 0)
    with pytest.raises(ValueError):
        CGridSpec(14.0, 14.0, 2)  # several points need an actual span
    with pytest.raises(ValueError):
        CGridSpec(float("nan"), 16.0, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(runs_per_budget=0)
    with pytest.raises(ValueError):
        make_spec(noise_sigma_log10=-0.1)
    with pytest.raises(ValueError):
        make_spec(seed=1.5)


def test_config_for_params_roundtrip():
    for target in (12, 24, 1e6, 3.7e8, 2.9e9):
        n_layers, n_heads, d_model = config_for_params(target)
        achieved = 12 * n_layers * d_model**2
        assert n_heads == 1 and d_model == 1
        assert abs(achieved - target) <= 6 or abs(achieved - target) <= 0.2 * target


def test_config_for_params_nearest():
    assert config_for_params(12) == (1, 1, 1)
    assert config_for_params(13) == (1, 1, 1)
    assert config_for_params(30) == (3, 1, 1)  # midpoint rounds up
    assert config_for_params(120) == (10, 1, 1)


def test_config_for_params_errors():
    with pytest.raises(ValueError, match="below the smallest"):
        config_for_params(4.0)
    with pytest.raises(ValueError, match="within"):
        config_for_params(17.0)  # nearest multiple of 12 is off by > 20%
    with pytest.raises(ValueError):
        config_for_params(-5.0)


def test_synth_runs_shape_and_ids():
    runs = synth_runs(make_spec())
    assert len(runs) == 15
    assert runs[0].run_id == "synth-000-00"
    assert runs[14].run_id == "synth-004-02"
    assert all(r.n_ctx == 1024 for r in runs)


def test_synth_runs_flops_equal_budget():
    runs = synth_runs(make_spec(noise_sigma_log10=0.05))
    grid = CGridSpec(15.0, 17.0, 5).values_log10()
    for i, x in enumerate(grid):
        for j in range(3):
            assert runs[3 * i + j].flops == 10.0**x


def test_noiseless_runs_sit_on_the_laws():
    runs = synth_runs(make_spec())
    for i, x in enumerate(CGridSpec(15.0, 17.0, 5).values_log10()):
        law_point = runs[3 * i]
        c = 10.0**x
        assert law_point.normalized_loss == LAWS.loss_vs_c.slope * x + LAWS.loss_vs_c.intercept
        n_nv_target = LAWS.nnv_vs_c.evaluate(c)
        assert 12 * law_point.n_layers == pytest.approx(n_nv_target, abs=6.0)
        assert law_point.tokens_trained == pytest.approx(LAWS.d_vs_c.evaluate(c), abs=0.5)
        assert law_point.vocab_size == pytest.approx(LAWS.nv_vs_c.evaluate(c), abs=0.5)
        for j in (1, 2):
            sibling = runs[3 * i + j]
            assert sibling.normalized_loss >= law_point.normalized_loss + 0.01


def test_frontier_of_noiseless_sweep_is_the_law_points():
    runs = synth_runs(make_spec())
    frontier = pareto_frontier(runs, bin_width_log10=0.5)
    assert [p.run.run_id for p in frontier] == [f"synth-{i:03d}-00" for i in range(5)]


def test_synth_runs_deterministic():
    a = synth_runs(make_spec(noise_sigma_log10=0.05))
    b = synth_runs(make_spec(noise_sigma_log10=0.05))
    assert a == b
    c = synth_runs(make_spec(noise_sigma_log10=0.05, seed=43))
    assert a != c


def test_budget_streams_are_independent():
    # budget i is seeded with seed + i, so a sub-grid reproduces its budgets
    full = synth_runs(make_spec(noise_sigma_log10=0.05))
    tail = synth_runs(
        make_spec(
            noise_sigma_log10=0.05,
            c_grid_log10=CGridSpec(15.5, 17.0, 4),
            seed=42 + 1,
        )
    )
    assert [r.normalized_loss for r in full[3:]] == [r.normalized_loss for r in tail]


def test_synth_output_passes_strict_loader():
    runs = synth_runs(make_spec(noise_sigma_log10=0.1))
    jsonl = "\n".join(json.dumps(r.to_dict()) for r in runs)
    assert load_runs(jsonl) == runs


def test_noisy_fit_recovery_small():
    spec = make_spec(
        c_grid_log10=CGridSpec(14.0, 18.0, 20), noise_sigma_log10=0.03, seed=42
    )
    fits = fit_all(pareto_frontier(synth_runs(spec), bin_width_log10=0.2))
    assert fits.nnv_vs_c.exponent == pytest.approx(0.57, abs=0.05)
    assert fits.loss_vs_c.slope == pytest.approx(-1.062, abs=0.05)


def test_uniform_code_latents_cover_codebook():
    lv = LEVEL_PRESETS["2^4"]
    z = synth_latents("uniform_code", 20000, 2, levels=lv, seed=1)
    assert z.shape == (20000, 2)
    assert np.isfinite(z).all()
    codes = fsq_quantize(z, lv)
    counts = np.bincount((codes[:, 0] - 1) + 5 * (codes[:, 1] - 1), minlength=15)
    assert (counts > 0).all()
    # each of the 15 codes expects 1333 hits; allow generous sampling noise
    assert counts.max() < 1.3 * counts.min()


def test_uniform_code_endpoint_cells_not_underweighted():
    z = synth_latents("uniform_code", 50000, 1, levels=(4,), seed=2)
    codes = fsq_quantize(z, (4,))[:, 0]
    counts = np.bincount(codes - 1, minlength=4)
    # endpoint rounding cells are half the width of interior ones; the warp
    # must still land a quarter of the samples in each
    assert counts.min() > 0.23 * 50000
    assert counts.max() < 0.27 * 50000


def test_synth_latents_deterministic():
    a = synth_latents("uniform_code", 100, 4, levels=LEVEL_PRESETS["2^10"], seed=9)
    b = synth_latents("uniform_code", 100, 4, levels=LEVEL_PRESETS["2^10"], seed=9)
    assert np.array_equal(a, b)
    c = synth_latents("gaussian_mixture", 100, 3, seed=9)
    d = synth_latents("gaussian_mixture", 100, 3, seed=9)
    assert np.array_equal(c, d)


@pytest.mark.parametrize("seed", [True, None, 1.0])
def test_synth_latents_seed_must_be_an_integer(seed):
    with pytest.raises(ValueError, match="^seed must be an integer, got "):
        synth_latents("gaussian_mixture", 10, 2, seed=seed)


def test_gaussian_mixture_single_component_clt():
    z = synth_latents("gaussian_mixture", 200000, 2, means=[[0.0, 0.0]], seed=5)
    assert np.abs(z.mean(axis=0)).max() < 0.01
    assert z.std(axis=0) == pytest.approx([1.0, 1.0], abs=0.01)


def test_gaussian_mixture_explicit_means():
    means = [[-10.0, 0.0], [10.0, 0.0]]
    z = synth_latents("gaussian_mixture", 5000, 2, means=means, seed=6)
    labels = z[:, 0] > 0
    assert 0.4 < labels.mean() < 0.6  # both components sampled
    assert z[labels, 0].mean() == pytest.approx(10.0, abs=0.2)


def test_synth_latents_validation():
    with pytest.raises(ValueError, match="needs levels"):
        synth_latents("uniform_code", 10, 4)
    with pytest.raises(ValueError, match="does not match"):
        synth_latents("uniform_code", 10, 3, levels=LEVEL_PRESETS["2^10"])
    with pytest.raises(ValueError, match="unknown latent kind"):
        synth_latents("cauchy", 10, 2)
    with pytest.raises(ValueError, match="means"):
        synth_latents("gaussian_mixture", 10, 2, means=[[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="n_components"):
        synth_latents("gaussian_mixture", 10, 2, n_components=0)
    with pytest.raises(ValueError, match="n must be"):
        synth_latents("gaussian_mixture", 0, 2)
