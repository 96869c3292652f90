"""Synthetic latents and synthetic scaling sweeps."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamo_lab import (
    FITS_PRESETS,
    LEVEL_PRESETS,
    CGridSpec,
    FsqLevels,
    LogLawFit,
    PowerLawFit,
    ScalingFits,
    SynthSpec,
    fit_all,
    fsq_quantize,
    load_runs,
    params_non_embedding,
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
    with pytest.raises(ValueError, match=r"^max_log10 - min_log10 must be finite, got inf$"):
        CGridSpec(-1e308, 1e308, 2)  # each end finite, the span past float range


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(runs_per_budget=0)
    with pytest.raises(ValueError):
        make_spec(noise_sigma_log10=-0.1)
    with pytest.raises(ValueError):
        make_spec(seed=1.5)


def width_1_runs(nnv_law, grid_log10):
    """One noiseless run at one budget, with n_nv set by nnv_law alone; n_v and d_tokens are
    1e3 and 1e6 at every budget, so neither fails its own rule (at c = 10 the preset's n_v is
    below 1)."""
    laws = dataclasses.replace(LAWS, nnv_vs_c=nnv_law, nv_vs_c=PowerLawFit(3.0, 0.0),
                               d_vs_c=PowerLawFit(6.0, 0.0))
    return synth_runs(make_spec(laws=laws, c_grid_log10=CGridSpec(grid_log10, grid_log10, 1),
                                runs_per_budget=1))


def test_synth_runs_width_1_rule_roundtrip():
    for target in (12, 24, 1e6, 3.7e8, 2.9e9):
        (run,) = width_1_runs(PowerLawFit(math.log10(target), 0.0), 15.0)
        assert (run.n_heads, run.d_model, run.n_ctx) == (1, 1, 1024)
        assert params_non_embedding(run.config()) == 12 * run.n_layers
        assert abs(12 * run.n_layers - target) <= 6


def test_synth_runs_width_1_rule_nearest():
    # at c = 10, n_nv = 10 * k exactly
    for k, n_layers in [(1.0, 1), (1.2, 1), (3.0, 3), (10.0, 8)]:  # 10 is 20% off; 30 rounds up
        assert width_1_runs(PowerLawFit(math.log10(k), 1.0), 1.0)[0].n_layers == n_layers


def test_synth_runs_width_1_rule_errors():
    for nnv_law, message in [
        (PowerLawFit(-400.0, 0.57), "n_nv_target must be positive and finite, got 0.0"),
        (PowerLawFit(-7.5, 0.57),
         "target 3.0199517204020117 is below the smallest valid config (12 params)"),
        (PowerLawFit(math.log10(17.0), 0.0), "no config within 20% of target 17.0"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            width_1_runs(nnv_law, 14.0)


@pytest.mark.parametrize("law", ["nv_vs_c", "d_vs_c"])
def test_synth_runs_count_rule(law):
    """n_v and d_tokens take n_nv's rule: the nearest positive integer, within 20%."""
    name = {"nv_vs_c": "n_v", "d_vs_c": "d_tokens"}[law]
    column = {"nv_vs_c": "vocab_size", "d_vs_c": "tokens_trained"}[law]

    def runs(coef):  # the law's value is 10**coef at both budgets
        laws = dataclasses.replace(LAWS, **{law: PowerLawFit(coef, 0.0)})
        return synth_runs(make_spec(laws=laws, c_grid_log10=CGridSpec(15.0, 16.0, 2),
                                    runs_per_budget=1))

    for value, count in [(0.9, 1), (1.2, 1), (1.7, 2), (2.4, 2), (2.6, 3), (1e6, 1000000)]:
        assert getattr(runs(math.log10(value)), column).tolist() == [count, count]
    for coef in [-400.0, -300.0, math.log10(0.4), math.log10(0.6), math.log10(1.3),
                 math.log10(1.6)]:
        message = (f"{name} {10.0**coef} at budget 10**15.0 is more than 20% from every "
                   "positive integer")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            runs(coef)


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


@pytest.mark.parametrize("sigma", [0.0, 0.05, 3.0])
def test_bare_draws_scaled_by_numpys_formulas_are_its_normal_and_uniform(sigma):
    # synth_runs draws standard_normal and random and scales them as arrays; that is exact
    # only while numpy's normal is loc + scale * z and its uniform low + (high - low) * u
    for seed in range(10):
        bare, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        z, u = np.empty((10**4, 3)), np.empty(10**4)
        want_z, want_u = np.empty((10**4, 3)), np.empty(10**4)
        for j in range(10**4):
            z[j], want_z[j] = bare.standard_normal(3), twin.normal(0.0, sigma, 3)
            if j:
                u[j], want_u[j] = bare.random(), twin.uniform(0.01, 0.5)
            else:
                u[j], want_u[j] = bare.standard_normal(), twin.normal(0.0, sigma)
        got_u = np.concatenate([0.0 + sigma * u[:1], 0.01 + (0.5 - 0.01) * u[1:]])
        assert (0.0 + sigma * z).view(np.uint64).tolist() == want_z.view(np.uint64).tolist()
        assert got_u.view(np.uint64).tolist() == want_u.view(np.uint64).tolist()


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


@st.composite
def noiseless_sweeps(draw):
    """A sweep at sigma 0: 3 to 12 budgets from 10**[12, 16] over 2 to 6 decades, so budgets are
    at least 2/11 of a decade apart, and each *_vs_c law drawn by its exponent in [0.2, 1] and its
    log10 value in [0, 6] at the smallest budget. synth reads no other law but the loss law."""
    lo, span, n = draw(st.floats(12.0, 16.0)), draw(st.floats(2.0, 6.0)), draw(st.integers(3, 12))

    def law():
        exponent, at_lo = draw(st.floats(0.2, 1.0)), draw(st.floats(0.0, 6.0))
        return PowerLawFit(at_lo - exponent * lo, exponent)

    laws = ScalingFits(law(), law(), law(), PowerLawFit(0.0, 1.0),
                       LogLawFit(draw(st.floats(-2.0, 0.0)), draw(st.floats(0.0, 40.0))))
    return SynthSpec(laws, CGridSpec(lo, lo + span, n), 3, 0.0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(noiseless_sweeps())
def test_a_noiseless_sweep_is_refused_or_recovered(spec):
    """Rounding a law value v to its count m moves log10 v by at most eps(m) = log10(2m / (2m - 1)),
    so the OLS exponent over the frontier's x = log10(flops) moves by at most
    eps(m) * sum|x - mean x| / sum (x - mean x)**2, with m the law's smallest count."""
    try:
        runs = synth_runs(spec)
    except ValueError:
        return  # an overflowing count, or a law value 20% off every count
    frontier = pareto_frontier(runs, bin_width_log10=0.1)  # one bucket per budget
    assert len(frontier) == spec.c_grid_log10.n_points
    fits = fit_all(frontier)
    x = np.log10([p.run.flops for p in frontier])
    gain = np.abs(x - x.mean()).sum() / ((x - x.mean()) ** 2).sum()
    for law, count in [("nv_vs_c", "vocab_size"), ("nnv_vs_c", "n_layers"),
                       ("d_vs_c", "tokens_trained")]:
        m = min(getattr(p.run, count) for p in frontier)
        error = getattr(fits, law).exponent - getattr(spec.laws, law).exponent
        assert abs(error) <= gain * math.log10(2 * m / (2 * m - 1)) + 1e-9, law
    assert fits.loss_vs_c.slope == pytest.approx(spec.laws.loss_vs_c.slope, abs=1e-9)


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


@pytest.mark.parametrize("seed", [True, None, 1.0, -1])
def test_synth_latents_seed_must_be_an_integer(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
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


@pytest.mark.parametrize("make", [list, tuple, FsqLevels])
def test_synth_latents_takes_levels_in_any_form(make):
    z = synth_latents("uniform_code", 1000, 4, levels=make((8, 5, 5, 5)), seed=3)
    want = synth_latents("uniform_code", 1000, 4, levels=LEVEL_PRESETS["2^10"], seed=3)
    assert z.dtype == want.dtype and z.tobytes() == want.tobytes()
    with pytest.raises(ValueError) as exc:
        synth_latents("uniform_code", 10, 2, levels=make((8, 1)), seed=3)
    assert str(exc.value) == "every level count must be an integer in [2, 4503599627370496], got 1"


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
