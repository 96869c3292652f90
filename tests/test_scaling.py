"""Frontier extraction and law fitting."""

import math

import numpy as np
import pytest

from scamo_lab import (
    LogLawFit,
    PowerLawFit,
    RunRecord,
    ScalingFits,
    fit_all,
    fit_log_law,
    fit_power_law,
    pareto_frontier,
)


def run_at(run_id, flops, loss, d_model=8, tokens=1000):
    return RunRecord(
        run_id=run_id,
        n_layers=1,
        n_heads=1,
        d_model=d_model,
        n_ctx=16,
        vocab_size=32,
        tokens_trained=tokens,
        flops=flops,
        normalized_loss=loss,
    )


def test_frontier_picks_min_loss_per_bucket():
    runs = [
        run_at("a", 1.0e15, 0.5),
        run_at("b", 1.2e15, 0.3),
        run_at("c", 9.0e15, 0.9),
        run_at("d", 8.0e15, 0.2),
    ]
    frontier = pareto_frontier(runs, bin_width_log10=0.25)
    assert [p.run.run_id for p in frontier] == ["b", "d"]
    assert [p.loss for p in frontier] == [0.3, 0.2]
    # flops 1e15 has bucket floor(15/.25)*.25 = 15.0; 8e15 floor(15.903/.25)=63
    assert frontier[0].flops_bucket_log10 == 15.0
    assert frontier[1].flops_bucket_log10 == pytest.approx(15.75)


def test_frontier_bucket_edges():
    runs = [run_at("lo", 10**15.24, 0.1), run_at("hi", 10**15.26, 0.2)]
    frontier = pareto_frontier(runs, bin_width_log10=0.25)
    assert len(frontier) == 2  # straddles the 15.25 edge
    wide = pareto_frontier(runs, bin_width_log10=1.0)
    assert len(wide) == 1 and wide[0].run.run_id == "lo"


@pytest.mark.parametrize("bin_width", [0.1, 0.25, 0.3])
def test_frontier_run_on_an_edge_opens_its_bucket(bin_width):
    # log10(10**(k*w)) / w falls a ULP short of k for some k (k = 3, 43, ... at w 0.1)
    ks = range(1, 400)
    runs = [run_at(f"k{k}", 10.0 ** (k * bin_width), 0.0) for k in ks]
    frontier = pareto_frontier(runs, bin_width_log10=bin_width)
    assert [p.run.run_id for p in frontier] == [f"k{k}" for k in ks]
    assert [p.flops_bucket_log10 for p in frontier] == [k * bin_width for k in ks]


def test_frontier_tie_breaks():
    small = run_at("z-small", 1e15, 0.5, d_model=4)
    large = run_at("a-large", 1e15, 0.5, d_model=8)
    assert pareto_frontier([large, small])[0].run.run_id == "z-small"  # fewer params wins
    first = run_at("aaa", 1e15, 0.5)
    second = run_at("bbb", 1e15, 0.5)
    assert pareto_frontier([second, first])[0].run.run_id == "aaa"  # then run_id


def test_frontier_point_quantities():
    run = run_at("a", 3e15, 0.1, d_model=8, tokens=777)
    p = pareto_frontier([run])[0]
    assert p.n_nv == 12 * 8**2
    assert p.n_v == 32 * 8
    assert p.d_tokens == 777.0
    assert p.loss == 0.1


def test_frontier_sorted_by_compute():
    rng = np.random.default_rng(5)
    runs = [
        run_at(f"r{i}", float(10 ** rng.uniform(12, 18)), float(rng.uniform(0, 1)))
        for i in range(100)
    ]
    frontier = pareto_frontier(runs)
    buckets = [p.flops_bucket_log10 for p in frontier]
    assert buckets == sorted(buckets)


def test_frontier_validation():
    with pytest.raises(ValueError, match="no runs"):
        pareto_frontier([])
    with pytest.raises(ValueError, match="bin_width"):
        pareto_frontier([run_at("a", 1e15, 0.1)], bin_width_log10=0.0)


def test_fit_power_law_exact():
    xs = np.logspace(10, 20, 8)
    ys = 10**-5.29 * xs**0.75
    fit = fit_power_law(xs, ys)
    assert fit.exponent == pytest.approx(0.75, abs=1e-12)
    assert fit.log10_coef == pytest.approx(-5.29, abs=1e-10)
    assert fit.r2 == 1.0


def test_fit_log_law_exact():
    cs = np.logspace(14, 18, 6)
    losses = -1.062 * np.log10(cs) + 13.839
    fit = fit_log_law(cs, losses)
    assert fit.slope == pytest.approx(-1.062, abs=1e-12)
    assert fit.intercept == pytest.approx(13.839, abs=1e-10)
    assert fit.r2 == 1.0


def test_fit_log_law_allows_negative_losses():
    fit = fit_log_law([1e16, 1e18], [-3.0, -5.0])
    assert fit.slope == pytest.approx(-1.0)


def test_fit_constant_y():
    fit = fit_log_law([1e14, 1e15, 1e16], [2.5, 2.5, 2.5])
    assert fit.slope == 0.0 and fit.intercept == 2.5 and fit.r2 == 1.0


def test_fit_noisy_r2_below_one():
    rng = np.random.default_rng(6)
    xs = np.logspace(10, 20, 50)
    ys = 10**2.0 * xs**0.5 * np.exp(rng.normal(0, 0.05, size=50))
    fit = fit_power_law(xs, ys)
    assert 0.9 < fit.r2 < 1.0
    assert fit.exponent == pytest.approx(0.5, abs=0.05)


def test_fit_validation():
    with pytest.raises(ValueError, match="at least 2"):
        fit_power_law([1.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        fit_power_law([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="^ys must be positive and finite$"):
        fit_power_law([1.0, 2.0], [1.0, -2.0])
    with pytest.raises(ValueError, match="shape"):
        fit_power_law([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="finite"):
        fit_log_law([1.0, 2.0], [1.0, float("nan")])
    with pytest.raises(ValueError, match="not all be equal"):
        fit_log_law([10.0, 10.0], [1.0, 2.0])


def test_fit_all_uses_run_flops():
    runs = []
    for i, x in enumerate(np.linspace(14, 18, 5)):
        c = 10.0**x
        tokens = int(10 ** (-0.05) * c**0.43)
        runs.append(run_at(f"r{i}", c, -1.062 * x + 13.839, tokens=tokens))
    fits = fit_all(pareto_frontier(runs))
    assert fits.loss_vs_c.slope == pytest.approx(-1.062, abs=1e-12)
    assert fits.d_vs_c.exponent == pytest.approx(0.43, abs=1e-4)  # integer token rounding
    assert fits.nnv_vs_c.exponent == pytest.approx(0.0, abs=1e-12)  # constant shape
    assert fits.nv_vs_c.r2 == 1.0


def test_fit_all_needs_two_points():
    frontier = pareto_frontier([run_at("a", 1e15, 0.1)])
    with pytest.raises(ValueError, match="at least 2"):
        fit_all(frontier)


def test_law_evaluate():
    power = PowerLawFit(log10_coef=-5.29, exponent=0.75)
    assert power.evaluate(1e18) == pytest.approx(10**-5.29 * 1e18**0.75)
    log = LogLawFit(slope=-1.062, intercept=13.839)
    assert log.evaluate(1e18) == pytest.approx(-5.277)
    with pytest.raises(ValueError):
        power.evaluate(-1.0)
    with pytest.raises(ValueError):
        log.evaluate(0.0)


def test_power_law_past_float_range_is_inf():
    assert PowerLawFit(log10_coef=400.0, exponent=1.0).evaluate(1.0) == math.inf
    assert PowerLawFit(log10_coef=0.0, exponent=2.0).evaluate(1e300) == math.inf


def test_law_validation():
    with pytest.raises(ValueError):
        PowerLawFit(log10_coef=float("nan"), exponent=0.5)
    with pytest.raises(ValueError):
        LogLawFit(slope=0.0, intercept=float("inf"))
    PowerLawFit(log10_coef=0.0, exponent=0.5, r2=None)  # r2 optional


def make_fits():
    return ScalingFits(
        nv_vs_c=PowerLawFit(-5.29, 0.75, None),
        nnv_vs_c=PowerLawFit(-0.52, 0.57, 0.99),
        d_vs_c=PowerLawFit(-0.05, 0.43, None),
        nv_vs_nnv=PowerLawFit(-5.604, 1.467, 0.95),
        loss_vs_c=LogLawFit(-1.062, 13.839, None),
    )


def test_fits_json_roundtrip():
    fits = make_fits()
    doc = fits.to_json_dict()
    assert doc["nv_vs_c"] == {"log10_coef": -5.29, "exponent": 0.75, "r2": None}
    assert doc["loss_vs_c"] == {"slope": -1.062, "intercept": 13.839, "r2": None}
    assert ScalingFits.from_json_dict(doc) == fits


def test_fits_json_strict_keys():
    doc = make_fits().to_json_dict()
    with pytest.raises(ValueError, match="missing"):
        ScalingFits.from_json_dict({k: v for k, v in doc.items() if k != "d_vs_c"})
    broken = dict(doc)
    broken["nv_vs_c"] = {"log10_coef": 1.0, "exponent": 2.0}
    with pytest.raises(ValueError, match="nv_vs_c"):
        ScalingFits.from_json_dict(broken)
    broken = dict(doc)
    broken["loss_vs_c"] = {"slope": 1.0, "intercept": 2.0, "r2": None, "extra": 3}
    with pytest.raises(ValueError, match="loss_vs_c"):
        ScalingFits.from_json_dict(broken)
    with pytest.raises(ValueError, match="object"):
        ScalingFits.from_json_dict([1, 2])


def test_fits_json_refuses_unexpected_keys_before_missing_ones():
    doc = make_fits().to_json_dict()
    with pytest.raises(ValueError, match=r"^fits document has unexpected key\(s\): junk, zz$"):
        ScalingFits.from_json_dict({**doc, "zz": 2, "junk": 1})
    with pytest.raises(ValueError, match=r"^fits document has unexpected key\(s\): 1, junk$"):
        ScalingFits.from_json_dict({**doc, 1: 2, "junk": 1})  # a Python dict's key is named too
    del doc["d_vs_c"]
    with pytest.raises(ValueError, match=r"^fits document has unexpected key\(s\): junk$"):
        ScalingFits.from_json_dict({**doc, "junk": 1})


@pytest.mark.parametrize("bad", [[1], "1", True, None])
def test_fits_json_rejects_non_number_coefficients(bad):
    doc = make_fits().to_json_dict()
    doc["nv_vs_nnv"] = {**doc["nv_vs_nnv"], "exponent": bad}
    with pytest.raises(ValueError, match=r"^nv_vs_nnv\.exponent must be a number"):
        ScalingFits.from_json_dict(doc)
