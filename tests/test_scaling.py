"""Frontier extraction and law fitting."""

import contextlib
import dataclasses
import io
import math
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamo_lab import (
    FITS_PRESETS,
    CGridSpec,
    FrontierPoint,
    LogLawFit,
    PowerLawFit,
    RunRecord,
    RunTable,
    ScalingFits,
    SynthSpec,
    fit_all,
    fit_log_law,
    fit_power_law,
    load_runs,
    pareto_frontier,
    scaling,
    synth_runs,
)
from scamo_lab.cli import _run_lines, run


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


# ---------------------------------------------------------------------------
# one least-squares core over stacks of rows


@np.errstate(over="ignore", invalid="ignore")
def reference_ols(x, y):
    """_ols as it was before it took stacks: one 1-D pair, returning Python floats."""
    if x.size < 2:
        raise ValueError("need at least 2 samples to fit")
    if np.all(y == y[0]):
        return 0.0, float(y[0]), 1.0
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("x values must not all be equal")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_res == 0.0 else (0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), float(r2)


def _bits(values):
    return [float(v).hex() for v in values]


def _outcome(fit, *args):
    """fit's result, or the text of its ValueError."""
    try:
        return fit(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def ols_stacks(draw):
    """A (B, n) stack of x and y rows, B up to 64, with flat, equal-x and wide-range rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, n = draw(st.integers(1, 64)), draw(st.sampled_from([2, 3, 9, 41, 200]))
    x = rng.uniform(-5.0, 25.0, (b, n))
    y = rng.normal(0.0, 3.0, (b, n)) + rng.normal(0.7, 0.5, (b, 1)) * x
    for row in draw(st.lists(st.integers(0, b - 1), max_size=4)):
        y[row] = y[row, 0]  # a flat line, whatever its x
    for row in draw(st.lists(st.integers(0, b - 1), max_size=2)):
        x[row] = x[row, 0]  # equal x: an error unless y is flat too
    if draw(st.booleans()):
        y[rng.integers(b)] *= 1e160  # squares past float range: an r2 of nan
    return x, y


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(ols_stacks())
def test_each_row_of_a_batched_ols_is_the_one_row_call(stack):
    x, y = stack
    rows = [_outcome(reference_ols, x[i], y[i]) for i in range(len(x))]
    for i, row in enumerate(rows):
        one = _outcome(scaling._ols, x[i], y[i])
        assert one == row if isinstance(row, str) else _bits(one) == _bits(row)
    errors = [row for row in rows if isinstance(row, str)]
    shapes = [x.shape] + [(2, len(x) // 2, x.shape[1])] * (len(x) % 2 == 0)  # one or two axes
    for shape in shapes:
        got = _outcome(scaling._ols, x.reshape(shape), y.reshape(shape))
        if errors:
            assert got == errors[0]
            continue
        slope, intercept, r2 = (v.reshape(-1) for v in got)
        assert [_bits(row) for row in rows] == [_bits(v) for v in zip(slope, intercept, r2)]


SWEEP_FRONTIER = pareto_frontier(synth_runs(SynthSpec(  # 41 points
    FITS_PRESETS["scamo-paper"], CGridSpec(14.1, 18.1, 100), 20, 0.05, 1)), bin_width_log10=0.1)


def _law_stacks(cols):
    """Each law's x and y rows from (5, ..., n) columns flops, n_v, n_nv, d_tokens and loss, the
    way fit_all stacks them: contiguous along n, in law order."""
    logs = np.log10(cols[:4])
    return logs[[0, 0, 0, 2, 0]], np.concatenate([logs[[1, 2, 3, 1]], cols[4:]])


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_a_batched_bootstrap_row_is_fit_all_on_its_resample(b, seed):
    frontier = SWEEP_FRONTIER
    cols = np.array([(p.run.flops, p.n_v, p.n_nv, p.d_tokens, p.loss) for p in frontier]).T
    idx = np.random.default_rng(seed).integers(0, len(frontier), (b, len(frontier)))
    slope, intercept, r2 = scaling._ols(*_law_stacks(np.ascontiguousarray(cols[:, idx])))
    for i in range(b):
        fits = fit_all([frontier[j] for j in idx[i]])
        for law, (m, c, r) in enumerate(zip(slope[:, i], intercept[:, i], r2[:, i])):
            got = dataclasses.astuple(getattr(fits, dataclasses.fields(fits)[law].name))
            want = (c, m, r) if law < 4 else (m, c, r)  # log10_coef, exponent; slope, intercept
            assert _bits(got) == _bits(want)


def test_fit_all_is_one_least_squares_call(monkeypatch):
    calls, real = [], scaling._ols
    monkeypatch.setattr(scaling, "_ols", lambda x, y: (calls.append(x.shape), real(x, y))[1])
    fit_all(SWEEP_FRONTIER)
    assert calls == [(5, 41)]


def _points(flops, n_v, n_nv, d_tokens, loss):
    """Frontier points from columns; only run.flops is read from a point's run."""
    return [FrontierPoint(0.0, types.SimpleNamespace(flops=f), b, a, d, l)
            for f, a, b, d, l in zip(flops, n_v, n_nv, d_tokens, loss)]


GOOD, SAME = [1e15, 1e16, 1e17], [5.0, 5.0, 5.0]


@pytest.mark.parametrize("columns, message", [
    # laws in order nv_vs_c, nnv_vs_c, d_vs_c, nv_vs_nnv, loss_vs_c; each checks x, y, then fits
    ((GOOD, GOOD, GOOD, GOOD, GOOD), None),
    ((SAME, GOOD, GOOD, GOOD, SAME), "x values must not all be equal"),
    ((SAME, SAME, SAME, SAME, SAME), None),  # five flat lines, whatever their x
    ((SAME, GOOD, [-1.0, 2.0, 3.0], GOOD, GOOD), "x values must not all be equal"),  # law 1 first
    ((GOOD, GOOD, [-1.0, 2.0, 3.0], GOOD, GOOD), "ys must be positive and finite"),
    ((GOOD, GOOD, SAME, [0.0, 1.0, 2.0], GOOD), "ys must be positive and finite"),
    ((GOOD, GOOD, SAME, GOOD, [1.0, math.nan, 2.0]), "x values must not all be equal"),  # law 4
    ((GOOD, GOOD, GOOD, GOOD, [1.0, math.inf, 2.0]), "losses must be finite"),
    (([0.0, 1.0, 2.0], [-1.0, 1.0, 2.0], GOOD, GOOD, GOOD), "xs must be positive and finite"),
    ((GOOD, [1.0, math.nan, 2.0], SAME, GOOD, GOOD), "ys must be positive and finite"),
])
def test_fit_all_words_the_first_failing_law_in_law_order(columns, message):
    points = _points(*columns)
    if message is None:
        fits = fit_all(points)
        flops, n_v, n_nv, d_tokens, loss = (np.array(c) for c in columns)
        assert fits == ScalingFits(fit_power_law(flops, n_v), fit_power_law(flops, n_nv),
                                   fit_power_law(flops, d_tokens), fit_power_law(n_nv, n_v),
                                   fit_log_law(flops, loss))
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_all(points)


# ---------------------------------------------------------------------------
# properties of the frontier and the fits, through the CLI's bytes


def _cli(argv, stdin):
    """The stdout of a successful in-process command."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, types.SimpleNamespace(buffer=io.BytesIO(stdin.encode()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _frontier_and_fit(lines, bin_width):
    return [_cli([cmd, "--bin-width", bin_width], "".join(lines)) for cmd in ("frontier", "fit")]


SWEEP_LINES = "".join(_run_lines(synth_runs(SynthSpec(
    FITS_PRESETS["scamo-paper"], CGridSpec(14.1, 16.1, 9), 4, 0.05, 7)))).splitlines(True)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.permutations(SWEEP_LINES), st.sampled_from(["0.1", "0.25", "0.5"]))
def test_run_order_leaves_frontier_and_fit_bytes_alone(lines, bin_width):
    assert _frontier_and_fit(lines, bin_width) == _frontier_and_fit(SWEEP_LINES, bin_width)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_a_dominated_run_leaves_frontier_and_fit_bytes_alone(data):
    bin_width = data.draw(st.sampled_from(["0.1", "0.25", "0.5"]))
    table = load_runs("".join(SWEEP_LINES))
    winner = data.draw(st.sampled_from(pareto_frontier(table, float(bin_width)))).run
    above = max(math.nextafter(winner.normalized_loss, math.inf),
                winner.normalized_loss + data.draw(st.floats(0.0, 1.0)))
    extra = RunRecord("extra", data.draw(st.integers(1, 10**6)), 1, 1, 1024,
                      data.draw(st.integers(1, 10**6)), data.draw(st.integers(1, 10**9)),
                      winner.flops, above)  # the winner's bucket, with fewer params if drawn so
    lines = list(SWEEP_LINES)
    lines.insert(data.draw(st.integers(0, len(lines))), "".join(_run_lines(RunTable([extra]))))
    assert _frontier_and_fit(lines, bin_width) == _frontier_and_fit(SWEEP_LINES, bin_width)
