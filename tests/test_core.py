"""Run records, strict JSONL loading, and codebook usage metrics."""

import io
import json
import math

import numpy as np
import pytest

from scamo_lab import (
    MODEL_SHAPE_PRESETS,
    RUN_FIELDS,
    CodebookMetrics,
    CodeUsageHistogram,
    RunLogError,
    RunRecord,
    codebook_metrics,
    load_runs,
)

GOOD = dict(
    run_id="run-1",
    n_layers=8,
    n_heads=8,
    d_model=512,
    n_ctx=1024,
    vocab_size=1024,
    tokens_trained=1000000,
    flops=1e15,
    normalized_loss=-0.5,
)


def make_record(**overrides):
    return RunRecord(**{**GOOD, **overrides})


def test_record_roundtrip_fields():
    r = make_record()
    assert r.to_dict() == GOOD
    assert tuple(r.to_dict()) == RUN_FIELDS


def test_record_derived_params():
    r = make_record()
    assert r.n_v == 1024 * 512
    assert r.n_nv() == 12 * 8 * 512**2
    assert r.config().n_vocab == 1024


def test_record_flops_fill():
    filled = make_record(flops=None)  # filled at construction
    assert filled.flops == 6.0 * (12 * 8 * 512**2 + 1024 * 512) * 1000000
    assert make_record().flops == GOOD["flops"]  # a given value is kept


@pytest.mark.parametrize(
    "overrides",
    [
        {"run_id": ""},
        {"run_id": 7},
        {"n_layers": 0},
        {"n_heads": -1},
        {"d_model": 513},  # not divisible by n_heads
        {"n_ctx": 1.5},
        {"vocab_size": True},
        {"tokens_trained": 0},
        {"flops": 0.0},
        {"flops": float("inf")},
        {"normalized_loss": float("nan")},
    ],
)
def test_record_validation(overrides):
    with pytest.raises(ValueError):
        make_record(**overrides)


def test_negative_loss_is_legal():
    assert make_record(normalized_loss=-3.0).normalized_loss == -3.0


def line_of(obj):
    return json.dumps(obj)


def test_load_runs_from_string_and_bytes_and_file():
    doc = line_of(GOOD) + "\n\n" + line_of({**GOOD, "run_id": "run-2"}) + "\n"
    for source in (doc, doc.encode(), io.StringIO(doc), doc.splitlines()):
        runs = load_runs(source)
        assert [r.run_id for r in runs] == ["run-1", "run-2"]


def test_load_runs_fills_missing_flops():
    obj = {k: v for k, v in GOOD.items() if k != "flops"}
    runs = load_runs(line_of(obj))
    assert runs[0].flops == pytest.approx(6.0 * (12 * 8 * 512**2 + 1024 * 512) * 1e6)
    runs = load_runs(line_of({**GOOD, "flops": None}))
    assert runs[0].flops is not None


def test_load_runs_strict_collects_all_errors():
    lines = [
        line_of(GOOD),
        "not json",
        line_of({**GOOD, "extra": 1}),
        line_of({k: v for k, v in GOOD.items() if k != "run_id"}),
        line_of({**GOOD, "n_layers": 8.0}),
        line_of({**GOOD, "normalized_loss": "low"}),
        line_of([1, 2, 3]),
    ]
    with pytest.raises(RunLogError) as err:
        load_runs("\n".join(lines))
    assert [n for n, _ in err.value.errors] == [2, 3, 4, 5, 6, 7]
    assert "unexpected field" in err.value.errors[1][1]
    assert "missing field" in err.value.errors[2][1]
    assert isinstance(err.value, ValueError)


def test_load_runs_error_message_truncates():
    bad = "\n".join(["oops"] * 8)
    with pytest.raises(RunLogError, match=r"\(\+3 more\)"):
        load_runs(bad)


def test_load_runs_rejects_bool_int_fields():
    with pytest.raises(RunLogError):
        load_runs(line_of({**GOOD, "n_heads": True}))
    with pytest.raises(RunLogError):
        load_runs(line_of({**GOOD, "normalized_loss": True}))


def test_load_runs_rejects_bool_flops():
    with pytest.raises(RunLogError) as err:
        load_runs(line_of({**GOOD, "flops": True}))
    assert err.value.errors == [(1, "flops must be a number, got True")]


HUGE = int("9" * 330)  # past float range


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_layers": HUGE, "flops": None},  # the flops fill must not overflow
        {"n_layers": HUGE},  # flops given: pareto_frontier still needs float(n_nv)
        {"vocab_size": HUGE},
        {"tokens_trained": HUGE},
    ],
)
def test_load_runs_rejects_counts_past_float_range(overrides):
    with pytest.raises(RunLogError) as err:
        load_runs(line_of({**GOOD, **overrides}))
    (name,) = set(overrides) - {"flops"}
    name = {"vocab_size": "n_vocab"}.get(name, name)  # checked by ModelConfig, as n_vocab
    assert err.value.errors == [(1, f"{name} must be an integer in [1, {2**63 - 1}], got {HUGE}")]


def test_load_runs_rejects_infinite_filled_flops():
    # these counts would fill flops past float range; the int64 bound refuses them first
    record = {**GOOD, "n_layers": 10**290, "n_heads": 1, "d_model": 1, "tokens_trained": 10**20}
    del record["flops"]
    with pytest.raises(RunLogError, match=r"line 1: n_layers must be an integer in \[1, "):
        load_runs(line_of(record))


def test_load_runs_rejects_duplicate_run_id():
    lines = [line_of(GOOD), line_of({**GOOD, "run_id": "run-2"}), line_of(GOOD)]
    with pytest.raises(RunLogError) as err:
        load_runs("\n".join(lines))
    assert err.value.errors == [(3, "duplicate run_id 'run-1' (first on line 1)")]


def test_load_runs_empty_input():
    assert load_runs("") == []
    assert load_runs("\n   \n") == []


def test_histogram_rejects_integral_floats():
    with pytest.raises(ValueError, match="^counts must be integers$"):
        CodeUsageHistogram(np.array([1.0, 2.0, 0.0]))


@pytest.mark.parametrize(
    "counts",
    [np.array([1.5, 2.0]), np.array([-1, 2]), np.array([]), np.zeros((2, 2))],
)
def test_histogram_rejects_bad_counts(counts):
    with pytest.raises(ValueError):
        CodeUsageHistogram(counts)


def test_histogram_total_is_exact_past_int64():
    hist = CodeUsageHistogram(np.array([2**62, 2**62]))
    assert hist.total == 2**63
    m = codebook_metrics(hist)
    assert m.utilization == 1.0 and m.exp_entropy == pytest.approx(2.0, rel=1e-15)


def test_metrics_hand_computed():
    m = codebook_metrics(CodeUsageHistogram(np.array([30, 10])))
    assert m == CodebookMetrics(
        utilization=1.0,
        shannon_entropy_nats=0.5623351446188083,
        exp_entropy=1.7547653506033232,
    )


def test_metrics_uniform_usage_hits_codebook_size():
    for k in (2, 15, 64):
        m = codebook_metrics(CodeUsageHistogram(np.full(k, 5)))
        assert m.utilization == 1.0
        assert m.exp_entropy == pytest.approx(k, rel=1e-12)
        assert m.shannon_entropy_nats == pytest.approx(math.log(k), rel=1e-12)


def test_metrics_single_code():
    m = codebook_metrics(CodeUsageHistogram(np.array([0, 9, 0, 0])))
    assert m.utilization == 0.25
    assert m.shannon_entropy_nats == 0.0
    assert m.exp_entropy == 1.0


def test_metrics_zero_total_errors():
    with pytest.raises(ValueError, match="no observations"):
        codebook_metrics(CodeUsageHistogram(np.array([0, 0])))


def test_shape_presets_are_valid_configs():
    assert len(MODEL_SHAPE_PRESETS) == 6
    for n_layers, n_heads, d_model in MODEL_SHAPE_PRESETS.values():
        assert d_model % n_heads == 0
        assert n_layers > 0
