"""The columnar run path against the per-row path it replaced.

The references below are the per-row `load_runs`, `synth_runs`,
`pareto_frontier` and JSONL writer that built one RunRecord for every run.
The table path must give equal records, byte-equal JSONL, equal frontiers and
the same error text, line numbers included.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scamo_lab import (
    FITS_PRESETS,
    RUN_FIELDS,
    CGridSpec,
    FrontierPoint,
    LogLawFit,
    PowerLawFit,
    RunLogError,
    RunRecord,
    RunTable,
    ScalingFits,
    SynthSpec,
    load_runs,
    pareto_frontier,
    synth_runs,
)
from scamo_lab import core
from scamo_lab.cli import _run_lines, _write_files, dumps_line, run
from scamo_lab.flops import _check_real

# ---------------------------------------------------------------------------
# references: the per-row path


def _record_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("line must be a JSON object")
    unknown = sorted(set(obj) - set(RUN_FIELDS))
    if unknown:
        raise ValueError(f"unexpected field(s): {', '.join(unknown)}")
    missing = sorted(set(RUN_FIELDS) - {"flops"} - set(obj))
    if missing:
        raise ValueError(f"missing field(s): {', '.join(missing)}")
    return RunRecord(**{"flops": None, **obj})


def reference_load_runs(source):
    if isinstance(source, (str, bytes)):
        source = source.split("\n" if isinstance(source, str) else b"\n")
    records, errors, first_line = [], [], {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        line = line.strip()
        if not line:
            continue
        try:
            record = _record_from_json(json.loads(line))
        except (ValueError, TypeError) as exc:
            errors.append((lineno, str(exc) or exc.__class__.__name__))
            continue
        earlier = first_line.setdefault(record.run_id, lineno)
        if earlier != lineno:
            errors.append((lineno, f"duplicate run_id {record.run_id!r} (first on line {earlier})"))
        records.append(record)
    if errors:
        raise RunLogError(errors)
    return records


def reference_width_1_layers(n_nv):
    """The n_layers whose 12 * n_layers (width 1, ff_ratio 4) is nearest n_nv, within 20%."""
    _check_real("n_nv_target", n_nv, "positive")
    n_layers = int(math.floor(n_nv / 12 + 0.5))
    if n_layers < 1:
        raise ValueError(f"target {n_nv} is below the smallest valid config (12 params)")
    if abs(12 * n_layers - n_nv) > 0.2 * n_nv:
        raise ValueError(f"no config within 20% of target {n_nv}")
    return n_layers


def reference_count(name, value, x):
    """The positive integer nearest a drawn n_v or d_tokens at budget 10**x, within 20%."""
    count = int(math.floor(value + 0.5))
    if count < 1 or abs(count - value) > 0.2 * value:
        raise ValueError(f"{name} {value} at budget 10**{x} is more than 20% from every positive "
                         "integer")
    return count


@np.errstate(over="ignore", invalid="ignore")
def reference_synth_runs(spec):
    records = []
    for i, x in enumerate(spec.c_grid_log10.values_log10()):
        rng = np.random.default_rng(spec.seed + i)
        c = 10.0**x
        _check_real(f"budget 10**{float(x)}", c, "positive")
        loss_opt = 0.0
        for j in range(spec.runs_per_budget):
            shift = rng.normal(0.0, spec.noise_sigma_log10, size=3)
            n_v = spec.laws.nv_vs_c.evaluate(c) * 10.0 ** shift[0]
            n_nv = spec.laws.nnv_vs_c.evaluate(c) * 10.0 ** shift[1]
            d_tokens = spec.laws.d_vs_c.evaluate(c) * 10.0 ** shift[2]
            _check_real("n_v", n_v, "non-negative")
            _check_real("d_tokens", d_tokens, "non-negative")
            if j == 0:
                loss = spec.laws.loss_vs_c.slope * x + spec.laws.loss_vs_c.intercept
                loss += rng.normal(0.0, spec.noise_sigma_log10)
                loss_opt = loss
            else:
                loss = loss_opt + rng.uniform(0.01, 0.5)
            records.append(RunRecord(
                run_id=f"synth-{i:03d}-{j:02d}", n_layers=reference_width_1_layers(n_nv),
                n_heads=1, d_model=1, n_ctx=1024,
                vocab_size=reference_count("n_v", n_v, float(x)),
                tokens_trained=reference_count("d_tokens", d_tokens, float(x)),
                flops=c, normalized_loss=float(loss)))
    return records


def reference_pareto_frontier(runs, bin_width_log10=0.25):
    best = {}
    for run in runs:
        q = math.log10(run.flops) / bin_width_log10
        k = round(q)
        bucket = k if abs(q - k) <= 4 * math.ulp(q) else math.floor(q)
        n_nv = run.n_nv()
        n_v = run.n_v
        key = (run.normalized_loss, n_nv, n_v, run.run_id)
        if bucket not in best or key < best[bucket][0]:
            best[bucket] = (key, run, n_nv, n_v)
    return [
        FrontierPoint(flops_bucket_log10=bucket * bin_width_log10, run=run, n_nv=float(n_nv),
                      n_v=float(n_v), d_tokens=float(run.tokens_trained),
                      loss=run.normalized_loss)
        for bucket, (_, run, n_nv, n_v) in sorted(best.items())
    ]


def reference_run_lines(records):
    return "\n".join(dumps_line(r.to_dict()) for r in records) + "\n"


def outcome(call, *args):
    """(result, None) or (None, (exception type, message, errors))."""
    try:
        return call(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc), getattr(exc, "errors", None))


# ---------------------------------------------------------------------------
# load_runs: generated logs with valid rows and every fault kind

INT_FIELDS = RUN_FIELDS[1:7]
IDS = st.text(alphabet="abü-", min_size=1, max_size=3)  # collide now and then
COUNTS = st.one_of(st.integers(1, 10**6), st.integers(1, 2**63 - 1))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FAULTS = {
    "bool": lambda d, row: {d(st.sampled_from(INT_FIELDS)): d(st.booleans())},
    "float": lambda d, row: {d(st.sampled_from(INT_FIELDS)): d(st.sampled_from([1.0, 1.5, 8.0]))},
    "string": lambda d, row: {d(st.sampled_from(INT_FIELDS)): "8"},
    "zero": lambda d, row: {d(st.sampled_from(INT_FIELDS)): d(st.sampled_from([0, -1]))},
    "2**63": lambda d, row: {d(st.sampled_from(INT_FIELDS)): 2**63},
    "400 digits": lambda d, row: {d(st.sampled_from([*INT_FIELDS, "flops", "normalized_loss"])):
                                  int("9" * 400)},
    "int flops": lambda d, row: {"flops": d(st.integers(1, 10**30))},
    "int loss": lambda d, row: {"normalized_loss": d(st.integers(-10**20, 10**20))},
    "null flops": lambda d, row: {"flops": None},
    "flops <= 0": lambda d, row: {"flops": d(st.sampled_from([0, 0.0, -0.0, -1.5, -10**20]))},
    "bad flops": lambda d, row: {"flops": d(st.sampled_from([True, "1e15", [1e15], math.inf]))},
    "bad loss": lambda d, row: {"normalized_loss": d(st.sampled_from(
        [math.nan, math.inf, -math.inf, "low", False, None]))},
    "bad run_id": lambda d, row: {"run_id": d(st.sampled_from(["", 7, None, ["a"]]))},
    "indivisible": lambda d, row: {"n_heads": 2, "d_model": 2 * d(st.integers(1, 10**6)) + 1},
}


VALID_KINDS = [None, "no flops", "reordered", "blank", "int flops", "int loss", "null flops"]


@st.composite
def run_logs(draw) -> str:
    lines, ids = [], []
    valid = draw(st.booleans())  # about half the logs take only the kinds that keep a line valid
    for k in range(draw(st.integers(0, 8))):
        heads = draw(st.integers(1, 8))
        row = {"run_id": draw(IDS), "n_layers": draw(COUNTS), "n_heads": heads,
               "d_model": heads * draw(st.integers(1, 2**20)), "n_ctx": draw(COUNTS),
               "vocab_size": draw(COUNTS), "tokens_trained": draw(COUNTS),
               "flops": draw(st.floats(1e-3, 1e300)), "normalized_loss": draw(FINITE)}
        if valid:
            row["run_id"] += str(k)  # unique, as IDS has no digits
        kind = draw(st.sampled_from(VALID_KINDS if valid else [
            None, None, None, "missing", "unknown", "no flops", "reordered", "duplicate",
            "not an object", "not json", "blank", "bom", "trailing data", "padded", "nan count",
            *FAULTS]))
        if kind in FAULTS:
            row.update(FAULTS[kind](draw, row))
        elif kind == "missing":
            del row[draw(st.sampled_from(RUN_FIELDS))]
        elif kind == "unknown":
            row[draw(st.sampled_from(["extra", "n_vocab", ""]))] = 1
        elif kind == "no flops":
            del row["flops"]
        elif kind == "reordered":
            row = dict(draw(st.permutations(list(row.items()))))
        elif kind == "duplicate" and ids:
            row["run_id"] = draw(st.sampled_from(ids))
        elif kind == "nan count":  # json.dumps writes NaN and Infinity, and json.loads takes them
            row[draw(st.sampled_from(INT_FIELDS))] = draw(st.sampled_from([math.nan, math.inf]))
        if isinstance(row.get("run_id"), str):
            ids.append(row["run_id"])
        line = json.dumps(row)
        if kind == "not an object":
            line = json.dumps(draw(st.sampled_from([[1, 2], [], 1, "s", None,
                                                    list(row.values())])))
        elif kind == "not json":
            line = draw(st.sampled_from(["not json", "{", line[:-1], "1e999x"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        elif kind == "bom":
            line = "\ufeff" + line
        elif kind == "trailing data":
            line = draw(st.sampled_from([line + " 1", line + line, line + "\x1c1"]))
        elif kind == "padded":  # str.strip removes these; JSON whitespace has none of them
            pad = draw(st.sampled_from(["\x1c", "\xa0", "\u3000"]))
            line = draw(st.sampled_from([pad + line + pad, line.replace(", ", "," + pad, 1)]))
        lines.append(line)
    return "\n".join(lines)


# valid, with a flops column that leaves the fast path (one row has none), so the screen
# flags the other rows' flops past the int64 range and they must keep their values
FLOPS_PAST_INT64 = "\n".join(
    json.dumps({"run_id": f"r{i}", "n_layers": 2, "n_heads": 2, "d_model": 8, "n_ctx": 16,
                "vocab_size": 32, "tokens_trained": 1000, **flops, "normalized_loss": 0.5})
    for i, flops in enumerate([{"flops": 10**20}, {}, {"flops": 2**63}, {"flops": 1e300}]))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(run_logs())
@example(FLOPS_PAST_INT64)
def test_load_runs_matches_the_per_row_reference(text):
    table, error = outcome(load_runs, text)
    records, ref_error = outcome(reference_load_runs, text)
    assert error == ref_error
    if error is None:
        assert isinstance(table, RunTable) and table == records
        assert "".join(_run_lines(table)) == reference_run_lines(records)


def test_load_runs_builds_records_only_for_the_rows_without_flops(monkeypatch):
    # flops over 1e19-1e23 are floats past 2**63 - 1; with every other row lacking flops the
    # column leaves the screen's fast path, where only an int may be flagged by its size
    spec = SynthSpec(PAPER, CGridSpec(19.1, 23.1, 20), 10, 0.05, 1)
    rows = [json.loads(line) for line in "".join(_run_lines(synth_runs(spec))).splitlines()]
    for row in rows[1::2]:
        del row["flops"]
    log, built = "\n".join(map(json.dumps, rows)), []

    def counted(*fields):
        built.append(fields[0])
        return RunRecord(*fields)

    monkeypatch.setattr(core, "RunRecord", counted)
    table = load_runs(log)
    assert built == [row["run_id"] for row in rows[1::2]]
    monkeypatch.undo()
    assert table == reference_load_runs(log)


def test_load_runs_keeps_the_exact_flops_fill():
    # 6.0 * (n_nv + n_v) * D on Python ints: an int64 product would wrap
    row = {"run_id": "big", "n_layers": 2**62, "n_heads": 1, "d_model": 2**31, "n_ctx": 1,
           "vocab_size": 2**62, "tokens_trained": 2**62, "normalized_loss": 0.0}
    (record,) = reference_load_runs(json.dumps(row))
    table = load_runs(json.dumps(row))
    assert table.flops[0] == record.flops == 6.0 * (12 * 2**62 * 2**62 + 2**93) * 2**62


K = core._CHUNK_ROWS  # rows the loader checks, and the writer formats, at a time


@pytest.mark.parametrize("row", [K - 1, K, K + 1])
@pytest.mark.parametrize("fault", ["bad line", "repeated run_id"])
def test_load_runs_faults_about_a_chunk_edge_match_the_per_row_reference(fault, row):
    table = synth_runs(SynthSpec(PAPER, CGridSpec(15.0, 15.0, 1), 2 * K + 1, 0.05, 7))
    lines = "".join(_run_lines(table)).splitlines()
    if fault == "bad line":
        lines[row] = lines[row].replace('"n_heads": 1', '"n_heads": 0')
    else:  # the run_id of a row in the first chunk
        lines[row] = json.dumps({**json.loads(lines[row]), "run_id": f"synth-000-{K // 2:02d}"})
    text = "\n".join(lines)
    error = outcome(load_runs, text)[1]
    assert error is not None and error == outcome(reference_load_runs, text)[1]
    assert [lineno for lineno, _ in error[2]] == [row + 1]


def test_a_log_of_blank_lines_is_an_empty_table_of_read_only_columns():
    for log in ("\n  \n\t\n", b"\n\n", ""):
        table = load_runs(log)
        assert table == reference_load_runs(log) == [] and table.run_id == []
        for name in RUN_FIELDS[1:]:
            column = getattr(table, name)
            assert column.shape == (0,) and not column.flags.writeable
            assert column.dtype == (np.float64 if name in ("flops", "normalized_loss") else np.int64)


# ---------------------------------------------------------------------------
# synth_runs


PAPER = FITS_PRESETS["scamo-paper"]


def _laws(**coefs):
    """The paper laws with some log10_coef (or the loss slope) replaced."""
    laws = {name: getattr(PAPER, name) for name in ("nv_vs_c", "nnv_vs_c", "d_vs_c",
                                                    "nv_vs_nnv", "loss_vs_c")}
    for name, value in coefs.items():
        if name == "loss_vs_c":
            laws[name] = LogLawFit(slope=value, intercept=0.0)
        else:
            laws[name] = PowerLawFit(log10_coef=value, exponent=laws[name].exponent)
    return ScalingFits(**laws)


SYNTH_SPECS = {
    "gate": SynthSpec(PAPER, CGridSpec(14.1, 16.1, 5), 2, 0.05, 42),
    "noiseless": SynthSpec(PAPER, CGridSpec(15.0, 17.0, 5), 3, 0.0, 42),
    "one point": SynthSpec(PAPER, CGridSpec(21.1, 21.1, 1), 7, 0.3, 3),
    "wide noise": SynthSpec(PAPER, CGridSpec(12.0, 20.0, 17), 11, 0.5, 1234),
    "bench": SynthSpec(PAPER, CGridSpec(14.1, 18.1, 100), 50, 0.05, 1),
    # pinned in test_cli: a draw past float range, and budgets past it
    "noise overflow": SynthSpec(PAPER, CGridSpec(14.1, 18.1, 1), 1, 400.0, 16),
    "budget overflow": SynthSpec(PAPER, CGridSpec(400.0, 401.0, 2), 3, 0.0, 42),
    # a shape past the int64 bound, at the first row and at a later row of a later budget
    "vocab past int64": SynthSpec(_laws(nv_vs_c=12.0), CGridSpec(14.0, 15.0, 3), 2, 0.0, 1),
    "layers past int64": SynthSpec(_laws(nnv_vs_c=12.0), CGridSpec(14.0, 15.0, 3), 2, 0.0, 1),
    "tokens past int64": SynthSpec(_laws(d_vs_c=14.0), CGridSpec(14.0, 15.0, 3), 2, 0.0, 1),
    "noise crosses int64": SynthSpec(_laws(nv_vs_c=7.0), CGridSpec(14.0, 18.0, 9), 20, 1.0, 5),
    "loss past float range": SynthSpec(_laws(loss_vs_c=1e308), CGridSpec(14.0, 15.0, 2), 2,
                                       0.0, 1),
    # vocab_size keeps every bit of n_v_law * 10.0 ** s, so a pow off by one ulp shows
    "n_v past 2**53": SynthSpec(_laws(nv_vs_c=5.0), CGridSpec(14.0, 18.0, 20), 50, 0.05, 1),
    # n_nv near 17, 12 * 1 and 12 * 2 both 20% off it: rows 0-5 pass, row 6 fails that rule
    "20% miss at row 6": SynthSpec(_laws(nnv_vs_c=-6.65), CGridSpec(14.0, 14.0, 1), 8, 0.05, 1),
    # row 1 breaks the int64 bound, a rule checked last; rows 3, 4 and 7 break the 20% rule,
    # checked before it: the earlier row's error wins
    "int64 at row 1, 20% at row 3": SynthSpec(_laws(nv_vs_c=8.4, nnv_vs_c=-6.65),
                                              CGridSpec(14.0, 14.0, 1), 8, 0.05, 2),
    # vocab_size 2**63 - 36864, - 15360 and - 19456 on rows 0-2, then exactly 2**63 on row 3
    "vocab at 2**63": SynthSpec(_laws(nv_vs_c=math.log10(2.0**63) - 0.75 * 14),
                                CGridSpec(14.0, 14.0, 1), 12, 2e-15, 96),
    # row 0 passes every rule, row 1 breaks the int64 bound and row 2's pow overflows: the
    # error is row 1's, though the budget holds a value past float range
    "pass, int64, overflow": SynthSpec(
        ScalingFits(PowerLawFit(75.0, 0.0), PowerLawFit(200.0, 0.0), PowerLawFit(165.0, 0.0),
                    PAPER.nv_vs_nnv, LogLawFit(0.0, 1.0)),
        CGridSpec(15.0, 15.0, 1), 6, 150.0, 10779),
}


@pytest.mark.parametrize("spec", SYNTH_SPECS.values(), ids=SYNTH_SPECS.keys())
def test_synth_runs_matches_the_per_row_reference(spec):
    table, error = outcome(synth_runs, spec)
    records, ref_error = outcome(reference_synth_runs, spec)
    assert error == ref_error
    if error is None:
        assert isinstance(table, RunTable) and table == records
        assert "".join(_run_lines(table)) == reference_run_lines(records)


def test_the_overflowing_specs_fail():
    for name in ("noise overflow", "budget overflow", "vocab past int64", "layers past int64",
                 "tokens past int64", "noise crosses int64", "loss past float range"):
        assert outcome(synth_runs, SYNTH_SPECS[name])[1] is not None, name


def test_synth_runs_words_the_first_failing_row_of_a_budget():
    assert outcome(synth_runs, SYNTH_SPECS["20% miss at row 6"])[1][1] == (
        "no config within 20% of target 17.200827388592874")
    assert outcome(synth_runs, SYNTH_SPECS["int64 at row 1, 20% at row 3"])[1][1] == (
        "vocab_size must be an integer in [1, 9223372036854775807], got 9772042995520368640")
    assert outcome(synth_runs, SYNTH_SPECS["vocab at 2**63"])[1][1] == (
        "vocab_size must be an integer in [1, 9223372036854775807], got 9223372036854775808")
    assert outcome(synth_runs, SYNTH_SPECS["pass, int64, overflow"])[1][1] == (
        "n_layers must be an integer in [1, 9223372036854775807], got 6442319949410122645634653"
        "14004851262640815654075499044670438784533335642992060753191449338025536388439713710541"
        "93306545016358514434310905664275311032264863650781576327894900202513290269110998925312")


# ---------------------------------------------------------------------------
# pareto_frontier: ties and bucket edges

EDGE_WIDTHS = (0.1, 0.25, 0.3)
SHAPES = [(1, 1, 1), (1, 1, 2), (2, 1, 1), (4, 2, 2), (2**62, 1, 1), (2**62 - 1, 1, 1),
          (2**61, 1, 3), (2**33, 4, 2**30)]  # the last two pass int64 as 12 * L * d**2


@st.composite
def tie_heavy_runs(draw):
    width = draw(st.sampled_from(EDGE_WIDTHS))
    runs = []
    for i in range(draw(st.integers(1, 30))):
        n_layers, n_heads, d_model = draw(st.sampled_from(SHAPES))
        flops = draw(st.one_of(
            st.integers(1, 60).map(lambda k: 10.0 ** (k * width)),  # exactly on an edge
            st.integers(1, 60).map(lambda k: math.nextafter(10.0 ** (k * width), 0.0)),
            st.sampled_from([1e15, 2e15, 9.99e15, 1e16])))
        runs.append(RunRecord(
            run_id=draw(st.sampled_from(["a", "b", "c", f"r{i}"])), n_layers=n_layers,
            n_heads=n_heads, d_model=d_model, n_ctx=1,
            vocab_size=draw(st.sampled_from([1, 2, 2**40, 2**62])),
            tokens_trained=draw(st.sampled_from([1, 10, 2**63 - 1])), flops=flops,
            normalized_loss=draw(st.sampled_from([0.0, -0.0, 0.5, -1.0]))))
    return runs, width


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(tie_heavy_runs())
def test_frontier_matches_the_per_row_reference_on_ties_and_edges(case):
    runs, width = case
    expected = reference_pareto_frontier(runs, width)
    assert pareto_frontier(runs, width) == expected
    assert pareto_frontier(RunTable(runs), width) == expected


def test_frontier_ties_break_on_exact_counts_past_int64():
    # 12 * L * d**2 is past int64 and equal in float64: only the Python ints tell them apart
    big = [RunRecord(f"r{k}", 2**62 + k, 1, 1, 1, 1, 1, 1e15, 0.0) for k in (3, 1, 2)]
    assert float(big[0].n_nv()) == float(big[1].n_nv())
    assert pareto_frontier(big)[0].run.run_id == "r1"
    assert pareto_frontier(RunTable(big))[0].run.run_id == "r1"


def test_frontier_of_synth_sweep_matches_the_reference():
    records = reference_synth_runs(SYNTH_SPECS["bench"])
    table = load_runs(reference_run_lines(records))
    for width in (0.1, 0.25, 1.0):
        assert pareto_frontier(table, width) == reference_pareto_frontier(records, width)


# ---------------------------------------------------------------------------
# the JSONL writer and the table itself


@st.composite
def valid_records(draw):
    heads = draw(st.integers(1, 4))
    return RunRecord(
        run_id=draw(st.text(min_size=1, max_size=4)), n_layers=draw(COUNTS), n_heads=heads,
        d_model=heads * draw(st.integers(1, 2**20)), n_ctx=draw(COUNTS),
        vocab_size=draw(COUNTS), tokens_trained=draw(COUNTS),
        flops=draw(st.one_of(st.floats(5e-324, 1e308), st.sampled_from([1e16, 2.0**53]))),
        normalized_loss=draw(st.one_of(FINITE, st.sampled_from([-0.0, 5e-324]))))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(valid_records(), max_size=6, unique_by=lambda r: r.run_id))
def test_writer_matches_the_per_row_reference_byte_for_byte(records):
    table = RunTable(records)
    assert "".join(_run_lines(table)) == reference_run_lines(records)
    assert load_runs("".join(_run_lines(table))) == table


@pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 2 * K + 1])  # about chunk edges
def test_writer_chunk_edges_match_the_reference_and_ingest_out(n, tmp_path, capsys):
    table = synth_runs(SynthSpec(PAPER, CGridSpec(15.0, 15.0, 1), n, 0.05, 7)) if n else RunTable()
    text = reference_run_lines(list(table))
    assert "".join(_run_lines(table)) == text
    (tmp_path / "runs.jsonl").write_text(text)
    argv = ["ingest", "--runs", str(tmp_path / "runs.jsonl")]
    assert run(argv) == 0 and run([*argv, "--out", str(tmp_path / "out.jsonl")]) == 0
    assert capsys.readouterr().out == (tmp_path / "out.jsonl").read_text() == text


def test_writer_holds_one_chunk_not_the_whole_text(tmp_path):
    table = synth_runs(SynthSpec(PAPER, CGridSpec(14.1, 18.1, 40), 500, 0.05, 1))
    tracemalloc.start()
    try:
        _write_files({str(tmp_path / "runs.jsonl"): _run_lines(table)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 1024-row chunk's text, row strings and column values take 0.18 of the 20k-run text,
    # a 4096-row chunk's 0.71; joining the whole text before writing it takes 2.2 of it
    assert len(table) == 20_000 and peak < 0.3 * (tmp_path / "runs.jsonl").stat().st_size


def test_table_rows_slices_and_equality():
    records = reference_synth_runs(SYNTH_SPECS["gate"])
    table = RunTable(records)
    assert len(table) == 10 and table == records and records == table
    assert table[3] == records[3] and table[-1] == records[-1]
    assert isinstance(table[2:5], RunTable) and table[2:5] == records[2:5]
    assert list(table) == records
    assert table != records[:-1] and table != RunTable(records[1:])
    assert RunTable() == [] and repr(table) == "RunTable(10 runs)"
    assert table.run_id == [r.run_id for r in records]
    assert table.n_layers.dtype == np.int64 and table.flops.dtype == np.float64
    with pytest.raises(ValueError):
        table.flops[0] = 1.0  # read-only: the columns stay checked
    with pytest.raises(IndexError):
        table[10]
