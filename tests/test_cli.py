"""CLI surface: subcommands, exit codes, deterministic output."""

import codecs
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scamo_lab import FITS_PRESETS, ScalingFits, load_runs
from scamo_lab.cli import _fmt_float, dumps, dumps_line, run
from scamo_lab.core import _CHUNK_ROWS

RUN_LINE = json.dumps(
    {
        "run_id": "r1",
        "n_layers": 8,
        "n_heads": 8,
        "d_model": 512,
        "n_ctx": 1024,
        "vocab_size": 1024,
        "tokens_trained": 1000000,
        "flops": 1e15,
        "normalized_loss": -0.5,
    }
)


@pytest.fixture
def invoke(capsys, monkeypatch):
    def _invoke(argv, stdin=None):
        """stdin, text or bytes, is fed as a binary buffer alone: a text-mode read fails."""
        if stdin is not None:
            data = stdin if isinstance(stdin, bytes) else stdin.encode("utf-8")
            monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(data)))
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _invoke


def test_dumps_formats():
    assert dumps({"a": 1, "b": [1.5, None, True]}) == (
        '{\n  "a": 1,\n  "b": [\n    1.5,\n    null,\n    true\n  ]\n}'
    )
    assert dumps_line({"x": 0.1}) == '{"x": 0.10000000000000001}'
    assert dumps({}) == "{}" and dumps([]) == "[]"
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(TypeError):
        dumps(object())


def test_dumps_preserves_key_order():
    assert dumps_line({"b": 1, "a": 2}) == '{"b": 1, "a": 2}'


def _write_json(obj, out: list[str], indent: int | None, depth: int) -> None:
    """The reference writer: the list-appending one the string-returning writer replaced."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        if isinstance(obj, dict):
            brackets = "{}"
            items = [(json.dumps(str(key)) + ": ", value) for key, value in obj.items()]
        else:
            brackets = "[]"
            items = [("", v) for v in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
        if not items:
            out.append(brackets)
            return
        sep, pad, close = ", ", "", brackets[1]
        if indent is not None:
            sep = ","
            pad = "\n" + " " * (indent * (depth + 1))
            close = "\n" + " " * (indent * depth) + brackets[1]
        for k, (prefix, value) in enumerate(items):
            out.append((brackets[0] if k == 0 else sep) + pad + prefix)
            _write_json(value, out, indent, depth + 1)
        out.append(close)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_dumps(obj, indent):
    out: list[str] = []
    _write_json(obj, out, indent, 0)
    return "".join(out)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    FINITE, st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 14.0, 1e22]),
    FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.text(),  # non-ASCII too
    hnp.arrays(np.float64, SHAPES, elements=FINITE), hnp.arrays(np.int64, SHAPES),
    hnp.arrays(np.bool_, SHAPES),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
def test_writer_matches_the_reference_byte_for_byte(obj):
    for indent in (2, 4):
        assert dumps(obj, indent) == _reference_dumps(obj, indent)
    assert dumps_line(obj) == _reference_dumps(obj, None)


def test_writer_takes_numpy_bools_and_0d_arrays():
    # the reference raised on both: "cannot serialize bool" and "'int' object is not iterable"
    assert dumps_line([np.bool_(True), np.array(7), np.array(0.5), np.array(False)]) == (
        "[true, 7, 0.5, false]")
    assert dumps({"a": np.array(1.5)}) == '{\n  "a": 1.5\n}'


@pytest.mark.parametrize("value", [np.longdouble(1.5), np.clongdouble(1.0)])
def test_writer_refuses_numpy_scalars_with_no_python_value(value):
    # tolist keeps these as numpy scalars; the reference printed a longdouble as a float
    with pytest.raises(TypeError, match=f"^cannot serialize {type(value).__name__}$"):
        dumps_line([value])


@pytest.mark.parametrize("value", [float("nan"), -math.inf, np.float64(math.inf), np.float32("nan"),
                                   np.array([0.0, math.inf]), np.array(math.nan)])
def test_writer_refuses_non_finite_floats(value):
    for write in (dumps, dumps_line):
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            write({"x": [value]})


def test_flops_subcommand_frozen_output(invoke):
    code, out, err = invoke(
        ["flops", "--layers", "8", "--heads", "8", "--d-model", "512",
         "--ctx", "1024", "--vocab", "65536"]
    )
    assert code == 0 and err == ""
    assert out == (
        "{\n"
        '  "embeddings": 2048,\n'
        '  "attn_qkv": 12582912,\n'
        '  "attn_mask": 8388608,\n'
        '  "attn_project": 4194304,\n'
        '  "ff": 33554432,\n'
        '  "logits": 67108864,\n'
        '  "total": 125831168\n'
        "}\n"
    )


def test_flops_invalid_shape_exits_1(invoke):
    code, out, err = invoke(
        ["flops", "--layers", "8", "--heads", "7", "--d-model", "512",
         "--ctx", "1024", "--vocab", "65536"]
    )
    assert code == 1 and out == ""
    assert "error:" in err and "divisible" in err


def test_fsq_quantize_stdin(invoke):
    code, out, err = invoke(
        ["fsq", "quantize", "--preset", "2^10"], stdin="[0.0, 0.0, 0.0, 0.0]"
    )
    assert code == 0
    assert json.loads(out) == [5, 3, 3, 3]


def test_fsq_encode_decode(invoke):
    code, out, _ = invoke(["fsq", "encode", "--levels", "5,3"], stdin="[5, 3]")
    assert code == 0 and out == "14\n"
    code, out, _ = invoke(["fsq", "decode", "--levels", "5,3"], stdin="14")
    assert code == 0 and json.loads(out) == [5, 3]


def test_fsq_dequantize_file_io(invoke, tmp_path):
    src = tmp_path / "codes.json"
    src.write_text("[[1, 1], [5, 5], [3, 3]]")
    dst = tmp_path / "values.json"
    code, out, _ = invoke(
        ["fsq", "dequantize", "--levels", "5,5", "--in", str(src), "--out", str(dst)]
    )
    assert code == 0 and out == ""
    assert json.loads(dst.read_text()) == [[0, 0], [1, 1], [0.5, 0.5]]


def test_fsq_errors(invoke):
    code, _, err = invoke(["fsq", "quantize", "--preset", "2^99"], stdin="[0.0]")
    assert code == 1 and "unknown level preset" in err
    code, _, err = invoke(["fsq", "quantize", "--levels", "8,x"], stdin="[0.0]")
    assert code == 1 and "comma-separated" in err
    code, _, err = invoke(["fsq", "quantize", "--levels", "8,5"], stdin="not json")
    assert code == 1 and "not valid JSON" in err
    code, _, err = invoke(["fsq", "decode", "--levels", "8,5"], stdin="40")
    assert code == 1 and "index must be integers in [0, 39]" in err
    # ints past int64: numpy holds them as objects, or as float64 beside a negative
    for action, stdin, message in [
        ("decode", str(2**70), "index must be integers in [0, 63]"),
        ("decode", f"[1, -1, {2**63}]", "index must be integers in [0, 63]"),
        ("encode", f"[[1, {2**64}]]", "codes must be integers in [1, (8, 8)]"),
        ("dequantize", f"[[1, -1], [2, {2**63}]]", "codes must be integers in [1, (8, 8)]"),
    ]:
        assert invoke(["fsq", action, "--levels", "8,8"], stdin=stdin) == (
            1, "", f"error: {message}\n")


def test_fsq_level_count_past_float64_rounding_is_one_error_line(invoke):
    code, out, err = invoke(["fsq", "quantize", "--levels", str(2**63 - 1)], stdin="[50.0]")
    assert (code, out) == (1, "")
    assert err == f"error: every level count must be an integer in [2, {2**52}], got {2**63 - 1}\n"


@pytest.mark.parametrize("action", ["quantize", "dequantize", "encode", "decode"])
def test_fsq_non_numbers_are_one_error_line(invoke, action):
    code, out, err = invoke(["fsq", action, "--levels", "8,5"], stdin="[{}]")
    want = "latents must be real numbers" if action == "quantize" else "must be integers"
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and want in err


@pytest.mark.parametrize("latents", ["[true, false]", '["0.4", "-1.2"]', "[true, 0.5]"])
def test_fsq_quantize_refuses_bools_and_strings(invoke, latents):
    code, out, err = invoke(["fsq", "quantize", "--levels", "8,5"], stdin=latents)
    assert (code, out, err) == (1, "", "error: latents must be real numbers\n")


@pytest.mark.parametrize(
    "action, stdin, message",
    [
        ("quantize", "[[0.5, 1.0], [2.0]]", "latents must be real numbers"),
        ("dequantize", "[[1, 2], [3]]", "codes must be integers"),
        ("encode", "[[1, 2], 3]", "codes must be integers"),
        ("decode", "[[1], 2]", "index must be integers"),
        # numpy would read the bool as 1
        ("dequantize", "[[true, 2]]", "codes must be integers"),
        ("decode", "[0, false]", "index must be integers"),
    ],
    ids=["quantize-ragged", "dequantize-ragged", "encode-ragged", "decode-ragged",
         "dequantize-bool", "decode-bool"],
)
def test_fsq_ragged_or_bool_in_a_list_gets_the_array_rule(invoke, action, stdin, message):
    code, out, err = invoke(["fsq", action, "--levels", "8,5"], stdin=stdin)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_fsq_usage_errors(invoke):
    assert invoke(["fsq", "quantize"], stdin="[0.0]")[0] == 2  # missing levels
    assert invoke(["fsq", "quantize", "--preset", "2^10", "--levels", "8,5"])[0] == 2
    assert invoke(["fsq", "shuffle", "--preset", "2^10"])[0] == 2


def test_usage_exit_codes(invoke):
    assert invoke([])[0] == 2
    assert invoke(["unknown-command"])[0] == 2
    assert invoke(["--help"])[0] == 0


def test_vq_subcommand(invoke, tmp_path):
    latents = tmp_path / "latents.csv"
    latents.write_text("0.0,0.0\n1.9,0.1\n2.1,0.2\n")
    codebook = tmp_path / "codebook.csv"
    codebook.write_text("0.0,0.0\n2.0,0.0\n")
    code, out, _ = invoke(["vq", "--latents", str(latents), "--codebook", str(codebook)])
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == [1, 2]
    assert doc["total"] == 3
    assert doc["utilization"] == 1.0
    third = 1.0 / 3.0
    entropy = -(third * math.log(third) + 2 * third * math.log(2 * third))
    assert doc["shannon_entropy_nats"] == pytest.approx(entropy, rel=1e-12)
    assert doc["exp_entropy"] == pytest.approx(math.exp(entropy), rel=1e-12)


def test_vq_lattice_ties_go_to_the_lowest_index(invoke, tmp_path):
    # {0, 1/2, 1}^6 rows against distinct {0, 1}^6 corners: most rows are
    # exactly equidistant from several entries
    rng = np.random.default_rng(11)
    corners = rng.choice(64, size=24, replace=False)
    entries = ((corners[:, None] >> np.arange(6)) & 1).astype(np.float64)
    rows = rng.choice([0.0, 0.5, 1.0], size=(300, 6))
    latents, codebook = tmp_path / "latents.csv", tmp_path / "codebook.csv"
    np.savetxt(latents, rows, delimiter=",")
    np.savetxt(codebook, entries, delimiter=",")
    code, out, _ = invoke(["vq", "--latents", str(latents), "--codebook", str(codebook)])
    assert code == 0
    d2 = ((rows[:, None, :] - entries[None, :, :]) ** 2).sum(axis=2)
    lowest = [int(np.flatnonzero(r == r.min())[0]) for r in d2]
    assert sum((r == r.min()).sum() > 1 for r in d2) > 100  # ties are common
    assert json.loads(out)["counts"] == np.bincount(lowest, minlength=24).tolist()


def test_vq_one_code_in_use_prints_zero_entropy(invoke, tmp_path):
    latents, codebook = tmp_path / "l.csv", tmp_path / "cb.csv"
    latents.write_text("0.1,0.2\n")
    codebook.write_text("0,0\n1,1\n")
    code, out, _ = invoke(["vq", "--latents", str(latents), "--codebook", str(codebook)])
    assert code == 0 and '"shannon_entropy_nats": 0,' in out


def test_vq_dimension_mismatch(invoke, tmp_path):
    latents = tmp_path / "latents.csv"
    latents.write_text("0.0,0.0,0.0\n")
    codebook = tmp_path / "codebook.csv"
    codebook.write_text("0.0,0.0\n")
    code, _, err = invoke(["vq", "--latents", str(latents), "--codebook", str(codebook)])
    assert code == 1 and "does not match" in err


def test_vq_empty_csv_is_one_error_line(invoke, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's no-data warning would be a second stderr line
        code, out, err = invoke(["vq", "--latents", str(empty), "--codebook", str(empty)])
    assert (code, out) == (1, "")
    assert err == f"error: latents CSV {str(empty)!r} is empty\n"


def test_vq_missing_file(invoke, tmp_path):
    code, _, err = invoke(
        ["vq", "--latents", str(tmp_path / "nope.csv"), "--codebook", str(tmp_path / "nope.csv")]
    )
    assert code == 1 and "error:" in err


def test_normloss_with_header(invoke):
    csv_text = "model_logp,baseline_logp\n0.0,0.0\n-0.6931471805599453,0.0\n"
    code, out, _ = invoke(["normloss"], stdin=csv_text)
    assert code == 0
    doc = json.loads(out)
    assert doc["sum_ce"] == pytest.approx(0.6931471805599453)
    assert doc["mean_ce"] == pytest.approx(0.34657359027997264)
    assert doc["normalized_loss"] == pytest.approx(0.34657359027997264)
    assert list(doc) == ["sum_ce", "mean_ce", "normalized_loss"]


def test_normloss_without_header(invoke):
    code, out, _ = invoke(["normloss"], stdin="-1.0,-1.0\n")
    assert code == 0
    assert json.loads(out)["normalized_loss"] == 0.0


def test_normloss_errors(invoke):
    assert invoke(["normloss"], stdin="")[0] == 1
    code, _, err = invoke(["normloss"], stdin="-1.0,-1.0,-1.0\n")
    assert code == 1 and "expected 2 columns" in err
    code, _, err = invoke(["normloss"], stdin="0.5,0.0\n")
    assert code == 1 and "line 1" in err


def test_normloss_sum_past_float_range_is_one_error_line(invoke):
    assert invoke(["normloss"], stdin="-1e308,-1e308\n-1e308,-1e308\n") == (
        1, "", "error: the sum of model_logp overflows\n")


@pytest.mark.parametrize("text, line", [
    ("model,base\n-1,-1\n\n0.5,0\n", 4),
    ("model,base\r\n-1,-1\r\n\r\n-1,-1,-1\r\n", 4),
    ("-1,-1\r\r0.5,0\r", 3),
    ('-1,-1\n"-1\n",-1\n0.5,0\n', 4),
    ("model,base\n-1,-1\n\n-1," + "1" * 131073 + "\n", 4),
], ids=["header and blank line", "CRLF", "lone CR", "quoted newline", "field over csv's limit"])
def test_normloss_errors_name_the_input_line(invoke, text, line):
    """As a run log's errors do: the header and blank lines count, and a row that spans lines
    counts each of them. csv's own errors name their line too."""
    code, out, err = invoke(["normloss"], stdin=text)
    assert (code, out) == (1, "") and err.startswith(f"error: line {line}: ")


def test_ingest_fills_flops(invoke):
    record = json.loads(RUN_LINE)
    del record["flops"]
    code, out, _ = invoke(["ingest"], stdin=json.dumps(record))
    assert code == 0
    loaded = json.loads(out)
    assert loaded["flops"] == pytest.approx(6.0 * (12 * 8 * 512**2 + 1024 * 512) * 1e6)
    assert list(loaded) == list(json.loads(RUN_LINE))


def test_ingest_reports_line_numbers(invoke):
    code, out, err = invoke(["ingest"], stdin=RUN_LINE + "\ngarbage\n")
    assert code == 1 and out == ""
    assert "line 2" in err


@pytest.mark.parametrize("command", ["ingest", "frontier", "fit"])
@pytest.mark.parametrize("log, error", [
    (RUN_LINE.encode() + b"\r" + RUN_LINE.encode() + b"\n", "line 1: Extra data"),
    (RUN_LINE.encode() + b"\n\xff\n", "line 2: 'utf-8' codec can't decode byte 0xff"),
], ids=["lone CR", "not UTF-8"])
def test_run_log_reads_alike_from_a_file_and_stdin(invoke, tmp_path, command, log, error):
    """A run log splits at "\n" only and is decoded line by line, whichever way it comes in."""
    path = tmp_path / "runs.jsonl"
    path.write_bytes(log)
    from_file = invoke([command, "--runs", str(path)])
    assert from_file == invoke([command], stdin=log)
    code, out, err = from_file
    assert (code, out) == (1, "") and err.startswith(f"error: invalid run log: {error}")


OVER_LIMIT = b"-0.5," + b"1" * 131073 + b"\n"  # past csv's field size limit
NOT_UTF8 = "error: 'utf-8' codec can't decode byte 0xff in position {}: invalid start byte\n"
BOM = "error: input starts with a UTF-8 byte order mark\n"
FSQ = ["fsq", "quantize", "--levels", "8,5"]


@pytest.mark.parametrize("argv, data, error", [
    (["normloss"], b"-0.5,-1.0\r\n-0.25,-2.0\r\n", None),
    (["normloss"], b"-0.5,-1.0\r-0.25,-2.0\r", None),
    (["normloss"], b"\xef\xbb\xbf-0.5,-1.0\n-0.25,-2.0\n", BOM),
    (["normloss"], b"-0.5,-1.0\n\xff\n", NOT_UTF8.format(10)),
    (["normloss"], OVER_LIMIT,
     "error: line 1: input is not valid CSV: field larger than field limit (131072)\n"),
    (FSQ, b"[0.5,\r\n-1.2]\r\n", None),
    (FSQ, b"[0.5,\r-1.2]\r", None),
    (FSQ, b"\xef\xbb\xbf[0.5, -1.2]", BOM),
    (FSQ, b"[0.5, \xff]", NOT_UTF8.format(6)),
], ids=["normloss CRLF", "normloss lone CR", "normloss BOM", "normloss not UTF-8",
        "normloss field over limit", "fsq CRLF", "fsq lone CR", "fsq BOM", "fsq not UTF-8"])
def test_text_input_reads_alike_from_a_file_and_stdin(invoke, tmp_path, argv, data, error):
    """fsq and normloss take their bytes as a run log is taken: alike from --in and stdin. Rows
    that end in "\r\n" or "\r" read as rows that end in "\n"."""
    path = tmp_path / "input"
    path.write_bytes(data)
    from_file = invoke([*argv, "--in", str(path)])
    assert from_file == invoke(argv, stdin=data)
    if error is None:
        assert from_file == invoke(argv, stdin=data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        assert from_file[0] == 0
    else:
        assert from_file == (1, "", error)


def test_frontier_json_and_csv(invoke, tmp_path):
    second = json.dumps({**json.loads(RUN_LINE), "run_id": "r2", "flops": 2e16})
    csv_path = tmp_path / "frontier.csv"
    code, out, _ = invoke(
        ["frontier", "--bin-width", "1.0", "--csv", str(csv_path)],
        stdin=RUN_LINE + "\n" + second + "\n",
    )
    assert code == 0
    doc = json.loads(out)
    assert [p["run_id"] for p in doc] == ["r1", "r2"]
    assert doc[0]["flops_bucket_log10"] == 15.0
    assert list(doc[0]) == [
        "flops_bucket_log10", "run_id", "flops", "n_nv", "n_v", "d_tokens", "loss",
    ]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "flops,n_nv,n_v,d_tokens,loss"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 1e15


SWEEP_SHA256 = {  # the 50k-run sweep of the benchmark, each output written with --out
    "synth.jsonl": "216a8bd06cd05cebd58afb7de9b952ab5b4551fdf15afed817acf7b6f08856da",
    "ingest.jsonl": "216a8bd06cd05cebd58afb7de9b952ab5b4551fdf15afed817acf7b6f08856da",
    "frontier.json": "9d9cc8022a786b76495384cea20cdc40d45b74f255b5a522000fc331b7babc46",
    "frontier.csv": "a84d9fb4bed2650bdc578b66255d02716c2f2b506040fdd346256cdc7a244adf",
    "fit.json": "e39af40cb379f63767acd39224fad2aca6c60cdfc65c9907163d2d653f0e825e",
    "plan.json": "d1e0888218c56f6211df579e2ef6c1d63337c6c4793ea0ab7b3fff580c848a4f",
}


def test_the_50k_run_sweep_keeps_its_bytes(invoke, tmp_path):
    out = {name: tmp_path / name for name in SWEEP_SHA256}
    log = str(out["synth.jsonl"])
    for argv in (
        ["synth", "--grid-min", "14.1", "--grid-max", "18.1", "--grid-points", "100",
         "--runs-per-budget", "500", "--noise", "0.05", "--seed", "1", "--out", log],
        ["ingest", "--runs", log, "--out", str(out["ingest.jsonl"])],
        ["frontier", "--runs", log, "--bin-width", "0.1", "--out", str(out["frontier.json"]),
         "--csv", str(out["frontier.csv"])],
        ["fit", "--runs", log, "--bin-width", "0.1", "--out", str(out["fit.json"])],
        ["plan", "--fits", str(out["fit.json"]), "--flops", "1e18", "--d-model", "3200",
         "--out", str(out["plan.json"])],
    ):
        assert invoke(argv) == (0, "", "")
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert digests == SWEEP_SHA256


@pytest.mark.parametrize("csv", ["P", "./P"])
def test_frontier_csv_and_out_on_one_path_is_refused(invoke, tmp_path, monkeypatch, csv):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(["frontier", "--csv", csv, "--out", "P"], stdin=RUN_LINE + "\n")
    assert (code, out) == (1, "")
    assert err == "error: --csv and --out name the same file 'P'\n"
    assert list(tmp_path.iterdir()) == []


def test_frontier_bin_width_too_small_for_the_flops_is_one_error_line(invoke):
    code, out, err = invoke(["frontier", "--bin-width", "1e-310"], stdin=RUN_LINE + "\n")
    assert (code, out) == (1, "")
    assert err == ("error: bin_width_log10 1e-310 is too small: "
                   "log10(flops) / bin_width_log10 overflows\n")


DEEP_JSON = "[" * 5000 + "1" + "]" * 5000


@pytest.mark.parametrize("argv", [
    ["ingest", "--runs", "deep.json"],
    ["fsq", "quantize", "--preset", "2^10", "--in", "deep.json"],
    ["plan", "--flops", "1e18", "--fits", "deep.json", "--d-model", "3200"],
    ["synth", "--laws", "deep.json"],
], ids=["ingest", "fsq", "plan", "synth"])
def test_json_nested_too_deep_is_one_error_line(invoke, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(DEEP_JSON + "\n")
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "maximum recursion depth exceeded" in err
    if argv[0] == "ingest":
        assert err.startswith("error: invalid run log: line 1: ")


def test_fit_json_parses_as_scaling_fits(invoke):
    lines = []
    for i, x in enumerate([14.0, 15.0, 16.0, 17.0]):
        record = json.loads(RUN_LINE)
        record["run_id"] = f"r{i}"
        record["flops"] = 10.0**x
        record["tokens_trained"] = int(10 ** (-0.05) * (10.0**x) ** 0.43)
        record["normalized_loss"] = -1.062 * x + 13.839
        lines.append(json.dumps(record))
    code, out, _ = invoke(["fit", "--bin-width", "0.5"], stdin="\n".join(lines))
    assert code == 0
    fits = ScalingFits.from_json_dict(json.loads(out))
    assert fits.loss_vs_c.slope == pytest.approx(-1.062, abs=1e-12)
    assert fits.d_vs_c.exponent == pytest.approx(0.43, abs=1e-4)


def test_fit_needs_two_buckets(invoke, tmp_path):
    out_path = tmp_path / "fits.json"
    code, _, err = invoke(
        ["fit", "--out", str(out_path)], stdin=RUN_LINE + "\n"
    )
    assert code == 1 and "at least 2" in err
    assert not out_path.exists()  # nothing written on failure


PLAN_ARGV = ["plan", "--flops", "1e18", "--fits", "scamo-paper", "--d-model", "3200"]


@pytest.mark.parametrize(
    "argv, out",
    [
        (PLAN_ARGV, "missing/x.json"),
        (["frontier", "--csv", "ok.csv"], "missing/x.json"),
        (["frontier", "--csv", "ok.csv"], "existing-dir"),
    ],
    ids=["plan-missing-dir", "frontier-missing-dir", "frontier-out-is-dir"],
)
def test_failed_write_is_one_error_line_and_no_file(invoke, tmp_path, monkeypatch, argv, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing-dir").mkdir()
    code, stdout, err = invoke([*argv, "--out", out], stdin=RUN_LINE + "\n")
    assert code == 1 and stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and out in err
    assert [p.name for p in tmp_path.iterdir()] == ["existing-dir"]
    assert list((tmp_path / "existing-dir").iterdir()) == []


FLOPS_ARGV = ["flops", "--layers", "8", "--heads", "8", "--d-model", "512", "--ctx", "1024",
              "--vocab", "65536"]


class CountedStdout(io.StringIO):
    """A stdout that keeps each write and, after `room` of them, fails as a full disk does, or
    with another errno: EPIPE fails as a pipe whose reader has closed."""

    def __init__(self, room=math.inf, error=errno.ENOSPC):
        super().__init__()
        self.room, self.error, self.writes = room, error, []

    def write(self, text):
        if len(self.writes) >= self.room:
            raise OSError(self.error, os.strerror(self.error))
        self.writes.append(text)
        return super().write(text)


@pytest.fixture
def three_chunk_log(tmp_path):
    """A valid log of 2 * _CHUNK_ROWS + 1 runs: two whole chunks and one row."""
    log = tmp_path / "runs.jsonl"
    runs = str(2 * _CHUNK_ROWS + 1)
    assert run(["synth", "--grid-points", "1", "--runs-per-budget", runs, "--out", str(log)]) == 0
    return log


def test_stdout_takes_a_document_whole_and_a_run_log_a_chunk_at_a_time(
        invoke, monkeypatch, three_chunk_log):
    ingest = ["ingest", "--runs", str(three_chunk_log)]
    # one write for the document, one for each chunk of the run log
    for argv, lines in ((FLOPS_ARGV, [9]), (ingest, [_CHUNK_ROWS, _CHUNK_ROWS, 1])):
        monkeypatch.setattr(sys, "stdout", stdout := CountedStdout())
        assert invoke(argv) == (0, "", "")
        assert [chunk.count("\n") for chunk in stdout.writes] == lines
    assert stdout.getvalue() == three_chunk_log.read_text()


@pytest.mark.parametrize("command, room", [("flops", 0), ("ingest", 0), ("ingest", 1)])
def test_a_failing_stdout_is_one_error_line(invoke, monkeypatch, three_chunk_log, command, room):
    argv = FLOPS_ARGV if command == "flops" else ["ingest", "--runs", str(three_chunk_log)]
    monkeypatch.setattr(sys, "stdout", stdout := CountedStdout(room))
    code, _, err = invoke(argv)
    assert (code, err) == (1, "error: [Errno 28] No space left on device\n")
    # stdout holds the chunks it took before it failed, and nothing else
    lines = three_chunk_log.read_text().splitlines(True)
    assert stdout.getvalue() == "".join(lines[:_CHUNK_ROWS * room])


def test_a_closed_stdout_pipe_ends_quietly(invoke, monkeypatch, three_chunk_log, tmp_path):
    argv = ["ingest", "--runs", str(three_chunk_log)]
    monkeypatch.setattr(sys, "stdout", stdout := CountedStdout(1, errno.EPIPE))
    assert invoke(argv) == (1, "", "")
    assert sys.stdout is stdout  # in memory: no descriptor to divert
    # on a descriptor, what is left to flush at exit goes to /dev/null through it
    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr(sys, "stdout", stdout := CountedStdout(1, errno.EPIPE))
        stdout.fileno = fh.fileno
        assert invoke(argv) == (1, "", "")
        assert sys.stdout is stdout
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))


def test_a_reader_that_stops_early_gets_no_error_line():
    for warnings_env in ({}, {"PYTHONWARNINGS": "error"}):  # error: no file is left unclosed
        proc = subprocess.Popen(
            [sys.executable, "-m", "scamo_lab", "synth", "--grid-points", "100",
             "--runs-per-budget", "500"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, **warnings_env})
        with proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert (proc.wait(timeout=120), proc.stderr.read()) == (1, b""), warnings_env


@pytest.mark.parametrize("out", [None, "out.jsonl"])
def test_a_bad_last_line_writes_no_byte(invoke, monkeypatch, three_chunk_log, out):
    monkeypatch.chdir(three_chunk_log.parent)
    with three_chunk_log.open("a") as fh:
        fh.write('{"run_id": "last"}\n')
    code, stdout, err = invoke(["ingest", "--runs", "runs.jsonl", *(["--out", out] if out else [])])
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"line {2 * _CHUNK_ROWS + 2}" in err
    assert [p.name for p in three_chunk_log.parent.iterdir()] == ["runs.jsonl"]


def test_flops_out_writes_its_output(invoke, tmp_path):
    _, stdout, _ = invoke(FLOPS_ARGV)
    code, out, _ = invoke([*FLOPS_ARGV, "--out", str(tmp_path / "f.json")])
    assert code == 0 and out == ""
    assert (tmp_path / "f.json").read_text() == stdout


@pytest.mark.parametrize("old", ["old bytes\n", None], ids=["target exists", "dangling link"])
def test_out_through_a_symlink_replaces_its_target_and_keeps_the_link(invoke, tmp_path, old):
    _, stdout, _ = invoke(PLAN_ARGV)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    if old is not None:
        target.write_text(old)
    link.symlink_to(target)
    assert invoke([*PLAN_ARGV, "--out", str(link)]) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_out_through_a_symlink_loop_is_one_error_line(invoke, tmp_path):
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    code, out, err = invoke([*PLAN_ARGV, "--out", str(loop)])
    assert (code, out) == (1, "")
    assert err == f"error: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: '{loop}'\n"
    assert loop.is_symlink() and [p.name for p in tmp_path.iterdir()] == ["loop"]


def test_out_to_a_fifo_writes_into_it(invoke, tmp_path):
    _, stdout, _ = invoke(PLAN_ARGV)
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert invoke([*PLAN_ARGV, "--out", str(fifo)]) == (0, "", "")
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [stdout] and stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_plan_preset_reference(invoke):
    code, out, _ = invoke(
        ["plan", "--flops", "1e18", "--fits", "scamo-paper", "--d-model", "3200"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted_loss"] == pytest.approx(-5.277, abs=0.001)
    assert doc["vocab_size"] == 50682
    assert doc["vocab_pow2"] == 65536
    assert math.log10(doc["n_nv"]) == pytest.approx(9.74, abs=0.01)
    assert math.log10(doc["d_tokens"]) == pytest.approx(7.69, abs=0.01)
    assert doc["constraint_residual_log10"] == pytest.approx(0.221, abs=0.005)
    comparison = doc["reference_comparison"]
    assert comparison["agrees"] is True
    assert comparison["within_tolerance"] == {
        "n_nv": True, "vocab_size": True, "d_tokens": True,
    }


def test_plan_rescale_flag(invoke):
    code, out, _ = invoke(
        ["plan", "--flops", "1e18", "--fits", "scamo-paper", "--d-model", "3200",
         "--rescale-d"]
    )
    assert code == 0
    assert abs(json.loads(out)["constraint_residual_log10"]) < 1e-12


def test_plan_from_fits_file(invoke, tmp_path):
    fits_path = tmp_path / "fits.json"
    fits_path.write_text(dumps(FITS_PRESETS["scamo-paper"].to_json_dict()) + "\n")
    code, out, _ = invoke(
        ["plan", "--flops", "1e18", "--fits", str(fits_path), "--d-model", "3200"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vocab_pow2"] == 65536
    assert "reference_comparison" not in doc  # only presets carry a reference


def test_plan_names_a_law_value_that_underflows(invoke, tmp_path):
    doc = FITS_PRESETS["scamo-paper"].to_json_dict()
    doc["d_vs_c"] = {**doc["d_vs_c"], "log10_coef": -400}
    fits_path = tmp_path / "fits.json"
    fits_path.write_text(json.dumps(doc))
    code, out, err = invoke(["plan", "--flops", "1e18", "--fits", str(fits_path), "--d-model", "8"])
    assert (code, out) == (1, "")
    assert err == "error: d_tokens must be positive and finite, got 0.0\n"


def test_plan_names_a_compute_ratio_that_underflows(invoke, tmp_path):
    # every law value is positive and finite, but 6 (n_nv + n_v) d_tokens / c is below 5e-324
    doc = FITS_PRESETS["scamo-paper"].to_json_dict()
    for law, coef in (("nv_vs_c", -30), ("nnv_vs_c", -30), ("d_vs_c", -300)):
        doc[law] = {**doc[law], "log10_coef": coef}
    fits_path = tmp_path / "fits.json"
    fits_path.write_text(json.dumps(doc))
    code, out, err = invoke(["plan", "--flops", "1e18", "--fits", str(fits_path), "--d-model", "8"])
    assert (code, out) == (1, "")
    assert err == "error: 6 (n_nv + n_v) d_tokens / c_flops must be positive and finite, got 0.0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--grid-min", "-1e1", "--grid-max", "3"],
        ["plan", "--flops", "-1e5", "--fits", "scamo-paper", "--d-model", "8"],
        ["plan", "--flops", "-.5E+3", "--fits", "scamo-paper", "--d-model", "8"],
    ],
)
def test_negative_exponent_value_parses_like_the_equals_form(invoke, argv):
    joined = argv[:1] + [f"{argv[1]}={argv[2]}"] + argv[3:]
    first = invoke(argv)
    assert first[0] == 1 and first[2].startswith("error: ")
    assert first == invoke(joined)


def test_plan_unknown_fits(invoke):
    code, _, err = invoke(
        ["plan", "--flops", "1e18", "--fits", "no-such-preset", "--d-model", "3200"]
    )
    assert code == 1 and "neither a fits preset" in err


@pytest.mark.parametrize("bad", [[1], "1", True])
@pytest.mark.parametrize("command", ["plan", "synth"])
def test_bad_fits_coefficient_is_one_error_line(invoke, tmp_path, command, bad):
    doc = FITS_PRESETS["scamo-paper"].to_json_dict()
    doc["nv_vs_c"] = {**doc["nv_vs_c"], "log10_coef": bad}
    fits_path = tmp_path / "fits.json"
    fits_path.write_text(json.dumps(doc))
    argv = {
        "plan": ["plan", "--flops", "1e18", "--fits", str(fits_path), "--d-model", "3200"],
        "synth": ["synth", "--laws", str(fits_path)],
    }[command]
    code, out, err = invoke(argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: nv_vs_c.log10_coef must be a number, got {bad!r}"]


FITS_TEXT = dumps(FITS_PRESETS["scamo-paper"].to_json_dict())
LATIN_1_KEY = ('{"caf\xe9": 1, ' + FITS_TEXT[1:]).encode("latin-1")  # not UTF-8


@pytest.mark.parametrize("data, error", [
    (('{"junk": 1, ' + FITS_TEXT[1:]).encode(), "fits document has unexpected key(s): junk"),
    (codecs.BOM_UTF8 + FITS_TEXT.encode(), "input starts with a UTF-8 byte order mark"),
    (LATIN_1_KEY, f"'utf-8' codec can't decode byte 0xe9 in position {LATIN_1_KEY.index(0xE9)}: "
                  "invalid continuation byte"),
], ids=["unexpected key", "BOM", "not UTF-8"])
@pytest.mark.parametrize("argv", [
    ["plan", "--flops", "1e18", "--d-model", "3200", "--fits"],
    ["synth", "--laws"],
], ids=["plan", "synth"])
def test_bad_fits_file_is_one_error_line_and_no_file(invoke, tmp_path, argv, data, error):
    (tmp_path / "fits.json").write_bytes(data)
    code, out, err = invoke([*argv, str(tmp_path / "fits.json"), "--out", str(tmp_path / "o")])
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {error}"]
    assert [p.name for p in tmp_path.iterdir()] == ["fits.json"]


@pytest.mark.parametrize("command", ["plan", "synth"])
def test_law_past_float_range_is_one_error_line(invoke, tmp_path, command):
    doc = FITS_PRESETS["scamo-paper"].to_json_dict()
    doc["nv_vs_c"] = {**doc["nv_vs_c"], "log10_coef": 400.0}  # 10**400 overflows a float
    fits_path = tmp_path / "fits.json"
    fits_path.write_text(json.dumps(doc))
    argv = {
        "plan": ["plan", "--flops", "1e18", "--fits", str(fits_path), "--d-model", "3200"],
        "synth": ["synth", "--laws", str(fits_path)],
    }[command]
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err == "error: n_v must be non-negative and finite, got inf\n"


def test_fit_rejects_run_past_float_range(invoke):
    record = {**json.loads(RUN_LINE), "n_layers": int("9" * 330)}
    code, out, err = invoke(["fit", "--bin-width", "0.5"], stdin=json.dumps(record))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: invalid run log: line 1: n_layers must be an integer in [1, {2**63 - 1}], "
        f"got {record['n_layers']}"
    ]


def test_fit_of_losses_past_float_range_is_one_error_line(invoke):
    """Squares past float range in the least-squares fit warn nothing: r2's check words it."""
    runs = [json.dumps({**json.loads(RUN_LINE), "run_id": f"r{i}", "flops": flops,
                        "normalized_loss": loss})
            for i, (flops, loss) in enumerate([(1e15, 1e308), (1e17, -1e308), (1e19, 1e308)])]
    assert invoke(["fit", "--bin-width", "1"], stdin="\n".join(runs) + "\n") == (
        1, "", "error: r2 must be finite, got nan\n")


def test_synth_output_loads(invoke):
    code, out, _ = invoke(
        ["synth", "--grid-min", "15.0", "--grid-max", "16.0", "--grid-points", "3",
         "--runs-per-budget", "2", "--seed", "7"]
    )
    assert code == 0
    runs = load_runs(out)
    assert len(runs) == 6
    assert runs[0].run_id == "synth-000-00"


def test_synth_seed_resolution(invoke, monkeypatch):
    argv = ["synth", "--grid-min", "15.0", "--grid-max", "16.0", "--grid-points", "2",
            "--noise", "0.05"]
    _, default_out, _ = invoke(argv)
    _, flag_out, _ = invoke(argv + ["--seed", "42"])
    assert flag_out == default_out  # 42 is the default seed
    _, other_out, _ = invoke(argv + ["--seed", "43"])
    assert other_out != default_out
    assert invoke(argv + ["--seed", "-5"]) == (
        1, "", "error: seed must be a non-negative integer, got -5\n")
    monkeypatch.setenv("SCAMO_LAB_SEED", "43")  # no environment variable moves the default
    assert invoke(argv) == (0, default_out, "")


def test_synth_to_fit_pipe_noiseless(invoke):
    code, runs_out, _ = invoke(
        ["synth", "--grid-min", "21.1", "--grid-max", "24.1", "--grid-points", "4",
         "--runs-per-budget", "1", "--noise", "0", "--seed", "42"]
    )
    assert code == 0
    code, fit_out, _ = invoke(["fit", "--bin-width", "0.5"], stdin=runs_out)
    assert code == 0
    fits = ScalingFits.from_json_dict(json.loads(fit_out))
    assert fits.nnv_vs_c.exponent == pytest.approx(0.57, abs=1e-9)
    assert fits.loss_vs_c.slope == pytest.approx(-1.062, abs=1e-9)


def test_synth_noise_overflow_is_one_error_line(invoke):
    code, out, err = invoke(["synth", "--noise", "400", "--grid-points", "1",
                             "--runs-per-budget", "1", "--seed", "16"])
    assert (code, out) == (1, "")
    assert err == "error: d_tokens must be non-negative and finite, got inf\n"


def test_synth_budget_overflow_is_one_error_line(invoke):
    """A budget past float range is named by its grid value."""
    for low, high, value in [("400", "401", "inf"), ("309", "310", "inf"), ("-400", "-399", "0.0")]:
        code, out, err = invoke(["synth", f"--grid-min={low}", f"--grid-max={high}",
                                 "--grid-points", "2"])
        assert (code, out) == (1, "")
        assert err == f"error: budget 10**{low}.0 must be positive and finite, got {value}\n"


def test_synth_of_a_law_below_one_vocab_entry_is_one_error_line(invoke, tmp_path):
    """An n_v law under 0.5 was written as vocab_size 1 on every run, and fit then read n_v as
    a constant 1 (exponent 0, r2 1); now the first budget's n_v is refused."""
    laws = FITS_PRESETS["scamo-paper"].to_json_dict()
    laws["nv_vs_c"]["log10_coef"] = -16
    (tmp_path / "laws.json").write_text(json.dumps(laws))
    code, out, err = invoke(["synth", "--laws", str(tmp_path / "laws.json"), "--grid-points", "9"])
    assert (code, out) == (1, "")
    assert err == ("error: n_v 3.7583740428844396e-06 at budget 10**14.1 is more than 20% from "
                   "every positive integer\n")



def test_outputs_end_with_newline(invoke):
    for argv, stdin in [
        (["flops", "--layers", "1", "--heads", "1", "--d-model", "1",
          "--ctx", "1", "--vocab", "1"], None),
        (["fsq", "encode", "--levels", "5,3"], "[1, 1]"),
        (["plan", "--flops", "1e16", "--fits", "scamo-paper", "--d-model", "64"], None),
        (["ingest"], RUN_LINE),
    ]:
        code, out, _ = invoke(argv, stdin=stdin)
        assert code == 0 and out.endswith("\n") and not out.endswith("\n\n")


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "scamo_lab", "flops", "--layers", "8", "--heads", "8",
         "--d-model", "512", "--ctx", "1024", "--vocab", "65536"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 125831168


def test_run_twice_is_byte_identical(invoke):
    argv = ["synth", "--grid-min", "14.1", "--grid-max", "16.1", "--grid-points", "5",
            "--noise", "0.05", "--seed", "42"]
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second
