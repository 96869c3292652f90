"""CLI surface: subcommands, exit codes, deterministic output."""

import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from scamo_lab import FITS_PRESETS, ScalingFits, load_runs
from scamo_lab.cli import dumps, dumps_line, run

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
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
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


@pytest.mark.parametrize("action", ["quantize", "dequantize", "encode", "decode"])
def test_fsq_non_numbers_are_one_error_line(invoke, action):
    code, out, err = invoke(["fsq", action, "--levels", "8,5"], stdin="[{}]")
    want = "latents must be real numbers" if action == "quantize" else "must be integers"
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and want in err


@pytest.mark.parametrize("latents", ["[true, false]", '["0.4", "-1.2"]'])
def test_fsq_quantize_refuses_bools_and_strings(invoke, latents):
    code, out, err = invoke(["fsq", "quantize", "--levels", "8,5"], stdin=latents)
    assert (code, out, err) == (1, "", "error: latents must be real numbers\n")


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
    assert code == 1 and "row 1" in err


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


def test_flops_out_writes_its_output(invoke, tmp_path):
    argv = ["flops", "--layers", "8", "--heads", "8", "--d-model", "512", "--ctx", "1024",
            "--vocab", "65536"]
    _, stdout, _ = invoke(argv)
    code, out, _ = invoke([*argv, "--out", str(tmp_path / "f.json")])
    assert code == 0 and out == ""
    assert (tmp_path / "f.json").read_text() == stdout


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
    monkeypatch.delenv("SCAMO_LAB_SEED", raising=False)
    _, default_out, _ = invoke(argv)
    monkeypatch.setenv("SCAMO_LAB_SEED", "42")
    _, env42_out, _ = invoke(argv)
    assert env42_out == default_out  # 42 is the default seed
    monkeypatch.setenv("SCAMO_LAB_SEED", "43")
    _, env43_out, _ = invoke(argv)
    assert env43_out != default_out
    _, flag_out, _ = invoke(argv + ["--seed", "42"])
    assert flag_out == default_out  # --seed wins over the env var
    monkeypatch.setenv("SCAMO_LAB_SEED", "not-a-number")
    code, _, err = invoke(argv)
    assert code == 1 and "SCAMO_LAB_SEED" in err


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
    code, out, err = invoke(["synth", "--grid-min", "400", "--grid-max", "401",
                             "--grid-points", "2"])
    assert (code, out) == (1, "")
    assert err == "error: x must be positive and finite, got inf\n"


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
