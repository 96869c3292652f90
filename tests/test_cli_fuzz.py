"""CLI fuzz: every subcommand, in-process, on generated argv, stdin and input files.

Whatever the input, a run exits 0, 1 or 2, never prints a traceback, and on
exit 1 prints exactly one `error: ` line. It raises no warning, leaves no temp
file behind, and a failed run leaves no --out or --csv file.
"""

import contextlib
import io
import json
import sys
import tempfile
import types
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scamo_lab import FITS_PRESETS, LEVEL_PRESETS, RUN_FIELDS
from scamo_lab.cli import run

REALS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "0.25", "14.1", "18.1", "400", "-400", "1e18",
                     "1e300", "1e-300", "1e-320", "nan", "inf", "-inf", "x", ""]),
    st.floats().map(repr),
)
SMALL_INTS = st.sampled_from(["-1", "0", "1", "2", "3", "5", "1.5", "x"])  # grid and run counts
INTS = st.one_of(SMALL_INTS, st.sampled_from(["7", "8", "64", str(2**40), str(10**30)]))
JSON_VALUES = st.one_of(
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from([10**20, 10**200, 10**400, True, None, "x", "", [], {}, 1e308, 1e-320]),
)
GOOD_RUN = {"run_id": "r", "n_layers": 2, "n_heads": 2, "d_model": 8, "n_ctx": 16,
            "vocab_size": 32, "tokens_trained": 1000, "flops": 1e15, "normalized_loss": 0.5}


def mostly(draw, usual, odd, one_in=10):
    """A draw from odd one time in one_in, else from usual, so that most inputs get deep."""
    return draw(odd) if draw(st.integers(1, one_in)) == 1 else draw(usual)


@st.composite
def run_log(draw) -> str:
    """Up to 20 JSONL lines at varied compute; a few are mutated records or junk."""
    lines = []
    for i in range(draw(st.integers(0, 20))):
        record = {**GOOD_RUN, "run_id": f"r{i}", "flops": draw(st.floats(1e10, 1e20)),
                  "normalized_loss": draw(st.floats(-2, 2))}
        if draw(st.integers(0, 19)) == 0:
            record.update(draw(st.dictionaries(st.sampled_from([*RUN_FIELDS, "extra"]),
                                               JSON_VALUES, min_size=1, max_size=2)))
            for name in draw(st.sets(st.sampled_from(RUN_FIELDS), max_size=1)):
                del record[name]
        line = json.dumps(record)
        lines.append(mostly(draw, st.just(line), st.sampled_from(["", "[]", "{", "1e999"])))
    return "\n".join(lines) + "\n"


@st.composite
def fits_doc(draw) -> str:
    """The paper preset's fits JSON with up to two coefficients or laws replaced."""
    doc = FITS_PRESETS["scamo-paper"].to_json_dict()
    for _ in range(draw(st.integers(0, 2))):
        law = draw(st.sampled_from(sorted(doc)))
        key = draw(st.sampled_from(sorted(doc[law])))
        value = draw(st.one_of(JSON_VALUES, st.sampled_from([2.0, 5.0, 400.0, -400.0, 1e300])))
        doc[law] = {**doc[law], key: value}
    if draw(st.integers(0, 9)) == 0:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return json.dumps(doc)


@st.composite
def csv_text(draw, cell, n_cols) -> str:
    """Up to 20 rows of n_cols cells, each ended by "\n", "\r\n" or "\r"; now and then a row is
    cut short or a cell is odd."""
    rows = []
    for _ in range(draw(st.integers(0, 20))):
        row = [mostly(draw, cell, REALS) for _ in range(n_cols)]
        rows.append(",".join(mostly(draw, st.just(row), st.just(row[1:]))))
        rows.append(draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(rows)


@st.composite
def json_array(draw, cell, width) -> str:
    """Up to 5 rows of width cells (a flat list when width is None), or any nested JSON."""
    def row():
        return [mostly(draw, cell, JSON_VALUES) for _ in range(width or 1)]
    rows = [row() if width else row()[0] for _ in range(draw(st.integers(0, 5)))]
    odd = st.recursive(JSON_VALUES, lambda inner: st.lists(inner, max_size=5), max_leaves=20)
    return json.dumps(mostly(draw, st.just(rows), odd))


@st.composite
def invocation(draw, command: str):
    """(argv, stdin, files): argv names files by key, resolved under a temp dir."""
    files: dict[str, str] = {}
    stdin = ""

    def opt(flag: str, values) -> list[str]:
        """flag=value (so "-inf" stays a value), but now and then a required flag is left out."""
        return mostly(draw, st.just([f"{flag}={draw(values)}"]), st.just([]), one_in=20)

    def input_text(name: str, text) -> list[str]:
        nonlocal stdin
        body = draw(text)
        if draw(st.booleans()):
            stdin = body
            return []
        files[name] = body
        return [{"infile": "--in"}.get(name, f"--{name}"), "{" + name + "}"]

    if command == "flops":
        argv = ["flops"]
        for flag in ("--layers", "--heads", "--d-model", "--ctx", "--vocab", "--ff-ratio"):
            argv += opt(flag, st.just(mostly(draw, st.sampled_from(["1", "2", "4", "8"]), INTS)))
    elif command == "fsq":
        action = draw(st.sampled_from(["quantize", "dequantize", "encode", "decode"]))
        if draw(st.booleans()):
            preset = mostly(draw, st.sampled_from(list(LEVEL_PRESETS)), st.just("2^99"))
            argv = ["fsq", action, "--preset", preset]
            dim = LEVEL_PRESETS[preset].dimension if preset in LEVEL_PRESETS else 1
        else:
            levels = mostly(draw, st.sampled_from(["8,5,5,5", "5,3", "2"]),
                            st.sampled_from(["1", "8,x", ""]))
            argv, dim = ["fsq", action, "--levels", levels], levels.count(",") + 1
        cell = {"quantize": st.floats(-3, 3), "decode": st.integers(0, 1000)}
        array = json_array(cell.get(action, st.integers(0, 8)), None if action == "decode" else dim)
        argv += input_text("infile", array)
    elif command == "vq":
        matrix = csv_text(st.floats(-3, 3).map(repr), draw(st.integers(1, 3)))
        files["latents"], files["codebook"] = draw(matrix), draw(matrix)
        argv = ["vq", "--latents", "{latents}", "--codebook", "{codebook}"]
    elif command == "normloss":
        header = mostly(draw, st.just(""), st.just("model_logp,baseline_logp\n"))
        log_probs = st.builds(header.__add__, csv_text(st.floats(-5, 0).map(repr), 2))
        argv = ["normloss"] + input_text("infile", log_probs)
    elif command in ("ingest", "frontier", "fit"):
        argv = [command] + input_text("runs", run_log())
        if command != "ingest" and draw(st.booleans()):
            argv += opt("--bin-width", st.just(mostly(draw, st.sampled_from(["0.1", "2"]), REALS)))
        if command == "frontier" and draw(st.booleans()):
            argv += ["--csv", "{csv_out}"]
    elif command == "plan":
        argv = ["plan", *opt("--flops", st.one_of(st.floats(1e10, 1e25).map(repr), REALS)),
                *opt("--d-model", INTS)]
        if draw(st.booleans()):
            files["fits"] = draw(fits_doc())
            argv += ["--fits", "{fits}"]
        else:
            argv += ["--fits", "scamo-paper"]
        if draw(st.booleans()):
            argv.append("--rescale-d")
    else:
        argv = ["synth"]
        if draw(st.booleans()):
            files["laws"] = draw(fits_doc())
            argv += ["--laws", "{laws}"]
        grid = st.one_of(st.floats(10, 20).map(repr), REALS)
        for flag, values in (("--grid-min", grid), ("--grid-max", grid), ("--noise", REALS),
                             ("--grid-points", SMALL_INTS), ("--runs-per-budget", SMALL_INTS),
                             ("--seed", INTS)):
            argv += opt(flag, values) if draw(st.booleans()) else []
    if draw(st.booleans()):
        argv += ["--out", "{out}"]
    return argv, stdin, files


COMMANDS = ["flops", "fsq", "vq", "normloss", "ingest", "frontier", "fit", "plan", "synth"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz(tmp_path, command, data):
    argv, stdin, files = data.draw(invocation(command))
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        paths = {name: str(Path(work) / f"{name}.txt") for name in [*files, "out", "csv_out"]}
        for name, text in files.items():
            Path(paths[name]).write_bytes(text.encode())
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        # a binary buffer alone, so that a text-mode read of stdin fails here
        saved_stdin, sys.stdin = sys.stdin, types.SimpleNamespace(buffer=io.BytesIO(stdin.encode()))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(argv)
        finally:
            sys.stdin = saved_stdin
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert "Traceback" not in err
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        if code == 0:
            assert err == "", (argv, err)
        left = {p.name for p in Path(work).iterdir()}
        assert not [name for name in left if name.endswith(".tmp")], (argv, left)
        if code != 0:
            assert not {"out.txt", "csv_out.txt"} & left, (argv, left)
