"""Command-line interface.

Every subcommand finishes every check before it writes the first byte, then
writes its output in chunks (a run log 1024 rows at a time), each file through
a temp file beside it, so a failure never leaves a file behind; stdout is
partial only when stdout itself fails. Results go to stdout as JSON (or JSONL
for record streams) unless --out is given; diagnostics go to stderr.
Output is deterministic: fixed key order, floats at 17 significant digits.

Exit codes: 0 success, 1 invalid input or data (quietly for a closed stdout pipe), 2 usage errors.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import sys
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

# what every run-log handler needs; each handler imports the rest of what it runs, so that a
# command loads only its own modules
from .core import RUN_FIELDS, _CHUNK_ROWS, _REAL_FIELDS, RunTable, load_runs

__all__ = ["run", "main", "dumps", "dumps_line"]

# what argparse reads as a negative number, not an option: -5 and -0.5 as it does, and also
# -1e5, so that `--flops -1e5` parses as `--flops=-1e5` does
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
_FLOAT = ".17g"  # every float's format: _fmt_float's and the run-log writer's


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(float(x), _FLOAT)


def _json(obj, indent: int | None, depth: int = 0) -> str:
    """obj as JSON text, nested depth levels deep; on one line when indent is None."""
    if isinstance(obj, float):  # numpy's float64 too
        return _fmt_float(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{json.dumps(str(k))}: {_json(v, indent, depth + 1)}" for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [_json(v, indent, depth + 1) for v in obj]
    elif isinstance(obj, (np.ndarray, np.generic)) and not isinstance(
            plain := obj.tolist(), np.generic):  # a longdouble stays one under tolist
        return _json(plain, indent, depth)
    elif obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items or indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "\n" + " " * (indent * (depth + 1))
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{' ' * (indent * depth)}{brackets[1]}"


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant digits."""
    return _json(obj, indent)


def dumps_line(obj) -> str:
    """Single-line deterministic JSON for JSONL streams."""
    return _json(obj, None)


# ---------------------------------------------------------------------------
# shared input helpers


def _read(path: str | None, parse):
    """parse of the binary stream of the file at path, or of stdin for no path or "-"."""
    if path is None or path == "-":
        return parse(sys.stdin.buffer)
    with open(path, "rb") as fh:
        return parse(fh)


def _text(stream) -> str:
    """The stream's bytes as strict UTF-8, without a leading byte order mark."""
    if (data := stream.read()).startswith(codecs.BOM_UTF8):
        raise ValueError("input starts with a UTF-8 byte order mark")
    return data.decode("utf-8")


def _parse_levels(args) -> FsqLevels:
    from .fsq import LEVEL_PRESETS, FsqLevels

    if args.preset is not None:
        if args.preset not in LEVEL_PRESETS:
            known = ", ".join(LEVEL_PRESETS)
            raise ValueError(f"unknown level preset {args.preset!r} (known: {known})")
        return LEVEL_PRESETS[args.preset]
    try:
        parts = tuple(int(p) for p in args.levels.split(","))
    except ValueError:
        raise ValueError(f"--levels must be comma-separated integers, got {args.levels!r}")
    return FsqLevels(parts)


def _resolve_fits(spec: str) -> ScalingFits:
    from .planner import FITS_PRESETS
    from .scaling import ScalingFits

    if spec in FITS_PRESETS:
        return FITS_PRESETS[spec]
    if not os.path.exists(spec):
        known = ", ".join(FITS_PRESETS)
        raise ValueError(f"{spec!r} is neither a fits preset ({known}) nor a file")
    with open(spec, "rb") as fh:
        return ScalingFits.from_json_dict(json.loads(_text(fh)))


def _load_csv_matrix(path: str, name: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data: reported as empty below
            matrix = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise ValueError(f"could not read {name} CSV {path!r}: {exc}")
    if matrix.size == 0:
        raise ValueError(f"{name} CSV {path!r} is empty")
    return matrix


# a table's float columns are always finite, as RunRecord, load_runs and synth_runs (the makers
# of its columns) check every value
_RUN_LINE = "{" + ", ".join(
    f'"{name}": %{_FLOAT if name in _REAL_FIELDS else "s"}' for name in RUN_FIELDS) + "}\n"


def _run_lines(runs: RunTable) -> Iterator[str]:
    """The runs as JSONL, each line dumps_line(run.to_dict()), formatted column by column and
    yielded a chunk of rows at a time, so that only one chunk's text and values are held."""
    if not len(runs):
        yield "\n"  # no runs: one empty line
    for start in range(0, len(runs), _CHUNK_ROWS):
        chunk = runs[start:start + _CHUNK_ROWS]
        columns = [map(json.encoder.encode_basestring_ascii, chunk.run_id)]  # as json.dumps
        columns += (getattr(chunk, name).tolist() for name in RUN_FIELDS[1:])
        yield "".join(map(_RUN_LINE.__mod__, zip(*columns)))


# ---------------------------------------------------------------------------
# subcommand handlers; each checks everything, writes nothing and returns its output as an
# iterable of text chunks (frontier also adds its --csv file to args.files)


def _document(obj) -> tuple[str]:
    """The output of a JSON document: its text as one chunk."""
    return (dumps(obj) + "\n",)


def _cmd_flops(args) -> Iterable[str]:
    from .flops import ModelConfig, flops_per_token_exact

    cfg = ModelConfig(args.layers, args.heads, args.d_model, args.ctx, args.vocab, args.ff_ratio)
    return _document(dataclasses.asdict(flops_per_token_exact(cfg)))


_FSQ_ACTIONS = {"quantize": "fsq_quantize", "dequantize": "fsq_dequantize",
                "encode": "fsq_encode_index", "decode": "fsq_decode_index"}  # names in fsq


def _cmd_fsq(args) -> Iterable[str]:
    from . import fsq

    lv = _parse_levels(args)
    try:
        data = json.loads(_read(args.infile, _text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"input is not valid JSON: {exc}")
    return _document(getattr(fsq, _FSQ_ACTIONS[args.action])(data, lv))


def _cmd_vq(args) -> Iterable[str]:
    from .core import CodeUsageHistogram, codebook_metrics
    from .vq import VqCodebook, vq_assign

    latents = _load_csv_matrix(args.latents, "latents")
    entries = _load_csv_matrix(args.codebook, "codebook")
    if latents.shape[1] != entries.shape[1]:
        raise ValueError(
            f"latent dim {latents.shape[1]} does not match codebook dim {entries.shape[1]}"
        )
    codebook = VqCodebook.fresh(entries)
    indices = vq_assign(latents, codebook)
    hist = CodeUsageHistogram(np.bincount(indices, minlength=codebook.size))
    metrics = codebook_metrics(hist)._asdict()
    return _document({"counts": hist.counts, "total": hist.total, **metrics})


def _cmd_normloss(args) -> Iterable[str]:
    from .seqmodel import TokenProbRecord, ce_loss, normalized_loss

    # csv ends rows at \n, \r\n or \r; errors name the input line a row ends on
    reader = csv.reader(io.StringIO(_read(args.infile, _text), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: input is not valid CSV: {exc}")
    if rows:
        try:
            list(map(float, rows[0][1]))
        except ValueError:
            rows = rows[1:]  # header row: a cell that is not a number
    records = []
    for lineno, row in rows:
        if len(row) != 2:
            raise ValueError(f"line {lineno}: expected 2 columns, got {len(row)}")
        try:
            records.append(TokenProbRecord(float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}")
    if not records:
        raise ValueError("no (model_logp, baseline_logp) rows in input")
    ce = ce_loss(records)
    return _document(
        {
            "sum_ce": ce["sum_nats"],
            "mean_ce": ce["mean_nats"],
            "normalized_loss": normalized_loss(records),
        }
    )


def _cmd_ingest(args) -> Iterable[str]:
    return _run_lines(_read(args.runs, load_runs))


def _frontier_rows(args) -> list:
    from .scaling import pareto_frontier

    runs = _read(args.runs, load_runs)
    return pareto_frontier(runs, bin_width_log10=args.bin_width)


def _cmd_frontier(args) -> Iterable[str]:
    """The frontier JSON text; the table of its numeric columns goes to args.files under the
    --csv path when one is given."""
    if args.csv is not None and args.out and os.path.realpath(args.csv) == os.path.realpath(args.out):
        raise ValueError(f"--csv and --out name the same file {args.out!r}")
    rows = [
        {
            "flops_bucket_log10": p.flops_bucket_log10,
            "run_id": p.run.run_id,
            "flops": p.run.flops,
            "n_nv": p.n_nv,
            "n_v": p.n_v,
            "d_tokens": p.d_tokens,
            "loss": p.loss,
        }
        for p in _frontier_rows(args)
    ]
    if args.csv is not None:
        columns = ("flops", "n_nv", "n_v", "d_tokens", "loss")
        lines = [columns] + [[_fmt_float(row[c]) for c in columns] for row in rows]
        args.files[args.csv] = ("".join(",".join(line) + "\n" for line in lines),)
    return _document(rows)


def _cmd_fit(args) -> Iterable[str]:
    from .scaling import fit_all

    return _document(fit_all(_frontier_rows(args)).to_json_dict())


def _cmd_plan(args) -> Iterable[str]:
    from .planner import REFERENCE_PRESETS, consistency_report, plan_budget

    fits = _resolve_fits(args.fits)
    plan = plan_budget(args.flops, fits, args.d_model, rescale_d=args.rescale_d)
    doc = plan.to_json_dict()
    reference = REFERENCE_PRESETS.get(args.fits)
    if reference is not None:
        doc["reference_comparison"] = consistency_report(plan, reference)
    return _document(doc)


def _cmd_synth(args) -> Iterable[str]:
    from .synth import CGridSpec, SynthSpec, synth_runs

    spec = SynthSpec(
        laws=_resolve_fits(args.laws),
        c_grid_log10=CGridSpec(args.grid_min, args.grid_max, args.grid_points),
        runs_per_budget=args.runs_per_budget,
        noise_sigma_log10=args.noise,
        seed=args.seed,
    )
    return _run_lines(synth_runs(spec))


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scamo-lab",
        description="Compute-scaling laboratory for quantized-token sequence models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    log = argparse.ArgumentParser(add_help=False)  # the run-log commands' shared options
    log.add_argument("--runs", default=None, help="run JSONL path (default stdin)")
    binned = argparse.ArgumentParser(add_help=False, parents=[log])  # frontier's and fit's
    binned.add_argument("--bin-width", dest="bin_width", type=float, default=0.25)

    p = sub.add_parser("flops", help="per-token FLOPs breakdown for a transformer shape")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--heads", type=int, required=True)
    p.add_argument("--d-model", dest="d_model", type=int, required=True)
    p.add_argument("--ctx", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--ff-ratio", dest="ff_ratio", type=int, default=4)
    p.set_defaults(handler=_cmd_flops)

    p = sub.add_parser("fsq", help="finite scalar quantizer ops on JSON arrays")
    p.add_argument("action", choices=_FSQ_ACTIONS)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="level preset name, e.g. 2^10")
    group.add_argument("--levels", help="comma-separated level counts, e.g. 8,5,5,5")
    p.add_argument("--in", dest="infile", default=None, help="input JSON path (default stdin)")
    p.set_defaults(handler=_cmd_fsq)

    p = sub.add_parser("vq", help="assign latents to a codebook and report usage metrics")
    p.add_argument("--latents", required=True, help="CSV of latent rows")
    p.add_argument("--codebook", required=True, help="CSV of codebook entries")
    p.set_defaults(handler=_cmd_vq)

    p = sub.add_parser("normloss", help="normalized loss from (model_logp, baseline_logp) CSV")
    p.add_argument("--in", dest="infile", default=None, help="input CSV path (default stdin)")
    p.set_defaults(handler=_cmd_normloss)

    p = sub.add_parser("ingest", parents=[log], help="validate a run JSONL log and fill missing flops")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("frontier", parents=[binned], help="isoFLOPs frontier of a run log")
    p.add_argument("--csv", default=None, help="also write flops,n_nv,n_v,d_tokens,loss CSV here")
    p.set_defaults(handler=_cmd_frontier)

    p = sub.add_parser("fit", parents=[binned], help="fit scaling laws to a run log's frontier")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("plan", help="evaluate fitted laws at a compute budget")
    p.add_argument("--flops", type=float, required=True)
    p.add_argument("--fits", required=True, help="fits preset name or fits JSON path")
    p.add_argument("--d-model", dest="d_model", type=int, required=True)
    p.add_argument("--rescale-d", dest="rescale_d", action="store_true")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("synth", help="emit a synthetic run JSONL log")
    p.add_argument("--laws", default="scamo-paper", help="fits preset name or fits JSON path")
    p.add_argument("--grid-min", dest="grid_min", type=float, default=14.1)
    p.add_argument("--grid-max", dest="grid_max", type=float, default=18.1)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=9)
    p.add_argument("--runs-per-budget", dest="runs_per_budget", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=_cmd_synth)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def run(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    args.files = {}  # output files by path, each an iterable of text chunks
    try:
        chunks = args.handler(args)
        if args.out:
            args.files[args.out] = chunks
        _write_files(args.files)
        if not args.out:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a full disk or closed pipe fails here, not at exit
    except BrokenPipeError:  # the reader stopped early, as `| head` does: not an error to word
        with contextlib.suppress(io.UnsupportedOperation):  # in memory: no exit flush to divert
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)  # the exit flush goes to /dev/null, not to the closed pipe
            os.close(devnull)
        return 1
    except (ValueError, OSError, RecursionError, MemoryError) as exc:  # RecursionError: deep JSON
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # MemoryError: no text
        return 1
    return 0


def _write_files(files: dict[str, Iterable[str]]) -> None:
    """Write every file's chunks, in order, to a temp file beside it, then move each into place.

    A symlink's target is replaced, so the link stays. An existing target that
    is not a regular file (a device or a FIFO) is written straight into, after
    every temp file. No regular file is created unless all of them were
    written; errors name the given path, not the temp file or the target.
    """
    moves: list[tuple[str, str]] = []
    streams: list[tuple[str, Iterable[str]]] = []
    try:
        for path, chunks in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            target = os.path.realpath(path)
            if os.path.islink(target):  # realpath stops at a symlink loop
                raise OSError(errno.ELOOP, os.strerror(errno.ELOOP))
            if os.path.exists(target) and not os.path.isfile(target):
                streams.append((path, chunks))
                continue
            # a stale temp under a pid that came back may be live: the token steps round it
            tmp = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
            with open(tmp, "x", encoding="utf-8") as fh:
                moves.append((tmp, path))
                fh.writelines(chunks)
        for path, chunks in streams:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        for tmp, path in moves:
            os.replace(tmp, os.path.realpath(path))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for tmp, _ in moves:
            if os.path.exists(tmp):
                os.remove(tmp)


def main() -> None:
    raise SystemExit(run())
