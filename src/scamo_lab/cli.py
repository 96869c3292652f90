"""Command-line interface.

Every subcommand computes its full result first and only then writes it, each
file through a temp file beside it, so a failure never leaves a file behind.
Results go to stdout as JSON (or JSONL for record streams) unless --out is
given; diagnostics go to stderr.
Output is deterministic: fixed key order, floats at 17 significant digits.

Exit codes: 0 success, 1 invalid input or data, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import sys

import numpy as np

from .core import RunRecord, load_runs, codebook_metrics, CodeUsageHistogram
from .flops import ModelConfig, flops_per_token_exact
from .fsq import (
    LEVEL_PRESETS,
    FsqLevels,
    fsq_decode_index,
    fsq_dequantize,
    fsq_encode_index,
    fsq_quantize,
)
from .planner import FITS_PRESETS, REFERENCE_PRESETS, consistency_report, plan_budget
from .scaling import ScalingFits, fit_all, pareto_frontier
from .seqmodel import TokenProbRecord, ce_loss, normalized_loss
from .synth import CGridSpec, SynthSpec, synth_runs
from .vq import VqCodebook, vq_assign

__all__ = ["run", "main", "dumps", "dumps_line"]

DEFAULT_SEED = 42
SEED_ENV_VAR = "SCAMO_LAB_SEED"


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(float(x), ".17g")


def _write_json(obj, out: list[str], indent: int | None, depth: int) -> None:
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


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant digits."""
    out: list[str] = []
    _write_json(obj, out, indent, 0)
    return "".join(out)


def dumps_line(obj) -> str:
    """Single-line deterministic JSON for JSONL streams."""
    out: list[str] = []
    _write_json(obj, out, None, 0)
    return "".join(out)


# ---------------------------------------------------------------------------
# shared input helpers


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_levels(args) -> FsqLevels:
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
    if spec in FITS_PRESETS:
        return FITS_PRESETS[spec]
    if not os.path.exists(spec):
        known = ", ".join(FITS_PRESETS)
        raise ValueError(f"{spec!r} is neither a fits preset ({known}) nor a file")
    with open(spec, "r", encoding="utf-8") as fh:
        return ScalingFits.from_json_dict(json.load(fh))


def _load_csv_matrix(path: str, name: str) -> np.ndarray:
    try:
        matrix = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise ValueError(f"could not read {name} CSV {path!r}: {exc}")
    if matrix.size == 0:
        raise ValueError(f"{name} CSV {path!r} is empty")
    return matrix


def _run_lines(records: list[RunRecord]) -> str:
    return "\n".join(dumps_line(r.to_dict()) for r in records) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the full output text and writes nothing
# (frontier also returns its --csv file)


def _cmd_flops(args) -> str:
    cfg = ModelConfig(
        n_layers=args.layers,
        n_heads=args.heads,
        d_model=args.d_model,
        n_ctx=args.ctx,
        n_vocab=args.vocab,
        ff_ratio=args.ff_ratio,
    )
    return dumps(dataclasses.asdict(flops_per_token_exact(cfg))) + "\n"


def _cmd_fsq(args) -> str:
    lv = _parse_levels(args)
    try:
        data = json.loads(_read_text(args.infile))
    except json.JSONDecodeError as exc:
        raise ValueError(f"input is not valid JSON: {exc}")
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise ValueError(f"input is not a rectangular array: {exc}")
    if args.action == "quantize":
        result = fsq_quantize(np.asarray(arr, dtype=np.float64), lv)
    elif args.action == "dequantize":
        result = fsq_dequantize(arr, lv)
    elif args.action == "encode":
        result = fsq_encode_index(arr, lv)
    else:
        result = fsq_decode_index(arr, lv)
    return dumps(result) + "\n"


def _cmd_vq(args) -> str:
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
    return dumps({"counts": hist.counts, "total": hist.total, **metrics}) + "\n"


def _cmd_normloss(args) -> str:
    rows = list(csv.reader(io.StringIO(_read_text(args.infile))))
    rows = [row for row in rows if row]
    if rows and any(_not_float(cell) for cell in rows[0]):
        rows = rows[1:]  # header row
    records = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise ValueError(f"row {lineno}: expected 2 columns, got {len(row)}")
        try:
            records.append(TokenProbRecord(float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"row {lineno}: {exc}")
    if not records:
        raise ValueError("no (model_logp, baseline_logp) rows in input")
    ce = ce_loss(records)
    return dumps(
        {
            "sum_ce": ce["sum_nats"],
            "mean_ce": ce["mean_nats"],
            "normalized_loss": normalized_loss(records),
        }
    ) + "\n"


def _not_float(cell: str) -> bool:
    try:
        float(cell)
        return False
    except ValueError:
        return True


def _cmd_ingest(args) -> str:
    return _run_lines(load_runs(_read_text(args.runs)))


def _frontier_rows(args) -> list:
    runs = load_runs(_read_text(args.runs))
    return pareto_frontier(runs, bin_width_log10=args.bin_width)


def _cmd_frontier(args) -> tuple[str, dict[str, str]]:
    """The frontier JSON text, plus the table of its numeric columns keyed by
    the --csv path when one is given."""
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
    columns = ("flops", "n_nv", "n_v", "d_tokens", "loss")
    table = [",".join(columns)] + [",".join(_fmt_float(row[c]) for c in columns) for row in rows]
    csv_file = {args.csv: "\n".join(table) + "\n"} if args.csv is not None else {}
    return dumps(rows) + "\n", csv_file


def _cmd_fit(args) -> str:
    return dumps(fit_all(_frontier_rows(args)).to_json_dict()) + "\n"


def _cmd_plan(args) -> str:
    fits = _resolve_fits(args.fits)
    plan = plan_budget(args.flops, fits, args.d_model, rescale_d=args.rescale_d)
    doc = plan.to_json_dict()
    reference = REFERENCE_PRESETS.get(args.fits)
    if reference is not None:
        doc["reference_comparison"] = consistency_report(plan, reference)
    return dumps(doc) + "\n"


def _cmd_synth(args) -> str:
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
    spec = SynthSpec(
        laws=_resolve_fits(args.laws),
        c_grid_log10=CGridSpec(args.grid_min, args.grid_max, args.grid_points),
        runs_per_budget=args.runs_per_budget,
        noise_sigma_log10=args.noise,
        seed=seed,
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

    p = sub.add_parser("flops", help="per-token FLOPs breakdown for a transformer shape")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--heads", type=int, required=True)
    p.add_argument("--d-model", dest="d_model", type=int, required=True)
    p.add_argument("--ctx", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--ff-ratio", dest="ff_ratio", type=int, default=4)
    p.set_defaults(handler=_cmd_flops)

    p = sub.add_parser("fsq", help="finite scalar quantizer ops on JSON arrays")
    p.add_argument("action", choices=["quantize", "dequantize", "encode", "decode"])
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

    p = sub.add_parser("ingest", help="validate a run JSONL log and fill missing flops")
    p.add_argument("--runs", default=None, help="run JSONL path (default stdin)")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("frontier", help="isoFLOPs frontier of a run log")
    p.add_argument("--runs", default=None, help="run JSONL path (default stdin)")
    p.add_argument("--bin-width", dest="bin_width", type=float, default=0.25)
    p.add_argument("--csv", default=None, help="also write flops,n_nv,n_v,d_tokens,loss CSV here")
    p.set_defaults(handler=_cmd_frontier)

    p = sub.add_parser("fit", help="fit scaling laws to a run log's frontier")
    p.add_argument("--runs", default=None, help="run JSONL path (default stdin)")
    p.add_argument("--bin-width", dest="bin_width", type=float, default=0.25)
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
    p.add_argument(
        "--seed", type=int, default=None, help=f"default: ${SEED_ENV_VAR} or {DEFAULT_SEED}"
    )
    p.set_defaults(handler=_cmd_synth)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = args.handler(args)
        text, files = result if isinstance(result, tuple) else (result, {})
        if args.out:
            files[args.out] = text
        _write_files(files)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    return 0


def _write_files(files: dict[str, str]) -> None:
    """Write every file to a temp file beside it, then move each into place.

    No file is created unless all of them were written; errors name the
    target path, not the temp file.
    """
    moves: list[tuple[str, str]] = []
    try:
        for path, text in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "x", encoding="utf-8") as fh:
                moves.append((tmp, path))
                fh.write(text)
        for tmp, path in moves:
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for tmp, _ in moves:
            if os.path.exists(tmp):
                os.remove(tmp)


def main() -> None:
    raise SystemExit(run())
