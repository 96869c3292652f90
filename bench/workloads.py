"""The three workloads, their output checks and their traced replays.

Why these workloads:

* sweep     - a scaling study as cold CLI processes (synth 50k runs, ingest,
              fit). The run-log path (synth, core, scaling and the cli JSON
              writer) does most of the work; synth is write-heavy and fit
              read-heavy, so a change that trades one for the other shows.
* tokens    - the token side in-process: FSQ round trips on 1e6 latents and
              VQ EMA+reset steps, then the per-token FLOPs count and a budget
              plan, with no process start and no JSON. A quarter of the VQ
              batches are lattice points against a lattice codebook, so exact
              distance ties occur and a faster assignment that breaks the
              lowest-index rule fails a check instead of reading as a
              speed-up.
* cli-small - the 12 gate-13 commands at gate size as cold processes, where
              interpreter start and imports dominate; lean-start changes show
              here and run-path or quantizer changes should not. It is not in
              BENCHMARK.json: its start-up cost is setup_s of every workload.

Every workload runs passes in a closed loop (one child process or one call at
a time) until the measuring time is spent, and at least MIN_PASSES. Pass
outputs are compared across passes.

The machine's speed changes under the benchmark: on a shared 2-core host
one cold synth command varies by about 14% (sd of its log) from one run of
it to the next, and the same code runs about 1.35x slower for stretches of
seconds to minutes. A run's median pass jumps between those states, so the
bounded timings are means over the whole run: pass_mean_s, and work_per_s
as the work of all passes over their total time. Medians and tail
percentiles are printed and recorded beside them.

Traced replays call each layer's public function in the order the CLI
handler calls it, with a span around each call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from harness import Tracer, layer_totals, parse_importtime, sha256_file, spawn, tail

from scamo_lab.cli import dumps, dumps_line
from scamo_lab.core import CodeUsageHistogram, codebook_metrics, load_runs
from scamo_lab.flops import ModelConfig, flops_per_token_exact
from scamo_lab.fsq import (
    LEVEL_PRESETS,
    FsqLevels,
    fsq_decode_index,
    fsq_dequantize,
    fsq_encode_index,
    fsq_quantize,
)
from scamo_lab.planner import FITS_PRESETS, REFERENCE_PRESETS, consistency_report, plan_budget
from scamo_lab.scaling import fit_all, pareto_frontier
from scamo_lab.seqmodel import TokenProbRecord, build_prefix_mask, ce_loss, normalized_loss
from scamo_lab.synth import CGridSpec, SynthSpec, synth_runs
from scamo_lab.vq import VqCodebook, VqTrainParams, vq_ema_update, vq_quantize, vq_reset

MIN_PASSES = 3
CHILD_TIMEOUT_S = 60.0
IMPORTTIME_SPAWNS = 5

# gate-08 tolerances for recovering the laws synth draws from. nv_vs_nnv is
# not one of them: it regresses on a noisy regressor. Over this sweep's 4
# decades and 41 frontier points its exponent error has RMS 0.018 across seeds
# 100-139 and 200-259 (max 0.042, over 0.03 on 5 of those 100 seeds),
# so it gets about 5x that RMS; the four synth laws stayed within 0.021.
FIT_EXPONENT_TOL = 0.03
FIT_DERIVED_TOL = 0.1
FIT_MIN_R2 = 0.95

SWEEP_GRID = (14.1, 18.1, 100)
SWEEP_RUNS_PER_BUDGET = 500
SWEEP_NOISE = 0.05
SWEEP_BIN_WIDTH = 0.1

FSQ_LATENTS = 1_000_000
FSQ_PRESETS = ("2^10", "2^16")
VQ_K, VQ_DIM, VQ_BATCH = 1024, 16, 4096
VQ_STEPS = 8  # every fourth step is a lattice (tie) batch
VQ_CHECKED_REGULAR = 2
VQ_ROW_SAMPLE = 256
MASK_SHAPE = (512, 4096)
NORMLOSS_TOKENS = 100_000
FLOPS_SHAPE = dict(n_layers=8, n_heads=8, d_model=512, n_ctx=1024, n_vocab=65536)
PLAN_FLOPS, PLAN_FITS, PLAN_D_MODEL = 1e18, "scamo-paper", 3200


@dataclass
class Context:
    work: Path
    env: dict
    python: str
    seed: int
    seconds: float
    trace: bool


@dataclass
class Result:
    """What one workload run measured; metrics map name -> (value, unit, note)."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    metrics: dict = dataclasses.field(default_factory=dict)
    layers: dict = dataclasses.field(default_factory=dict)
    inputs: dict = dataclasses.field(default_factory=dict)
    samples: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit, note)

    def timing(self, name: str, samples: list[float]) -> None:
        self.samples[name] = list(samples)
        self.metric(name, statistics.median(samples), "s", f"median of {len(samples)}")

    def mean_timing(self, name: str, samples: list[float]) -> None:
        self.samples[name] = list(samples)
        self.metric(name, statistics.fmean(samples), "s", f"mean of {len(samples)}")

    def tail_timing(self, name: str, samples: list[float]) -> None:
        self.samples[name] = list(samples)
        value, pct = tail(samples)
        self.metric(name, value, "s", f"p{pct:.0f} of {len(samples)}")

    def alias(self, name: str, of: str, unit: str) -> None:
        value, _, note = self.metrics[of]
        self.metric(name, value, unit, note)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _timed_passes(ctx: Context, one_pass: Callable[[], object]) -> list:
    """Run passes until ctx.seconds are spent, at least MIN_PASSES."""
    results = []
    start = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - start < ctx.seconds:
        results.append(one_pass())
    return results


# ---------------------------------------------------------------------------
# in-process replays of the CLI handlers, one span per layer call


def _read_text(path: Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _run_lines(tr: Tracer, runs) -> str:
    with tr.span("cli.dumps_line") as counts:
        text = "\n".join(dumps_line(r.to_dict()) for r in runs) + "\n"
    counts["bytes_out"] = len(text.encode())
    return text


def _load(tr: Tracer, path: Path):
    text = _read_text(path)
    with tr.span("core.load_runs") as counts:
        runs = load_runs(text)
    counts.update(rows=len(runs), bytes_in=len(text.encode()),
                  lines_in=sum(1 for line in text.splitlines() if line.strip()))
    return runs


def _frontier(tr: Tracer, path: Path, bin_width: float):
    runs = _load(tr, path)
    with tr.span("scaling.pareto_frontier", runs_in=len(runs)) as counts:
        points = pareto_frontier(runs, bin_width_log10=bin_width)
    counts["points_out"] = len(points)
    return points


def replay_synth(tr: Tracer, grid: tuple, runs_per_budget: int, noise: float, seed: int) -> str:
    spec = SynthSpec(
        laws=FITS_PRESETS["scamo-paper"],
        c_grid_log10=CGridSpec(*grid),
        runs_per_budget=runs_per_budget,
        noise_sigma_log10=noise,
        seed=seed,
    )
    with tr.span("synth.synth_runs") as counts:
        runs = synth_runs(spec)
    counts["rows"] = len(runs)
    return _run_lines(tr, runs)


def replay_ingest(tr: Tracer, path: Path) -> str:
    return _run_lines(tr, _load(tr, path))


def replay_frontier(tr: Tracer, path: Path, bin_width: float) -> str:
    points = _frontier(tr, path, bin_width)
    return dumps([
        {
            "flops_bucket_log10": p.flops_bucket_log10,
            "run_id": p.run.run_id,
            "flops": p.run.flops,
            "n_nv": p.n_nv,
            "n_v": p.n_v,
            "d_tokens": p.d_tokens,
            "loss": p.loss,
        }
        for p in points
    ]) + "\n"


def replay_fit(tr: Tracer, path: Path, bin_width: float) -> str:
    points = _frontier(tr, path, bin_width)
    with tr.span("scaling.fit_all"):
        fits = fit_all(points)
    return dumps(fits.to_json_dict()) + "\n"


def replay_flops(tr: Tracer, shape: dict) -> str:
    with tr.span("flops.flops_per_token_exact"):
        b = flops_per_token_exact(ModelConfig(**shape))
    keys = ("embeddings", "attn_qkv", "attn_mask", "attn_project", "ff", "logits", "total")
    return dumps({k: getattr(b, k) for k in keys}) + "\n"


def replay_fsq(tr: Tracer, action: str, levels: FsqLevels, path: Path) -> str:
    arr = np.asarray(json.loads(_read_text(path)))
    fn = {"quantize": fsq_quantize, "dequantize": fsq_dequantize,
          "encode": fsq_encode_index, "decode": fsq_decode_index}[action]
    if action == "quantize":
        arr = np.asarray(arr, dtype=np.float64)
    with tr.span(f"fsq.{fn.__name__}", items=len(arr)) as counts:
        result = fn(arr, levels)
    counts["bytes_computed"] = arr.nbytes + np.asarray(result).nbytes
    return dumps(result) + "\n"


def replay_vq(tr: Tracer, latents_path: Path, codebook_path: Path) -> str:
    latents = np.loadtxt(latents_path, delimiter=",", ndmin=2, dtype=np.float64)
    codebook = VqCodebook.fresh(np.loadtxt(codebook_path, delimiter=",", ndmin=2,
                                           dtype=np.float64))
    with tr.span("vq.vq_quantize", items=len(latents)):
        indices = [vq_quantize(z, codebook).index for z in latents]
    hist = CodeUsageHistogram(np.bincount(indices, minlength=codebook.size))
    with tr.span("core.codebook_metrics") as counts:
        m = codebook_metrics(hist)
    counts.update(utilization=m.utilization, exp_entropy=m.exp_entropy)
    return dumps({
        "counts": hist.counts,
        "total": hist.total,
        "utilization": m.utilization,
        "shannon_entropy_nats": m.shannon_entropy_nats,
        "exp_entropy": m.exp_entropy,
    }) + "\n"


def replay_normloss(tr: Tracer, path: Path) -> str:
    rows = [line.split(",") for line in _read_text(path).splitlines() if line]
    records = [TokenProbRecord(float(a), float(b)) for a, b in rows]
    ce = ce_loss(records)
    with tr.span("seqmodel.normalized_loss", items=len(records)):
        loss = normalized_loss(records)
    return dumps({"sum_ce": ce["sum_nats"], "mean_ce": ce["mean_nats"],
                  "normalized_loss": loss}) + "\n"


def replay_plan(tr: Tracer, flops: float, fits_name: str, d_model: int) -> str:
    with tr.span("planner.plan_budget"):
        plan = plan_budget(flops, FITS_PRESETS[fits_name], d_model)
    doc = plan.to_json_dict()
    doc["reference_comparison"] = consistency_report(plan, REFERENCE_PRESETS[fits_name])
    return dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# CLI workloads (sweep, cli-small)


@dataclass
class Command:
    name: str
    argv: list[str]                       # arguments after `python -m scamo_lab`
    output: str                           # stdout file, or the --out file when given
    replay: Callable[[Tracer], str]

    @property
    def writes_out(self) -> bool:
        return "--out" in self.argv


def _synth_argv(grid: tuple, runs_per_budget: int, noise: float, seed: int) -> list[str]:
    return ["synth", "--grid-min", repr(grid[0]), "--grid-max", repr(grid[1]),
            "--grid-points", str(grid[2]), "--runs-per-budget", str(runs_per_budget),
            "--noise", repr(noise), "--seed", str(seed)]


def _run_command(ctx: Context, cmd: Command):
    _output_path(ctx, cmd).unlink(missing_ok=True)
    stdout = ctx.work / (cmd.output if not cmd.writes_out else cmd.name + ".stdout")
    return spawn([ctx.python, "-m", "scamo_lab", *cmd.argv], ctx.work, ctx.env, stdout,
                 CHILD_TIMEOUT_S)


def _output_path(ctx: Context, cmd: Command) -> Path:
    return ctx.work / cmd.output


def _cli_passes(ctx: Context, res: Result, commands: list[Command]) -> list[list]:
    """Cold passes; returns per pass a list of (proc, output sha256 or None)."""

    def one_pass():
        start = time.perf_counter()
        procs = [_run_command(ctx, cmd) for cmd in commands]
        wall = time.perf_counter() - start
        outputs = []
        for cmd, proc in zip(commands, procs):
            path = _output_path(ctx, cmd)
            ok = proc.ok and path.exists() and path.stat().st_size > 0
            detail = proc.stderr.decode(errors="replace").strip()[-300:]
            res.check(ok, f"{cmd.name}: exit {proc.returncode} {detail}")
            outputs.append((proc, sha256_file(path) if ok else None))
        return wall, outputs

    passes = _timed_passes(ctx, one_pass)
    for k, cmd in enumerate(commands):
        digests = {outputs[k][1] for _, outputs in passes}
        res.check(len(digests) == 1 and None not in digests,
                  f"{cmd.name}: output bytes differ across passes")
    return passes


def _cli_metrics(res: Result, commands: list[Command], passes: list, work_items: int,
                 work_unit: str) -> dict[str, list[float]]:
    """Pass-level metrics; returns each command's cold wall times."""
    walls = [wall for wall, _ in passes]
    res.timing("wall_s", walls)
    res.mean_timing("pass_mean_s", walls)
    res.metric("work_per_s", work_items * len(walls) / sum(walls), "1/s",
               f"{work_unit}, over all {len(walls)} passes")
    rss = max(proc.maxrss_kb for _, outputs in passes for proc, _ in outputs)
    res.metric("peak_rss_mb", rss / 1024, "MB", "largest child max-RSS")
    return {cmd.name: [outputs[k][0].wall_s for _, outputs in passes]
            for k, cmd in enumerate(commands)}


def _cli_trace(ctx: Context, res: Result, commands: list[Command], passes: list,
               per_cmd: dict, setup_s: float) -> None:
    """Untraced then traced in-process replay; per-layer numbers from the spans."""
    last_outputs = passes[-1][1]
    if not res.check(all(digest for _, digest in last_outputs),
                     "traced replay skipped: a cold command failed"):
        return
    untraced = Tracer(False)
    start = time.perf_counter()
    for cmd in commands:
        cmd.replay(untraced)
    untraced_wall = time.perf_counter() - start

    tracer = Tracer(True)
    texts = {}
    start = time.perf_counter()
    for cmd in commands:
        with tracer.span(f"cli.{cmd.name}"):
            texts[cmd.name] = cmd.replay(tracer)
    traced_wall = time.perf_counter() - start

    for k, cmd in enumerate(commands):
        same = hashlib.sha256(texts[cmd.name].encode()).hexdigest() == last_outputs[k][1]
        res.check(same, f"{cmd.name}: traced in-process bytes differ from the cold command")

    spans = tracer.spans
    residual = 0.0
    for i, s in enumerate(spans):
        if s.parent is None:
            name = s.name[len("cli."):]
            layer_s = sum(c.end - c.start for c in spans if c.parent == i)
            residual += statistics.median(per_cmd[name]) - setup_s - layer_s
    res.spans = [dataclasses.asdict(s) for s in spans]
    res.layers.update(layer_totals(spans))
    res.layers["cli.residual_s"] = residual
    res.layers["trace.overhead_s"] = traced_wall - untraced_wall


def _check_reload(res: Result, name: str, source: Path, ingested: Path) -> None:
    """ingest output re-loads to the records of its input. Equal bytes parse
    to equal records, so the loads are needed only when the bytes differ."""
    try:
        if source.read_bytes() == ingested.read_bytes():
            res.check(True, "")
            return
        same = load_runs(_read_text(ingested)) == load_runs(_read_text(source))
    except (OSError, ValueError) as exc:
        same = False
        name = f"{name} ({exc})"
    res.check(same, f"{name}: ingest output does not re-load to the input records")


def _check_fit(res: Result, path: Path) -> None:
    """fit recovers the synth laws within gate-08's tolerances."""
    laws = FITS_PRESETS["scamo-paper"]
    truth = {
        "nv_vs_c": (laws.nv_vs_c.exponent, FIT_EXPONENT_TOL),
        "nnv_vs_c": (laws.nnv_vs_c.exponent, FIT_EXPONENT_TOL),
        "d_vs_c": (laws.d_vs_c.exponent, FIT_EXPONENT_TOL),
        "nv_vs_nnv": (laws.nv_vs_c.exponent / laws.nnv_vs_c.exponent, FIT_DERIVED_TOL),
    }
    try:
        doc = json.loads(path.read_text())
        errors = {k: (abs(doc[k]["exponent"] - v), tol) for k, (v, tol) in truth.items()}
        errors["loss_vs_c"] = (abs(doc["loss_vs_c"]["slope"] - laws.loss_vs_c.slope),
                               FIT_EXPONENT_TOL)
        r2 = min(doc[k]["r2"] for k in (*truth, "loss_vs_c"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.check(False, f"fit: unreadable output ({exc})")
        return
    for name, (err, tol) in errors.items():
        res.check(err <= tol, f"fit: {name} error {err:.4f} exceeds {tol}")
    res.check(r2 >= FIT_MIN_R2, f"fit: min r2 {r2:.4f} below {FIT_MIN_R2}")


def _proc_layers(ctx: Context, res: Result) -> None:
    """proc.* from `python -X importtime -c "import scamo_lab"` spawns."""
    interp, imports, scipy = [], [], []
    for k in range(IMPORTTIME_SPAWNS):
        proc = spawn([ctx.python, "-X", "importtime", "-c", "import scamo_lab"], ctx.work,
                     ctx.env, ctx.work / "importtime.out", CHILD_TIMEOUT_S)
        if not res.check(proc.ok, f"importtime spawn: exit {proc.returncode}"):
            continue
        total, scipy_s = parse_importtime(proc.stderr.decode(errors="replace"))
        interp.append(proc.wall_s - total)
        imports.append(total)
        scipy.append(scipy_s)
    if imports:
        res.layers["proc.interp_s"] = statistics.median(interp)
        res.layers["proc.import_s"] = statistics.median(imports)
        res.layers["proc.import_scipy_s"] = statistics.median(scipy)


def run_sweep(ctx: Context, res: Result, setup_s: float) -> None:
    grid, rpb, noise, bw = SWEEP_GRID, SWEEP_RUNS_PER_BUDGET, SWEEP_NOISE, SWEEP_BIN_WIDTH
    runs = ctx.work / "runs.jsonl"
    commands = [
        Command("synth", _synth_argv(grid, rpb, noise, ctx.seed), "runs.jsonl",
                lambda tr: replay_synth(tr, grid, rpb, noise, ctx.seed)),
        Command("ingest", ["ingest", "--runs", "runs.jsonl"], "ingest.jsonl",
                lambda tr: replay_ingest(tr, runs)),
        Command("fit", ["fit", "--runs", "runs.jsonl", "--bin-width", repr(bw)], "fit.json",
                lambda tr: replay_fit(tr, runs, bw)),
    ]
    passes = _cli_passes(ctx, res, commands)
    n_runs = grid[2] * rpb
    per_cmd = _cli_metrics(res, commands, passes, n_runs, "runs/s")
    # a sweep step is the whole study (synth, ingest, fit): its commands differ
    # too much in size for their pooled percentiles to mean anything
    res.timing("step_p50_s", res.samples["wall_s"])
    res.tail_timing("step_tail_s", res.samples["wall_s"])
    for name, samples in per_cmd.items():
        res.timing(f"{name}_s", samples)
    res.alias("runs_per_s", "work_per_s", "runs/s")
    res.inputs["runs.jsonl (synth output)"] = sha256_file(runs)
    _check_reload(res, "ingest", runs, ctx.work / "ingest.jsonl")
    _check_fit(res, ctx.work / "fit.json")
    if ctx.trace:
        _proc_layers(ctx, res)
        _cli_trace(ctx, res, commands, passes, per_cmd, setup_s)


GATE_SYNTH = ((14.1, 16.1, 5), 2, 0.05)
GATE_LEVELS = (8, 5, 5, 5)


def _gate_inputs(ctx: Context, res: Result) -> None:
    """Gate-13 sized inputs, regenerated from the seed."""
    rng = np.random.default_rng(ctx.seed)
    w = ctx.work

    def csv_rows(rows) -> str:
        return "".join(",".join(f"{v:.2f}" for v in row) + "\n" for row in rows)

    (w / "latents.csv").write_text(csv_rows(rng.uniform(-1.0, 2.5, size=(4, 2))))
    (w / "codebook.csv").write_text(csv_rows(rng.uniform(-1.0, 2.5, size=(3, 2))))
    codes = [[int(rng.integers(1, lv + 1)) for lv in GATE_LEVELS] for _ in range(2)]
    (w / "codes.json").write_text(json.dumps(codes))
    size = math.prod(GATE_LEVELS)
    (w / "indices.json").write_text(json.dumps(sorted(int(i) for i in rng.integers(0, size, 3))))
    (w / "probs.csv").write_text(csv_rows(-rng.uniform(0.05, 2.0, size=(2, 2))))
    grid, rpb, noise = GATE_SYNTH
    proc = spawn([ctx.python, "-m", "scamo_lab", *_synth_argv(grid, rpb, noise, ctx.seed)],
                 w, ctx.env, w / "runs.jsonl", CHILD_TIMEOUT_S)
    res.check(proc.ok, f"input synth: exit {proc.returncode}")
    for name in ("runs.jsonl", "latents.csv", "codebook.csv", "codes.json", "indices.json",
                 "probs.csv"):
        res.inputs[name] = sha256_file(w / name)


def run_cli_small(ctx: Context, res: Result, setup_s: float) -> None:
    _gate_inputs(ctx, res)
    w = ctx.work
    runs = w / "runs.jsonl"
    grid, rpb, noise = GATE_SYNTH
    levels = FsqLevels(GATE_LEVELS)
    preset = LEVEL_PRESETS["2^10"]
    commands = [
        Command("flops", ["flops", "--layers", "8", "--heads", "8", "--d-model", "512",
                          "--ctx", "1024", "--vocab", "65536"], "flops.out",
                lambda tr: replay_flops(tr, FLOPS_SHAPE)),
        Command("fsq-quantize", ["fsq", "quantize", "--preset", "2^10", "--in", "codes.json"],
                "fsq-quantize.out", lambda tr: replay_fsq(tr, "quantize", preset, w / "codes.json")),
        Command("fsq-dequantize", ["fsq", "dequantize", "--levels", "8,5,5,5", "--in",
                                   "codes.json"], "fsq-dequantize.out",
                lambda tr: replay_fsq(tr, "dequantize", levels, w / "codes.json")),
        Command("fsq-encode", ["fsq", "encode", "--levels", "8,5,5,5", "--in", "codes.json"],
                "fsq-encode.out", lambda tr: replay_fsq(tr, "encode", levels, w / "codes.json")),
        Command("fsq-decode", ["fsq", "decode", "--preset", "2^10", "--in", "indices.json"],
                "fsq-decode.out",
                lambda tr: replay_fsq(tr, "decode", preset, w / "indices.json")),
        Command("vq", ["vq", "--latents", "latents.csv", "--codebook", "codebook.csv"], "vq.out",
                lambda tr: replay_vq(tr, w / "latents.csv", w / "codebook.csv")),
        Command("normloss", ["normloss", "--in", "probs.csv"], "normloss.out",
                lambda tr: replay_normloss(tr, w / "probs.csv")),
        Command("ingest", ["ingest", "--runs", "runs.jsonl"], "ingest.out",
                lambda tr: replay_ingest(tr, runs)),
        Command("frontier", ["frontier", "--runs", "runs.jsonl", "--bin-width", "0.25"],
                "frontier.out", lambda tr: replay_frontier(tr, runs, 0.25)),
        Command("fit", ["fit", "--runs", "runs.jsonl", "--bin-width", "0.25", "--out",
                        "fits.json"], "fits.json", lambda tr: replay_fit(tr, runs, 0.25)),
        Command("plan", ["plan", "--flops", repr(PLAN_FLOPS), "--fits", PLAN_FITS, "--d-model",
                         str(PLAN_D_MODEL)], "plan.out",
                lambda tr: replay_plan(tr, PLAN_FLOPS, PLAN_FITS, PLAN_D_MODEL)),
        Command("synth", _synth_argv(grid, rpb, noise, ctx.seed), "synth.out",
                lambda tr: replay_synth(tr, grid, rpb, noise, ctx.seed)),
    ]
    passes = _cli_passes(ctx, res, commands)
    per_cmd = _cli_metrics(res, commands, passes, len(commands), "commands/s")
    steps = [t for samples in per_cmd.values() for t in samples]
    res.timing("step_p50_s", steps)
    res.tail_timing("step_tail_s", steps)
    res.alias("cmd_p50_s", "step_p50_s", "s")
    res.alias("cmd_tail_s", "step_tail_s", "s")
    _check_reload(res, "ingest", runs, w / "ingest.out")
    res.check((w / "synth.out").read_bytes() == runs.read_bytes(),
              "synth: output differs from the same synth run while generating inputs")
    if ctx.trace:
        _proc_layers(ctx, res)
        _cli_trace(ctx, res, commands, passes, per_cmd, setup_s)


# ---------------------------------------------------------------------------
# tokens (in-process)


@dataclass
class TokenInputs:
    latents: dict            # preset -> (n, dim) float64
    codebook: np.ndarray     # (K, d) starting codebook
    lattice: np.ndarray      # (K, d) lattice codebook for the tie batches
    batches: list            # VQ_STEPS arrays of (VQ_BATCH, d)
    records: list            # TokenProbRecord for normalized_loss


def _is_tie_step(t: int) -> bool:
    return t % 4 == 3


def _token_inputs(seed: int) -> TokenInputs:
    rng = np.random.default_rng(seed)
    latents = {p: rng.normal(0.0, 1.5, size=(FSQ_LATENTS, LEVEL_PRESETS[p].dimension))
               for p in FSQ_PRESETS}
    centers = rng.normal(0.0, 2.0, size=(64, VQ_DIM))
    codebook = rng.normal(0.0, 2.0, size=(VQ_K, VQ_DIM))
    # distinct {0,1}^d corners; batch points in {0, 1/2, 1}^d tie exactly on
    # every half coordinate
    corners = rng.choice(2**VQ_DIM, size=VQ_K, replace=False)
    lattice = ((corners[:, None] >> np.arange(VQ_DIM)) & 1).astype(np.float64)
    batches = []
    for t in range(VQ_STEPS):
        if _is_tie_step(t):
            batches.append(rng.choice([0.0, 0.5, 1.0], p=[0.375, 0.25, 0.375],
                                      size=(VQ_BATCH, VQ_DIM)))
        else:
            pick = rng.integers(0, len(centers), size=VQ_BATCH)
            batches.append(centers[pick] + rng.normal(0.0, 0.7, size=(VQ_BATCH, VQ_DIM)))
    model = -rng.exponential(1.0, size=NORMLOSS_TOKENS)
    base = -rng.exponential(1.2, size=NORMLOSS_TOKENS)
    records = [TokenProbRecord(float(a), float(b)) for a, b in zip(model, base)]
    return TokenInputs(latents, codebook, lattice, batches, records)


@dataclass
class TokenPass:
    wall_s: float
    fsq_s: float
    step_s: list
    fsq: dict                # preset -> (codes, indices, decoded)
    steps: list              # (codebook in, after EMA, reset result)
    mask: object
    loss: float
    flops: object            # FlopsBreakdown of FLOPS_SHAPE
    plan: object             # BudgetPlan at PLAN_FLOPS
    digest: str

    def summary(self) -> "TokenPass":
        """The pass without its output arrays, so kept passes stay small."""
        return dataclasses.replace(self, fsq={}, steps=[], mask=None)


def _token_pass(tr: Tracer, inp: TokenInputs, seed: int) -> TokenPass:
    start = time.perf_counter()
    fsq = {}
    for preset in FSQ_PRESETS:
        z, lv = inp.latents[preset], LEVEL_PRESETS[preset]
        with tr.span("fsq.fsq_quantize", items=len(z)) as counts:
            q = fsq_quantize(z, lv)
        counts["bytes_computed"] = z.nbytes + q.nbytes
        with tr.span("fsq.fsq_encode_index", items=len(q)) as counts:
            idx = fsq_encode_index(q, lv)
        counts["bytes_computed"] = q.nbytes + idx.nbytes
        with tr.span("fsq.fsq_decode_index", items=len(idx)) as counts:
            back = fsq_decode_index(idx, lv)
        counts["bytes_computed"] = idx.nbytes + back.nbytes
        fsq[preset] = (q, idx, back)
    fsq_s = time.perf_counter() - start

    lattice = VqCodebook.fresh(inp.lattice)
    codebook = VqCodebook.fresh(inp.codebook)
    steps, step_s = [], []
    for t, batch in enumerate(inp.batches):
        cb_in = lattice if _is_tie_step(t) else codebook
        params = VqTrainParams(rng_seed=seed + t)
        t0 = time.perf_counter()
        with tr.span("vq.vq_ema_update", items=len(batch)):
            updated = vq_ema_update(batch, cb_in, params)
        with tr.span("vq.vq_reset", codes=cb_in.size) as counts:
            reset = vq_reset(updated, batch, params)
        step_s.append(time.perf_counter() - t0)
        counts["n_reset"] = reset.n_reset
        # this step's assignment counts, recovered from the usage EMA
        decay = params.ema_decay
        n = np.rint((updated.usage_counts - decay * cb_in.usage_counts) / (1.0 - decay))
        with tr.span("core.codebook_metrics") as counts:
            m = codebook_metrics(CodeUsageHistogram(n.astype(np.int64)))
        counts.update(utilization=m.utilization, exp_entropy=m.exp_entropy)
        steps.append((cb_in, updated, reset))
        if not _is_tie_step(t):
            codebook = reset.codebook
    with tr.span("seqmodel.build_prefix_mask"):
        mask = build_prefix_mask(*MASK_SHAPE)
    with tr.span("seqmodel.normalized_loss", items=len(inp.records)):
        loss = normalized_loss(inp.records)
    with tr.span("flops.flops_per_token_exact"):
        flops = flops_per_token_exact(ModelConfig(**FLOPS_SHAPE))
    with tr.span("planner.plan_budget"):
        plan = plan_budget(PLAN_FLOPS, FITS_PRESETS[PLAN_FITS], PLAN_D_MODEL)
    wall = time.perf_counter() - start

    parts = [a for triple in fsq.values() for a in triple]
    for _, updated, reset in steps:
        cb = reset.codebook
        parts += [updated.usage_counts, cb.entries, cb.usage_counts, cb.ema_sums,
                  np.int64(reset.n_reset)]
    parts += [mask.allowed, np.float64(loss), json.dumps(dataclasses.asdict(flops)).encode(),
              json.dumps(plan.to_json_dict()).encode()]
    return TokenPass(wall, fsq_s, step_s, fsq, steps, mask, loss, flops, plan, _digest(*parts))


def _nearest_by_scan(batch: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Exact squared distances, first minimum on ties (gate-06's rule)."""
    out = np.empty(len(batch), dtype=np.int64)
    for lo in range(0, len(batch), 256):
        chunk = batch[lo:lo + 256]
        d2 = ((chunk[:, None, :] - entries[None, :, :]) ** 2).sum(axis=2)
        out[lo:lo + 256] = np.argmin(d2, axis=1)
    return out


def _check_vq_step(res: Result, t: int, batch: np.ndarray, step: tuple,
                   params: VqTrainParams, rng: np.random.Generator) -> None:
    cb_in, updated, reset = step
    idx = _nearest_by_scan(batch, cb_in.entries)
    rows = rng.choice(len(batch), size=VQ_ROW_SAMPLE, replace=False)
    per_row = np.array([vq_quantize(batch[r], cb_in).index for r in rows])
    res.check(np.array_equal(per_row, idx[rows]),
              f"vq step {t}: vq_quantize disagrees with the exhaustive scan")
    # reference EMA update from the scanned indices
    decay = params.ema_decay
    n = np.bincount(idx, minlength=cb_in.size).astype(np.float64)
    s = np.zeros_like(cb_in.ema_sums)
    np.add.at(s, idx, batch)
    usage = decay * cb_in.usage_counts + (1.0 - decay) * n
    sums = decay * cb_in.ema_sums + (1.0 - decay) * s
    entries = cb_in.entries.copy()
    live = usage > 0
    entries[live] = sums[live] / np.maximum(usage[live], 1e-8)[:, None]
    same = (np.allclose(updated.usage_counts, usage, rtol=1e-12, atol=0.0)
            and np.allclose(updated.ema_sums, sums, rtol=1e-9, atol=1e-12)
            and np.allclose(updated.entries, entries, rtol=1e-9, atol=1e-12))
    res.check(same, f"vq step {t}: EMA update disagrees with the exhaustive-scan assignment")
    dead = updated.usage_counts < params.reset_threshold
    cb = reset.codebook
    batch_rows = {row.tobytes() for row in batch}
    res.check(
        reset.n_reset == int(dead.sum())
        and np.array_equal(cb.entries[~dead], updated.entries[~dead])
        and bool(np.all(cb.usage_counts[dead] == 1.0))
        and all(row.tobytes() in batch_rows for row in cb.entries[dead]),
        f"vq step {t}: reset does not reseed exactly the dead codes from the batch",
    )


def _check_tokens(res: Result, inp: TokenInputs, first: TokenPass, seed: int) -> None:
    for preset, (q, idx, back) in first.fsq.items():
        lv = LEVEL_PRESETS[preset]
        bounds = np.asarray(lv.levels)
        place = np.concatenate(([1], np.cumprod(bounds[:-1])))
        res.check(q.shape == inp.latents[preset].shape and bool(((q >= 1) & (q <= bounds)).all()),
                  f"fsq {preset}: codes outside 1..levels")
        res.check(np.array_equal(idx, ((q - 1) * place).sum(axis=1)),
                  f"fsq {preset}: encode is not the mixed-radix index")
        res.check(np.array_equal(back, q), f"fsq {preset}: decode(encode(q)) != q")
    rng = np.random.default_rng(seed + 1)
    regular = [t for t in range(VQ_STEPS) if not _is_tie_step(t)]
    checked = sorted({t for t in range(VQ_STEPS) if _is_tie_step(t)}
                     | set(rng.choice(regular, size=VQ_CHECKED_REGULAR, replace=False).tolist()))
    for t in checked:
        _check_vq_step(res, t, inp.batches[t], first.steps[t], VqTrainParams(rng_seed=seed + t),
                       rng)
    t_text, t_motion = MASK_SHAPE
    total = t_text + t_motion
    i = np.arange(total)[:, None]
    j = np.arange(total)[None, :]
    expected = (j < t_text) | ((i >= t_text) & (j <= i))
    res.check(np.array_equal(first.mask.allowed, expected), "build_prefix_mask: wrong blocks")
    ref = -math.fsum(r.model_logp - r.baseline_logp for r in inp.records) / len(inp.records)
    res.check(math.isclose(first.loss, ref, rel_tol=1e-12), "normalized_loss: wrong value")
    f = first.flops
    res.check(f.total == f.embeddings + f.attn_qkv + f.attn_mask + f.attn_project + f.ff + f.logits
              and f.logits == 2 * FLOPS_SHAPE["d_model"] * FLOPS_SHAPE["n_vocab"],
              "flops_per_token_exact: components do not add up")
    plan = first.plan
    residual = math.log10(6.0 * (plan.n_nv + plan.n_v) * plan.d_tokens / PLAN_FLOPS)
    res.check(plan.flops_budget == PLAN_FLOPS
              and math.isclose(plan.constraint_residual_log10, residual, abs_tol=1e-12),
              "plan_budget: residual is not log10(6 (n_nv + n_v) d / c)")


def run_tokens(ctx: Context, res: Result, setup_s: float) -> None:
    inp = _token_inputs(ctx.seed)
    for preset, z in inp.latents.items():
        res.inputs[f"fsq latents {preset}"] = _digest(z)
    res.inputs["vq codebook"] = _digest(inp.codebook)
    res.inputs["vq lattice codebook"] = _digest(inp.lattice)
    res.inputs["vq batches"] = _digest(*inp.batches)
    res.inputs["normloss records"] = _digest(
        np.array([(r.model_logp, r.baseline_logp) for r in inp.records]))

    # an untimed first pass warms caches and is the one whose outputs are
    # checked; timed passes must reproduce its digest
    untraced = Tracer(False)
    first = _token_pass(untraced, inp, ctx.seed)
    _check_tokens(res, inp, first, ctx.seed)
    reference = first.digest
    del first

    passes = _timed_passes(ctx, lambda: _token_pass(untraced, inp, ctx.seed).summary())
    res.check(all(p.digest == reference for p in passes), "tokens: outputs differ across passes")

    walls = [p.wall_s for p in passes]
    steps = [s for p in passes for s in p.step_s]
    n_latents = FSQ_LATENTS * len(FSQ_PRESETS)
    res.timing("wall_s", walls)
    res.mean_timing("pass_mean_s", walls)
    res.timing("step_p50_s", steps)
    res.tail_timing("step_tail_s", steps)
    res.metric("work_per_s", n_latents * len(passes) / sum(p.fsq_s for p in passes), "1/s",
               f"FSQ latents/s, over all {len(passes)} passes")
    res.alias("fsq_latents_per_s", "work_per_s", "latents/s")
    res.alias("vq_step_p50_s", "step_p50_s", "s")
    res.alias("vq_step_tail_s", "step_tail_s", "s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res.metric("peak_rss_mb", rss / 1024, "MB", "benchmark process max-RSS")

    if ctx.trace:
        _proc_layers(ctx, res)
        tracer = Tracer(True)
        traced = _token_pass(tracer, inp, ctx.seed)
        res.check(traced.digest == reference, "tokens: traced pass outputs differ")
        res.spans = [dataclasses.asdict(s) for s in tracer.spans]
        res.layers.update(layer_totals(tracer.spans))
        res.layers["trace.overhead_s"] = traced.wall_s - statistics.median(walls)


WORKLOADS = {"sweep": run_sweep, "tokens": run_tokens, "cli-small": run_cli_small}


def derived_layers(layers: dict) -> dict:
    """Ratios computed from summed span counters."""
    out = dict(layers)
    lines = layers.get("core.load_runs.lines_in", 0)
    out["core.load_runs.accept_ratio"] = layers.get("core.load_runs.rows", 0) / lines if lines else 0.0
    codes = layers.get("vq.vq_reset.codes", 0)
    out["vq.reset_ratio"] = layers.get("vq.vq_reset.n_reset", 0) / codes if codes else 0.0
    return out
