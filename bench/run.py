"""scamo-lab benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

Run from the repository root. The program is taken from ./src; inputs are
generated from --seed into a scratch directory under ./.bench_work that is
removed when the run ends.

  One workload, end-to-end metrics (tracing off):
    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
  Every workload in one command (sweep, tokens, and cli-small, which
  BENCHMARK.json does not list):
    python3 bench/run.py --workload all --seed 1
  A traced run, per-layer metrics from spans around each layer call:
    python3 bench/run.py --workload tokens --seed 1 --trace 1
  Record runs and compare two commits (alternate which side runs first, ten
  pairs or more, same --seconds on both sides):
    python3 bench/run.py --workload sweep --seed 1 --out .bench_results/parent.jsonl
    python3 bench/run.py --workload sweep --seed 1 --out .bench_results/change.jsonl
    python3 bench/run.py --compare .bench_results/parent.jsonl .bench_results/change.jsonl
  Self-test of the harness at tiny size:
    python3 bench/run.py --self-test

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. The lines above it print
every metric by name with its unit, sample count and tail percentile, the
sha256 of each generated input and the environment. Load is a closed loop
from this one process: one child process or one library call at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

SETUP_SPAWNS = 9
WORKLOAD_NAMES = ("sweep", "tokens", "cli-small")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bench/run.py",
        description=__doc__.split("\n\n", 1)[0],
        epilog=__doc__.split("\n\n", 1)[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    p.add_argument("--seed", type=int, default=1, help="workload seed (non-negative)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="append each run's full record (JSONL)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CHANGE"),
                   help="compare two result files written with --out")
    p.add_argument("--self-test", action="store_true", help="check the harness at tiny size")
    return p


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SCAMO_LAB_SEED", None)
    return env


def measure_setup(ctx, res) -> float:
    """setup_s: cold spawn through `import scamo_lab` finishing, median of
    SETUP_SPAWNS after one unmeasured spawn that fills the bytecode cache."""
    from harness import spawn

    argv = [ctx.python, "-c", "import scamo_lab"]
    walls = []
    for k in range(SETUP_SPAWNS + 1):
        proc = spawn(argv, ctx.work, ctx.env, ctx.work / "setup.out", 60.0)
        if res.check(proc.ok, f"setup spawn: exit {proc.returncode}") and k:
            walls.append(proc.wall_s)
    if not walls:
        raise RuntimeError("`import scamo_lab` failed in every setup spawn")
    res.timing("setup_s", walls)
    return statistics.median(walls)


def _print_result(name: str, args, res, spec: dict) -> None:
    print(f"== {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace} ==")
    for metric, (value, unit, note) in res.metrics.items():
        print(f"  {metric:<22} {value:>16.6g} {unit:<10} {note}")
    rate = res.failed / res.attempted if res.attempted else 0.0
    print(f"  {'error_rate':<22} {rate:>16.6g} {'failed/attempted':<10} "
          f"{res.failed} of {res.attempted}")
    if args.trace:
        for entry in spec["per_layer"]:
            value = res.layers.get(entry["name"], 0)
            print(f"  {entry['name']:<38} {value:>16.6g} {entry['unit']}")
    for what in res.problems:
        print(f"  FAILED: {what}")
    for label, digest in res.inputs.items():
        print(f"  input sha256 {digest}  {label}")


def _final_metrics(res, spec: dict, trace: int) -> dict:
    if trace:
        return {e["name"]: {"value": res.layers.get(e["name"], 0), "unit": e["unit"]}
                for e in spec["per_layer"]}
    return {e["name"]: {"value": res.metrics[e["name"]][0], "unit": e["unit"]}
            for e in spec["end_to_end"]}


def run_workloads(args, spec: dict) -> int:
    import harness
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    env = harness.environment(ROOT)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            loadavg_before = os.getloadavg()
            run_dir = work / name
            run_dir.mkdir()
            ctx = workloads.Context(run_dir, _child_env(), sys.executable, args.seed,
                                    args.seconds, bool(args.trace))
            res = workloads.Result()
            setup_s = measure_setup(ctx, res)
            workloads.WORKLOADS[name](ctx, res, setup_s)
            res.layers = workloads.derived_layers(res.layers)
            record = {
                "workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "correct": res.failed == 0,
                "attempted": res.attempted, "failed": res.failed, "problems": res.problems,
                "metrics": {k: {"value": v, "unit": u, "note": n}
                            for k, (v, u, n) in res.metrics.items()},
                "error_rate": res.failed / res.attempted,
                "samples": res.samples, "layers": res.layers, "spans": res.spans,
                "inputs": res.inputs,
                "env": {**env, "loadavg_before": loadavg_before,
                        "loadavg_after": os.getloadavg()},
            }
            _print_result(name, args, res, spec)
            print(f"  env {json.dumps(record['env'])}")
            if args.out is not None:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
            summary["correct"] &= record["correct"]
            summary["attempted"] += res.attempted
            summary["failed"] += res.failed
            metrics = _final_metrics(res, spec, args.trace)
            prefix = "" if len(names) == 1 else f"{name}."
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, _spec())
    if not (SRC / "scamo_lab" / "__init__.py").is_file():
        return _fail(f"no program at {SRC / 'scamo_lab'}; run from a scamo-lab checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"no BENCHMARK.json at {ROOT}")
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    sys.path.insert(0, str(SRC))
    import scamo_lab

    if Path(scamo_lab.__file__).resolve().parent != (SRC / "scamo_lab").resolve():
        return _fail(f"imported scamo_lab from {scamo_lab.__file__}, not from {SRC}")
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.self_test:
        import selftest

        return selftest.main(ROOT, _child_env())
    return run_workloads(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
