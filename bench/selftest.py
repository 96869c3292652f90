"""Self-test of the harness at tiny size: span nesting and self time, the
tail-percentile rule, importtime parsing, and a failing command counted as a
failure without ending the run."""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from harness import Span, Tracer, layer_totals, parse_importtime, self_times, tail


def _spans() -> list[str]:
    errors = []
    tr = Tracer(True)
    with tr.span("cli.fit"):
        with tr.span("core.load_runs", rows=3):
            pass
        with tr.span("scaling.fit_all"):
            with tr.span("inner"):
                pass
    names = [(s.name, s.parent) for s in tr.spans]
    if names != [("cli.fit", None), ("core.load_runs", 0), ("scaling.fit_all", 0), ("inner", 2)]:
        errors.append(f"span parents {names}")
    if Tracer(False).spans or any(s.end < s.start for s in tr.spans):
        errors.append("disabled tracer recorded spans, or a span ends before it starts")

    # parent 0..10 with children 1..3 and 2..5 (overlapping, covered 1..5) and
    # 9..12 (clipped to 9..10): self 10 - 4 - 1 = 5
    spans = [Span("p", 0.0, 10.0, None, 0), Span("a", 1.0, 3.0, 0, 0),
             Span("b", 2.0, 5.0, 0, 0), Span("c", 9.0, 12.0, 0, 0),
             Span("d", 2.5, 3.5, 2, 0, {"rows": 4})]
    got = self_times(spans)
    want = [5.0, 2.0, 2.0, 3.0, 1.0]
    if got != want:
        errors.append(f"self times {got}, want {want}")
    totals = layer_totals(spans)
    if totals.get("p.s") != 5.0 or totals.get("d.rows") != 4:
        errors.append(f"layer totals {totals}")
    return errors


def _tail() -> list[str]:
    errors = []
    cases = [
        (list(range(100, 0, -1)), (90, 90.0)),   # n=100: rank 90, p90
        (list(range(1, 21)), (10, 50.0)),         # n=20: rank 10, p50
        (list(range(1, 12)), (1, 100 / 11)),      # n=11: rank 1
        ([3.0, 1.0, 2.0], (3.0, 100.0)),          # n<=10: the maximum
    ]
    for values, want in cases:
        got = tail(values)
        if got[0] != want[0] or abs(got[1] - want[1]) > 1e-9:
            errors.append(f"tail of n={len(values)}: {got}, want {want}")
    return errors


def _importtime() -> list[str]:
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        10 |         10 |       scipy.sparse",
        "import time:        40 |        100 |   scipy.special",
        "import time:        30 |        130 | scipy",
        "import time:         5 |          5 |   json",
        "import time:        20 |        455 | scamo_lab",
    ])
    total, scipy = parse_importtime(sample)
    # total of self times; scipy counted once, at the top-level scipy import
    if abs(total - 455e-6) > 1e-12 or abs(scipy - 130e-6) > 1e-12:
        return [f"importtime total {total}, scipy {scipy}"]
    return []


def _failing_command(root: Path, env: dict) -> list[str]:
    import workloads

    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    try:
        ctx = workloads.Context(work, env, sys.executable, 0, 0.0, False)
        res = workloads.Result()
        commands = [
            workloads.Command("bad-plan", ["plan", "--flops", "1e18", "--fits", "no-such-preset",
                                           "--d-model", "3200"], "bad.out", None),
            workloads.Command("flops", ["flops", "--layers", "2", "--heads", "2", "--d-model",
                                        "8", "--ctx", "16", "--vocab", "32"], "flops.out", None),
        ]
        passes = workloads._cli_passes(ctx, res, commands)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = []
    # each pass checks both commands, then one cross-pass check per command;
    # the bad command fails every pass and its cross-pass check
    n = workloads.MIN_PASSES
    if (res.attempted, res.failed) != (2 * n + 2, n + 1):
        errors.append(f"attempted/failed {res.attempted}/{res.failed}, want {2 * n + 2}/{n + 1}")
    bad = passes[0][1][0][0]
    if bad.returncode != 1 or b"error:" not in bad.stderr or not passes[0][1][1][0].ok:
        errors.append(f"bad command exit {bad.returncode}, stderr {bad.stderr[-200:]!r}")
    return errors


def main(root: Path, env: dict) -> int:
    cases = {
        "spans nest and self time": _spans,
        "tail percentile rule": _tail,
        "importtime parsing": _importtime,
        "failing command counted": lambda: _failing_command(root, env),
    }
    failed = 0
    for name, case in cases.items():
        errors = case()
        failed += bool(errors)
        print(f"{'FAIL' if errors else 'PASS'} {name}" + "".join(f"\n  {e}" for e in errors))
    return 1 if failed else 0
