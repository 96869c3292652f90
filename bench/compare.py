"""Compare two result files written by `run.py --out`.

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the change/base ratio with its base, the fraction of pairs the
change wins, and a verdict:

* improved            - at least ten pairs, the change wins at least 9/10 of
                        them (ties count for neither side) and the medians
                        differ by more than the base's own quartile spread;
* no worse than bound - the change's median is not worse than the base's by
                        more than the metric's bound;
* unresolved          - the base's quartile spread is wider than the bound
                        and not every change run beats every base run;
* worse               - worse by more than the bound.

Pairs are the i-th run of each file, so record the two sides alternately.
Metrics that BENCHMARK.json does not list (per-command times, medians, tail
percentiles) take the bound of pass_mean_s; rates (units ending in /s) are
better higher, everything else lower.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from harness import quartiles

UNLISTED_BOUND_FROM = "pass_mean_s"


def _load(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def verdict(base: list[float], change: list[float], lower_is_better: bool,
            bound: float) -> tuple[str, float]:
    """(verdict, win fraction) by the rule in the module docstring. Medians
    and quartiles use every run; wins use the pairs."""
    sign = 1.0 if lower_is_better else -1.0
    gain = [sign * (b - c) for b, c in zip(base, change)]  # > 0: change better
    wins = sum(1 for g in gain if g > 0) / len(gain)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, _, q3 = quartiles(base)
    if len(gain) >= 10 and wins >= 0.9 and sign * (mb - mc) > max(q3 - q1, 0.0):
        return "improved", wins
    if mb == 0:
        return ("no worse than bound" if sign * (mc - mb) <= 0 else "worse"), wins
    all_better = min(sign * (b - c) for b in base for c in change) > 0
    if (q3 - q1) / abs(mb) > bound and not all_better:
        return "unresolved", wins
    worse_by = sign * (mc - mb) / abs(mb)
    return ("no worse than bound" if worse_by <= bound else "worse"), wins


def main(base_path: Path, change_path: Path, spec: dict) -> int:
    listed = {e["name"]: e for e in spec["end_to_end"]}
    base, change = _load(base_path), _load(change_path)
    print(f"base: {base_path}  change: {change_path}")
    for workload in sorted(set(base) & set(change)):
        a_runs, b_runs = base[workload], change[workload]
        print(f"== {workload}: {len(a_runs)} base runs, {len(b_runs)} change runs, "
              f"{min(len(a_runs), len(b_runs))} pairs ==")
        names = [n for n in a_runs[0]["metrics"] if all(n in r["metrics"] for r in b_runs)]
        for name in [*names, "error_rate"]:
            entry = listed.get(name)
            if name == "error_rate":
                a = [r["error_rate"] for r in a_runs]
                b = [r["error_rate"] for r in b_runs]
                unit, lower, bound = "failed/attempted", True, 0.0
            else:
                a = [r["metrics"][name]["value"] for r in a_runs]
                b = [r["metrics"][name]["value"] for r in b_runs]
                unit = a_runs[0]["metrics"][name]["unit"]
                lower = entry["better"] == "lower" if entry else not unit.endswith("/s")
                bound = (entry or listed[UNLISTED_BOUND_FROM])["bound"]
            n = min(len(a), len(b))
            what, wins = verdict(a, b, lower, bound)
            qa, qb = quartiles(a), quartiles(b)
            ratio = (f"change/base {qb[1] / qa[1]:.4f} (base {qa[1]:.6g} {unit})"
                     if qa[1] else f"base median 0 {unit}")
            print(f"  {name:<18} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {unit}  {ratio}  "
                  f"wins {wins:.2f} of {n}  bound {bound:g}: {what}")
    return 0
