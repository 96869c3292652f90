"""Measurement primitives shared by the workloads: spans, statistics, cold
process spawns and the environment record.

Nothing here imports scamo_lab, so the self-test of these pieces runs even
where the program is missing.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

TRACEBACK_MARK = b"Traceback (most recent call last)"

# Span counters that describe a state rather than an amount of work; they are
# aggregated by median instead of summed.
GAUGES = frozenset({"utilization", "exp_entropy"})


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans kept in memory; a disabled tracer records nothing.

    Use as `with tracer.span("core.load_runs", bytes_in=n) as counts:` and set
    further counters on `counts` inside the block.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.pass_id, counts)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield counts
        finally:
            record.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed self time as `<name>.s`, counters summed (gauges
    by median) as `<name>.<counter>`."""
    totals: dict[str, float] = {}
    gauges: dict[str, list[float]] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[f"{s.name}.s"] = totals.get(f"{s.name}.s", 0.0) + own
        for key, value in s.counts.items():
            name = f"{s.name}.{key}"
            if key in GAUGES:
                gauges.setdefault(name, []).append(float(value))
            else:
                totals[name] = totals.get(name, 0) + value
    totals.update({name: statistics.median(v) for name, v in gauges.items()})
    return totals


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With n sorted samples that is rank n - 10 (1-based), percentile
    100 * (n - 10) / n. Ten samples or fewer have no such percentile; the
    maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# cold processes


@dataclass
class Proc:
    wall_s: float
    returncode: int
    maxrss_kb: int
    stderr: bytes

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and TRACEBACK_MARK not in self.stderr


def spawn(argv: list[str], cwd: Path, env: dict, stdout: Path, timeout_s: float) -> Proc:
    """Run one cold child process, stdout to a file; wall time is spawn to reap.

    The child is reaped with wait4 so its own max RSS is known. A watchdog
    kills it after timeout_s; a killed child reads as a failure.
    """
    err_path = stdout.with_name(stdout.name + ".err")
    start = time.perf_counter()
    with open(stdout, "wb") as out, open(err_path, "wb") as err:
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                 stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout_s, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            watchdog.cancel()
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    err_path.unlink()
    return Proc(wall, child.returncode, usage.ru_maxrss, stderr)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Total self time of every import, and the cumulative time of scipy
    imports not nested in another scipy import, both in seconds."""
    total_us = 0
    scipy_us = 0
    stack: list[tuple[int, bool]] = []  # (indent, is scipy) of enclosing imports
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        indent = len(name) - len(name.lstrip(" "))
        rows.append((int(self_us), int(cum_us), indent, name.strip()))
    # importtime prints children before their parent; walk backwards so each
    # parent is seen before the imports nested in it.
    for self_us, cum_us, indent, name in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _, flag in stack):
            scipy_us += cum_us
        stack.append((indent, is_scipy))
        total_us += self_us
    return total_us / 1e6, scipy_us / 1e6


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _commit(root: Path) -> str | None:
    head = _read(str(root / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(str(root / ".git" / ref))
    if loose:
        return loose
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _version(dist: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def src_digest(src: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    return {
        "commit": _commit(root),
        "src_sha256": src_digest(root / "src"),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
    }
