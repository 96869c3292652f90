"""Run-log records, model shape presets, and codebook usage metrics.

Training runs travel as JSONL, one object per line, with the fields of
RunRecord. Loading is strict: any malformed line fails the whole load, and
records missing a flops value get it filled from the 6 * (N_nv + N_v) * D
approximation. Every run is costed with a feed-forward width of 4 * d_model.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple

import numpy as np

from .flops import (_INT64_MAX, ModelConfig, _check_int, _check_int_array, _check_real,
                    flops_approx, params_non_embedding)

__all__ = [
    "MODEL_SHAPE_PRESETS",
    "RUN_FIELDS",
    "RunRecord",
    "RunLogError",
    "load_runs",
    "CodeUsageHistogram",
    "CodebookMetrics",
    "codebook_metrics",
]

# Published model shapes: name -> (n_layers, n_heads, d_model).
MODEL_SHAPE_PRESETS: dict[str, tuple[int, int, int]] = {
    "scamo-44m": (8, 8, 512),
    "scamo-111m": (12, 12, 768),
    "scamo-343m": (24, 16, 1024),
    "scamo-775m": (36, 20, 1280),
    "scamo-1.4b": (48, 24, 1536),
    "scamo-3b": (24, 32, 3200),
}


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One training run from a scaling sweep.

    normalized_loss is a per-token loss in nats measured against a baseline,
    so negative values are legal (the model beats the baseline). The five
    shape fields are checked once, by the ModelConfig that config() returns;
    they and tokens_trained are at most 2**63 - 1. A flops of None is filled
    from 6 * (N_nv + N_v) * D; flops and normalized_loss are kept as floats.
    """

    run_id: str
    n_layers: int
    n_heads: int
    d_model: int
    n_ctx: int
    vocab_size: int
    tokens_trained: int
    flops: float | None
    normalized_loss: float
    _config: ModelConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.run_id, str) or not self.run_id:
            raise ValueError("run_id must be a non-empty string")
        config = ModelConfig(self.n_layers, self.n_heads, self.d_model, self.n_ctx, self.vocab_size)
        object.__setattr__(self, "_config", config)
        _check_int("tokens_trained", self.tokens_trained, 1, _INT64_MAX)
        flops = self.flops
        if flops is None:
            flops = flops_approx(self.n_nv(), self.n_v, self.tokens_trained)
        object.__setattr__(self, "flops", _check_real("flops", flops, "positive"))
        object.__setattr__(self, "normalized_loss",
                           _check_real("normalized_loss", self.normalized_loss))

    def config(self) -> ModelConfig:
        return self._config

    @property
    def n_v(self) -> int:
        return self.vocab_size * self.d_model

    def n_nv(self) -> int:
        return params_non_embedding(self._config)

    def to_dict(self) -> dict:
        """Field dict in schema order, for JSONL emission."""
        return {name: getattr(self, name) for name in RUN_FIELDS}


# JSONL schema, in serialization order. flops is optional on input.
RUN_FIELDS = tuple(f.name for f in dataclasses.fields(RunRecord) if f.init)


class RunLogError(ValueError):
    """A run log had malformed lines. errors holds (line_number, message) pairs."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        head = "; ".join(f"line {n}: {msg}" for n, msg in errors[:5])
        tail = "" if len(errors) <= 5 else f" (+{len(errors) - 5} more)"
        super().__init__(f"invalid run log: {head}{tail}")


def _record_from_json(obj: object) -> RunRecord:
    if not isinstance(obj, dict):
        raise ValueError("line must be a JSON object")
    unknown = sorted(set(obj) - set(RUN_FIELDS))
    if unknown:
        raise ValueError(f"unexpected field(s): {', '.join(unknown)}")
    missing = sorted(set(RUN_FIELDS) - {"flops"} - set(obj))
    if missing:
        raise ValueError(f"missing field(s): {', '.join(missing)}")
    return RunRecord(**{"flops": None, **obj})


def load_runs(source: IO[str] | IO[bytes] | Iterable[str] | Iterable[bytes] | str | bytes) -> list[RunRecord]:
    """Parse a JSONL run log in strict mode.

    source may be an open file, an iterable of lines, or the whole document as
    one string. Blank lines are skipped. Every malformed line is reported with
    its line number in a single RunLogError; nothing is returned unless the
    entire log is valid. run_ids must be unique. Records without flops get it
    filled from the compute approximation.
    """
    if isinstance(source, (str, bytes)):
        source = source.splitlines()
    records: list[RunRecord] = []
    errors: list[tuple[int, str]] = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        line = line.strip()
        if not line:
            continue
        try:
            record = _record_from_json(json.loads(line))
        except (ValueError, TypeError) as exc:
            msg = str(exc) or exc.__class__.__name__
            errors.append((lineno, msg))
            continue
        earlier = first_line.setdefault(record.run_id, lineno)
        if earlier != lineno:
            errors.append((lineno, f"duplicate run_id {record.run_id!r} (first on line {earlier})"))
        records.append(record)
    if errors:
        raise RunLogError(errors)
    return records


@dataclass
class CodeUsageHistogram:
    """Usage counts per quantizer code: counts[k] is how often code k fired; total is the sum."""

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self) -> None:
        self.counts = _check_int_array("counts", self.counts, (None,), 0)
        self.total = int(self.counts.sum(dtype=object))  # exact: an int64 sum can wrap


class CodebookMetrics(NamedTuple):
    utilization: float
    shannon_entropy_nats: float
    exp_entropy: float


def codebook_metrics(hist: CodeUsageHistogram) -> CodebookMetrics:
    """Utilization, Shannon entropy (nats), and exponential entropy of usage.

    Zero-count codes contribute nothing to the entropy (0 * log 0 = 0).
    exp_entropy is the effective number of codes in use, at most K, equal to K
    exactly when usage is uniform.
    """
    if hist.total == 0:
        raise ValueError("no observations: histogram total is zero")
    counts = hist.counts
    p = counts[counts > 0] / hist.total
    entropy = float(-(p * np.log(p)).sum())
    return CodebookMetrics(
        utilization=float(np.count_nonzero(counts) / counts.size),
        shannon_entropy_nats=entropy,
        exp_entropy=float(np.exp(entropy)),
    )
