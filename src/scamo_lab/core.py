"""Run-log records and codebook usage metrics.

Training runs travel as JSONL, one object per line, with the fields of
RunRecord. Loading is strict: any malformed line fails the whole load, and
records missing a flops value get it filled from the 6 * (N_nv + N_v) * D
approximation. Every run is costed with a feed-forward width of 4 * d_model.
"""

from __future__ import annotations

import array
import contextlib
import dataclasses
import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple

import numpy as np

from .flops import (_INT64_MAX, ModelConfig, _check_int, _check_int_array, _check_real,
                    flops_approx, params_non_embedding)

__all__ = [
    "RUN_FIELDS",
    "RunRecord",
    "RunLogError",
    "RunTable",
    "load_runs",
    "CodeUsageHistogram",
    "CodebookMetrics",
    "codebook_metrics",
]

@dataclass(frozen=True, slots=True)
class RunRecord:
    """One training run from a scaling sweep.

    normalized_loss is a per-token loss in nats measured against a baseline,
    so negative values are legal (the model beats the baseline). The five
    shape fields are checked under their own names, then the ModelConfig that
    config() returns adds the divisibility rule; they and tokens_trained are
    at most 2**63 - 1. A flops of None is filled from 6 * (N_nv + N_v) * D;
    flops and normalized_loss are kept as floats. This is the one place that
    judges a run and words its error; the loader only flags rows for it.
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

    def __post_init__(self) -> None:
        if not isinstance(self.run_id, str) or not self.run_id:
            raise ValueError("run_id must be a non-empty string")
        for name in RUN_FIELDS[1:6]:  # the shape fields, named as in the log
            _check_int(name, getattr(self, name), 1, _INT64_MAX)
        config = self.config()  # the divisibility rule
        _check_int("tokens_trained", self.tokens_trained, 1, _INT64_MAX)
        flops = self.flops
        if flops is None:
            flops = flops_approx(params_non_embedding(config), self.n_v, self.tokens_trained)
        object.__setattr__(self, "flops", _check_real("flops", flops, "positive"))
        object.__setattr__(self, "normalized_loss",
                           _check_real("normalized_loss", self.normalized_loss))

    def config(self) -> ModelConfig:
        return ModelConfig(self.n_layers, self.n_heads, self.d_model, self.n_ctx, self.vocab_size)

    @property
    def n_v(self) -> int:
        return self.vocab_size * self.d_model

    def n_nv(self) -> int:
        return params_non_embedding(self.config())

    def to_dict(self) -> dict:
        """Field dict in schema order, for JSONL emission."""
        return {name: getattr(self, name) for name in RUN_FIELDS}


# JSONL schema, in serialization order. flops is optional on input.
RUN_FIELDS = tuple(f.name for f in dataclasses.fields(RunRecord))
_REAL_FIELDS = ("flops", "normalized_loss")  # float64 columns; the other six are int64


class RunLogError(ValueError):
    """A run log had malformed lines. errors holds (line_number, message) pairs."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        head = "; ".join(f"line {n}: {msg}" for n, msg in errors[:5])
        tail = "" if len(errors) <= 5 else f" (+{len(errors) - 5} more)"
        super().__init__(f"invalid run log: {head}{tail}")


class RunTable(Sequence):
    """Runs as checked columns: run_id a list of str, the six integer fields read-only int64
    arrays, flops and normalized_loss read-only float64 arrays, each named as its RunRecord
    field. table[i] builds that run's RunRecord on demand and a slice is a table; a table
    equals any sequence of equal records. RunTable(records) builds one from RunRecords."""

    __slots__ = RUN_FIELDS

    def __init__(self, records: Iterable[RunRecord] = ()):
        rows = [tuple(getattr(r, name) for name in RUN_FIELDS) for r in records]
        self._set(*(zip(*rows) if rows else [()] * len(RUN_FIELDS)))

    @classmethod
    def _of(cls, *columns) -> "RunTable":
        """A table of columns in RUN_FIELDS order, each already checked by the caller."""
        return cls.__new__(cls)._set(*columns)

    def _set(self, run_id, *columns) -> "RunTable":
        self.run_id = list(run_id)
        for name, column in zip(RUN_FIELDS[1:], columns):
            array = np.asarray(column, dtype=np.float64 if name in _REAL_FIELDS else np.int64)
            array.flags.writeable = False
            setattr(self, name, array)
        return self

    def __len__(self) -> int:
        return len(self.run_id)

    def __getitem__(self, index):  # Sequence iterates through this, the one row builder
        if isinstance(index, slice):
            return RunTable._of(self.run_id[index], *(getattr(self, name)[index]
                                                      for name in RUN_FIELDS[1:]))
        return RunRecord(self.run_id[index], *(getattr(self, name).item(index)
                                               for name in RUN_FIELDS[1:]))

    def __eq__(self, other):
        if isinstance(other, RunTable):
            return self.run_id == other.run_id and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in RUN_FIELDS[1:])
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self) -> str:
        return f"RunTable({len(self)} runs)"


def _row_of(obj: object) -> tuple:
    """A parsed line's values in RUN_FIELDS order, flops None when absent."""
    if isinstance(obj, dict) and tuple(obj) == RUN_FIELDS:
        return tuple(obj.values())
    if not isinstance(obj, dict):
        raise ValueError("line must be a JSON object")
    unknown = sorted(set(obj) - set(RUN_FIELDS))
    if unknown:
        raise ValueError(f"unexpected field(s): {', '.join(unknown)}")
    missing = sorted(set(RUN_FIELDS) - {"flops"} - set(obj))
    if missing:
        raise ValueError(f"missing field(s): {', '.join(missing)}")
    return tuple(obj.get(name) for name in RUN_FIELDS)


def _column(name: str, values: tuple) -> tuple[np.ndarray, np.ndarray]:
    """values as the field's array, and the mask of rows flagged for RunRecord to judge, each
    holding 1. The mask holds every row that breaks the field's rule (an int, never a bool, in
    [1, 2**63 - 1], or for flops and normalized_loss an int or float, finite and, for flops,
    positive), and may hold some valid ones."""
    real = name in _REAL_FIELDS
    dtype, kinds = (np.float64, {int, float}) if real else (np.int64, {int})
    array, flagged = None, False
    if set(map(type, values)) <= kinds:  # the common case
        with contextlib.suppress(OverflowError):  # an int past the dtype's range
            array = np.array(values, dtype=dtype)
    if array is None:  # a value of another type, or past range: flagged by type and size
        flagged = np.array([type(v) not in kinds or type(v) is int and not
                            -_INT64_MAX <= v <= _INT64_MAX for v in values], dtype=bool)
        array = np.array([1 if f else v for v, f in zip(values, flagged)], dtype=dtype)
    if real:
        bad = ~np.isfinite(array) | (array <= 0) if name == "flops" else ~np.isfinite(array)
    else:
        bad = array < 1
    bad |= flagged
    array[bad] = 1
    return array, bad


def load_runs(source: IO[str] | IO[bytes] | Iterable[str] | Iterable[bytes] | str | bytes) -> RunTable:
    """Parse a JSONL run log in strict mode.

    source may be an open file, an iterable of lines, or the whole document as
    one string or bytes, split at "\n" only, as a binary file is. Blank lines
    are skipped. Every malformed line is reported with its line number in a
    single RunLogError; nothing is returned unless the entire log is valid.
    run_ids must be unique. Records without flops get it filled from the
    compute approximation. Each line's values go into columns, which are
    screened as arrays. The screen flags every row that breaks a rule or has
    no flops, and may flag a valid one; only a flagged row is built as a
    RunRecord, which judges it.
    """
    if isinstance(source, (str, bytes)):
        source = source.split("\n" if isinstance(source, str) else b"\n")
    errors: list[tuple[int, str]] = []
    rows = _parsed(source, errors)
    # a chunk's values live as Python objects only until they are checked; the kept ones grow
    # each column in place, so no chunk's arrays outlive it and no column is joined at the end
    run_id, linenos = [], array.array("q")
    columns = {name: array.array("d" if name in _REAL_FIELDS else "q") for name in RUN_FIELDS[1:]}
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        ids, numbers, arrays = _checked(chunk, errors)
        run_id += ids
        linenos.extend(numbers)
        for name, values in arrays.items():
            columns[name].frombytes(values.tobytes())
    if len(set(run_id)) < len(run_id):
        first_line: dict[str, int] = {}
        for rid, lineno in zip(run_id, linenos):
            if (earlier := first_line.setdefault(rid, lineno)) != lineno:
                errors.append((lineno, f"duplicate run_id {rid!r} (first on line {earlier})"))
    if errors:
        raise RunLogError(sorted(errors))
    return RunTable._of(run_id, *(np.frombuffer(columns[name], dtype=columns[name].typecode)
                                  for name in RUN_FIELDS[1:]))


_CHUNK_ROWS = 1024
_scan = json.JSONDecoder().scan_once


def _parsed(source: Iterable[str] | Iterable[bytes], errors: list[tuple[int, str]]):
    """(line number, values) of each line that holds a run object; the error of every other
    non-blank line goes to errors."""
    for lineno, raw in enumerate(source, start=1):
        try:  # a line that is not UTF-8 is a ValueError too
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
            if line:
                try:  # json.loads's own C scanner; a line it does not end goes to json.loads
                    obj, end = _scan(line, 0)
                except StopIteration:
                    end = -1
                if end != len(line):
                    obj = json.loads(line)  # raises the parser's own error
                yield lineno, _row_of(obj)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            errors.append((lineno, str(exc) or exc.__class__.__name__))


def _checked(chunk: list[tuple[int, tuple]], errors: list[tuple[int, str]]):
    """The run_ids, line numbers and column arrays of the chunk's rows that obey every rule.

    The columns are screened as arrays; each flagged row is built as a RunRecord, whose error
    goes to errors, or whose fields, flops filled, go back into the arrays."""
    linenos, rows = zip(*chunk)
    columns = dict(zip(RUN_FIELDS, zip(*rows)))
    bad = np.array([type(r) is not str or not r for r in columns["run_id"]], dtype=bool)
    arrays = {}
    for name in RUN_FIELDS[1:]:
        arrays[name], flagged = _column(name, columns[name])
        bad |= flagged
    bad |= arrays["d_model"] % arrays["n_heads"] != 0
    keep = np.ones(len(rows), dtype=bool)
    for i in np.flatnonzero(bad).tolist():
        try:
            record = RunRecord(*rows[i])
            for name in RUN_FIELDS[1:]:
                arrays[name][i] = getattr(record, name)
        except ValueError as exc:
            errors.append((linenos[i], str(exc)))
            keep[i] = False
    return ([r for r, k in zip(columns["run_id"], keep) if k],
            [n for n, k in zip(linenos, keep) if k], {name: a[keep] for name, a in arrays.items()})


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
    entropy = float(0.0 - (p * np.log(p)).sum())  # 0.0, not -0.0, when one code takes every row
    return CodebookMetrics(
        utilization=float(np.count_nonzero(counts) / counts.size),
        shannon_entropy_nats=entropy,
        exp_entropy=float(np.exp(entropy)),
    )
