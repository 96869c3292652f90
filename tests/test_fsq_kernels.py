"""The blocked FSQ kernels against the whole-array forms they replaced.

The references below are `fsq_quantize`, `fsq_dequantize`, `fsq_encode_index`
and `fsq_decode_index` as they were before the kernels walked rows in blocks of
`_BLOCK_ROWS`: one full-size temporary per op, `np.ravel_multi_index` and
`np.unravel_index`. The kernels must give equal arrays (dtype, shape and
memory order included) and the same error text, on every layout of input, and
the same bytes whatever number of threads their row blocks are split over.
"""

import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scamo_lab import (SteForward, codebook_size, fsq, fsq_decode_index, fsq_dequantize,
                       fsq_encode_index, fsq_quantize, fsq_ste_forward)
from scamo_lab.flops import _check_int_array, _check_real_array
from scamo_lab.fsq import _BLOCK_ROWS, _MAX_LEVEL, _levels_of, _rows

# ---------------------------------------------------------------------------
# references: the whole-array kernels


def reference_quantize(z, levels):
    lv = _levels_of(levels)
    z = _check_real_array("latents", z, _rows(lv))
    spans = np.asarray(lv.levels, dtype=np.float64) - 1.0
    with np.errstate(over="ignore"):
        sigmoid = 1.0 / (1.0 + np.exp(-z))
    return (1 + np.floor(sigmoid * spans + 0.5)).astype(np.int64)


def reference_dequantize(q, levels):
    lv = _levels_of(levels)
    q = _check_int_array("codes", q, _rows(lv), 1, lv.levels)
    return (q - 1) / (np.asarray(lv.levels, dtype=np.float64) - 1.0)


def reference_ste(z, levels):
    """fsq_ste_forward as the composition it was: quantize, dequantize, and a second sigmoid."""
    lv = _levels_of(levels)
    z = _check_real_array("latents", z, _rows(lv))
    with np.errstate(over="ignore"):
        sigmoid = 1.0 / (1.0 + np.exp(-z))
    return SteForward(reference_dequantize(reference_quantize(z, levels), levels),
                      sigmoid * (1.0 - sigmoid))


def reference_encode(q, levels):
    lv = _levels_of(levels)
    q = _check_int_array("codes", q, _rows(lv), 1, lv.levels)
    idx = np.ravel_multi_index(tuple((q - 1).T[::-1]), lv.levels[::-1])
    return int(idx) if q.ndim == 1 else idx


def reference_decode(index, levels):
    lv = _levels_of(levels)
    idx = _check_int_array("index", index, lambda ndim: () if ndim == 0 else (None,), 0,
                           codebook_size(lv) - 1)
    codes = np.stack(np.unravel_index(idx, lv.levels[::-1])[::-1], axis=-1)
    codes += 1
    return codes


# ---------------------------------------------------------------------------
# inputs

B = _BLOCK_ROWS
ROW_COUNTS = [None, 1, 2, B - 1, B, B + 1, 2 * B + 1]  # None: one vector of shape (dim,)
LAYOUTS = ["contiguous", "transposed", "strided", "narrow", "list"]
SPECIALS = [np.inf, -np.inf, 800.0, -800.0, np.nan, 0.0]
WIDE_LEVELS = [(3037000499, 3037000499), (2, 3037000499, 3037000499 // 2),
               (_MAX_LEVEL, 2047), (_MAX_LEVEL,), (2**52 - 1, 3)]


def _layout(a: np.ndarray, how: str):
    """The values of a, laid out as how says: a transposed or strided view, a narrower dtype
    (float32 for latents, int32 for codes and indices that fit it) or a nested list."""
    if how == "transposed":
        return a.T.copy().T
    if how == "strided":
        wide = np.zeros(tuple(2 * n for n in a.shape), dtype=a.dtype)
        view = wide[(..., *(slice(None, None, 2) for _ in a.shape))]  # ...: a 0-d a stays an array
        view[...] = a
        return view
    if how == "narrow" and (a.dtype.kind == "f"  # initial: a may be empty
                            or np.abs(a).max(initial=0) <= np.iinfo(np.int32).max):
        return a.astype(np.float32 if a.dtype.kind == "f" else np.int32)
    return a.tolist() if how == "list" else a


def _copy(value):
    return value.copy() if isinstance(value, np.ndarray) else value


def _same(kernel, reference, value, levels):
    """kernel and reference agree on value: equal results or the same ValueError text. Neither
    changes its input. Returns the result, or None on an error."""
    before = _copy(value)
    try:
        want = reference(value, levels)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            kernel(value, levels)
        assert str(err.value) == str(exc)
        return None
    got = kernel(value, levels)
    assert np.array_equal(np.asarray(value), np.asarray(before))
    if isinstance(want, int):
        assert type(got) is int and got == want
    else:
        assert (got.dtype, got.shape, got.flags.c_contiguous, got.flags.f_contiguous) == (
            want.dtype, want.shape, want.flags.c_contiguous, want.flags.f_contiguous)
        assert np.array_equal(got, want)
    return got


@st.composite
def fsq_cases(draw):
    levels = draw(st.one_of(
        st.lists(st.integers(2, 9), min_size=1, max_size=8),
        st.lists(st.integers(2, 2**21), min_size=1, max_size=8)
        .filter(lambda lv: math.prod(lv) <= 2**63 - 1),
        st.sampled_from(WIDE_LEVELS),
    ))
    rows = draw(st.sampled_from(ROW_COUNTS))
    layout = draw(st.sampled_from(LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(levels),) if rows is None else (rows, len(levels))
    z = rng.normal(0.0, draw(st.sampled_from([0.5, 3.0, 40.0])), size=shape)
    flat = z.reshape(-1)
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from(SPECIALS))
    return tuple(levels), z, layout, draw(st.sampled_from([None, "low", "high"])), rng


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(fsq_cases())
@example((WIDE_LEVELS[0], np.zeros(2), "strided", None, np.random.default_rng(0)))  # a 0-d index
def test_kernels_match_the_whole_array_references(case):
    levels, z, layout, out_of_range, rng = case
    q = _same(fsq_quantize, reference_quantize, _layout(z, layout), levels)
    if q is None:
        assert not np.isfinite(z).all()  # only a NaN or an infinity is refused
        return
    assert q.min() >= 1 and (q <= np.asarray(levels)).all()
    _same(fsq_dequantize, reference_dequantize, _layout(q, layout), levels)

    q = q.copy()
    q.reshape(-1, len(levels))[-1] = levels  # the largest code: index prod(levels) - 1
    if out_of_range is not None:
        row = q.reshape(-1, len(levels))[0]
        channel = int(rng.integers(len(levels)))
        row[channel] = 0 if out_of_range == "low" else levels[channel] + 1
    idx = _same(fsq_encode_index, reference_encode, _layout(q, layout), levels)
    if out_of_range is not None:
        assert idx is None
        return
    assert np.asarray(idx).reshape(-1)[-1] == math.prod(levels) - 1

    idx = np.asarray(idx, dtype=np.int64)  # a single vector's index is 0-d
    codes = _same(fsq_decode_index, reference_decode, _layout(idx, layout), levels)
    assert np.array_equal(codes, q)


@pytest.mark.parametrize("index", [-1, "size"])
def test_decode_out_of_range_index_matches_the_reference(index):
    levels = (8, 5, 5)
    index = codebook_size(levels) if index == "size" else index
    for value in (index, np.array([0, index]), [[index]]):
        assert _same(fsq_decode_index, reference_decode, value, levels) is None


# ---------------------------------------------------------------------------
# row blocks split over threads

KERNELS = [(fsq_quantize, reference_quantize), (fsq_dequantize, reference_dequantize),
           (fsq_encode_index, reference_encode), (fsq_decode_index, reference_decode)]


def _inputs(rows, levels, seed=0):
    """The input of each of KERNELS: latents, their codes twice and their indices, rows of them,
    or one vector for rows None. Zero rows, which every kernel refuses, give empty arrays."""
    shape = (len(levels),) if rows is None else (rows, len(levels))
    z = np.random.default_rng(seed).normal(0.0, 3.0, size=shape)
    if rows == 0:
        q = np.ones(shape, dtype=np.int64)
        return z, q, q, np.zeros(0, dtype=np.int64)
    q = reference_quantize(z, levels)
    return z, q, q, np.asarray(reference_encode(q, levels), dtype=np.int64)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this OS")
def test_workers_are_the_cpus_in_the_affinity_mask():
    assert fsq._WORKERS == len(os.sched_getaffinity(0))  # 1 under `taskset -c 0`


@pytest.mark.parametrize("levels", [(8, 5, 5, 5), (2**52 - 1, 3)])
@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_kernels_give_the_same_bytes_for_any_worker_count(monkeypatch, levels, rows, layout):
    inputs = _inputs(rows, levels, seed=rows)
    results = {}
    for workers in range(1, 8):
        monkeypatch.setattr(fsq, "_WORKERS", workers)
        results[workers] = [_same(kernel, reference, _layout(value, layout), levels)
                            for (kernel, reference), value in zip(KERNELS, inputs)]
    first = results[1]
    for got in results.values():
        for a, b in zip(first, got):
            assert (a is None) == (b is None)  # an input a reference refuses is refused alike
            if a is not None:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_a_failing_run_raises_on_the_caller_after_every_thread_is_joined(monkeypatch):
    monkeypatch.setattr(fsq, "_WORKERS", 3)
    before, caller, runs = threading.active_count(), threading.current_thread(), {}

    def kernel(block):
        runs.setdefault(threading.current_thread(), []).append((block.start, block.stop))
        if block.start == fail_at:
            raise RuntimeError(f"block {block.start}:{block.stop}")

    # 8 blocks on 3 workers: runs of ceil(8 / 3) whole blocks, each walked in order
    fail_at = None
    fsq._fan_out(7 * B + 1, kernel)
    assert runs.pop(caller) == [(0, B), (B, 2 * B), (2 * B, 3 * B)]
    assert sorted(runs.values()) == [[(3 * B, 4 * B), (4 * B, 5 * B), (5 * B, 6 * B)],
                                     [(6 * B, 7 * B), (7 * B, 7 * B + 1)]]
    assert threading.active_count() == before

    # 4 blocks: 2 runs of 2; the second fails at its first block and walks no further
    runs.clear()
    fail_at = 2 * B
    with pytest.raises(RuntimeError, match=f"^block {2 * B}:{3 * B}$"):
        fsq._fan_out(3 * B + 7, kernel)
    assert runs.pop(caller) == [(0, B), (B, 2 * B)]
    assert list(runs.values()) == [[(2 * B, 3 * B)]]
    assert threading.active_count() == before

    def sigmoid_off_the_caller(z):
        if threading.current_thread() is caller:
            return real_sigmoid(z)
        raise FloatingPointError("in a worker")

    real_sigmoid = fsq._sigmoid
    monkeypatch.setattr(fsq, "_sigmoid", sigmoid_off_the_caller)
    with pytest.raises(FloatingPointError, match="in a worker"):
        fsq_quantize(np.zeros((2 * B, 3)), (8, 5, 5))
    assert threading.active_count() == before


def test_threads_start_only_from_two_blocks_and_all_end(monkeypatch):
    monkeypatch.setattr(fsq, "_WORKERS", 7)
    started, real_start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (started.append(thread), real_start(thread))[1])
    levels = (8, 5, 5)
    for rows, threads in [(None, 0), (1, 0), (B - 1, 0), (B, 0), (B + 1, 1), (3 * B + 7, 3)]:
        for (kernel, _), value in zip(KERNELS, _inputs(rows, levels)):
            before = threading.active_count()
            started.clear()
            kernel(value, levels)
            assert len(started) == threads, (kernel.__name__, rows)
            assert threading.active_count() == before


def test_many_runs_under_fast_thread_switching(monkeypatch):
    """More threads than cores, switched every microsecond: each run writes its own rows only."""
    monkeypatch.setattr(fsq, "_WORKERS", 7)
    monkeypatch.setattr(fsq, "_BLOCK_ROWS", 16)  # 63 blocks of 1000 rows: 7 runs of 9 blocks
    levels = (8, 5, 5)
    z, q, _, idx = _inputs(1000, levels)
    v = reference_dequantize(q, levels)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert np.array_equal(fsq_quantize(z, levels), q)
            assert np.array_equal(fsq_dequantize(q, levels), v)
            assert np.array_equal(fsq_encode_index(q, levels), idx)
            assert np.array_equal(fsq_decode_index(idx, levels), q)
    finally:
        sys.setswitchinterval(interval)


def test_quantize_keeps_its_errstate_on_every_thread(monkeypatch):
    """numpy's errstate is per thread: no worker inherits the caller's or lets a warning out."""
    monkeypatch.setattr(fsq, "_WORKERS", 3)
    levels = (8, 5, 5)
    z = np.resize(np.array([800.0, -800.0, 1e308, -1e308, 0.25]), (3 * B + 7, len(levels)))
    want = reference_quantize(z, levels)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = fsq_quantize(z, levels)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# each kernel judges its own block's values, on the thread that reads the block


@pytest.mark.parametrize("workers", range(1, 8))
def test_a_bad_value_in_a_worker_runs_last_block_gives_the_reference_error(monkeypatch, workers):
    monkeypatch.setattr(fsq, "_WORKERS", workers)
    raised, check_block, int_rule = [], fsq._check_real_block, fsq._int_rule

    def noted(check):
        def judged(*args):
            try:
                check(*args)
            except ValueError:
                raised.append(threading.current_thread())
                raise
        return judged

    monkeypatch.setattr(fsq, "_check_real_block", noted(check_block))
    monkeypatch.setattr(fsq, "_int_rule", lambda *args: noted(int_rule(*args)))
    levels = (8, 5, 5)
    z, q, _, idx = _inputs(3 * B + 7, levels)  # 4 blocks: the last is a worker's from 2 workers
    z[-1, 1], q = np.nan, q.copy()
    q[-1, 0] = 9
    idx = np.r_[idx[:-1], codebook_size(levels)]
    for (kernel, reference), value in zip([*KERNELS, (fsq_ste_forward, reference_ste)],
                                          [z, q, q, idx, z]):
        raised.clear()
        assert _same(kernel, reference, value, levels) is None, kernel.__name__
        assert raised == [threading.current_thread()] if workers == 1 else (
            len(raised) == 1 and raised[0] is not threading.current_thread())


@pytest.mark.parametrize("rows", [None, 1, B - 1, B + 1, 3 * B + 7])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_ste_forward_is_its_composition_from_one_sigmoid(monkeypatch, rows, layout):
    levels = (8, 8, 8, 5, 5, 5)
    z = _inputs(rows, levels, seed=3)[0]
    z.reshape(-1)[:6] = [800.0, -800.0, 0.0, 1e30, -1e-30, 40.0]  # each within float32's range
    seen, sigmoid = [], fsq._sigmoid
    monkeypatch.setattr(fsq, "_sigmoid", lambda x: (seen.append(x.size), sigmoid(x))[1])
    for workers in (1, 3):
        monkeypatch.setattr(fsq, "_WORKERS", workers)
        seen.clear()
        value = _layout(z, layout)
        got, want = fsq_ste_forward(value, levels), reference_ste(value, levels)
        assert sum(seen) == z.size  # one sigmoid of each latent
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.flags.c_contiguous, a.flags.f_contiguous) == (
                b.dtype, b.shape, b.flags.c_contiguous, b.flags.f_contiguous)
            assert a.tobytes() == b.tobytes()
