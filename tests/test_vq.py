"""Vector quantizer: nearest-neighbor assignment, EMA training, resets."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamo_lab import (
    VqCodebook,
    VqTrainParams,
    commitment_loss,
    vq_assign,
    vq_ema_update,
    vq_quantize,
    vq_reset,
)


def fresh(entries):
    return VqCodebook.fresh(np.asarray(entries, dtype=np.float64))


def test_fresh_state():
    entries = np.array([[0.0, 0.0], [1.0, 1.0]])
    cb = VqCodebook.fresh(entries)
    assert cb.size == 2 and cb.dim == 2
    assert np.array_equal(cb.usage_counts, [1.0, 1.0])
    assert np.array_equal(cb.ema_sums, entries)
    entries[0, 0] = 99.0  # fresh() must have copied
    assert cb.entries[0, 0] == 0.0


def test_codebook_validation():
    with pytest.raises(ValueError):
        VqCodebook(entries=np.zeros(3), usage_counts=np.ones(3), ema_sums=np.zeros(3))
    with pytest.raises(ValueError):
        VqCodebook(entries=np.array([[np.inf]]), usage_counts=np.ones(1), ema_sums=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        VqCodebook(entries=np.zeros((2, 1)), usage_counts=np.ones(3), ema_sums=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        VqCodebook(entries=np.zeros((2, 1)), usage_counts=-np.ones(2), ema_sums=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        VqCodebook(entries=np.zeros((2, 1)), usage_counts=np.ones(2), ema_sums=np.zeros((2, 2)))


def test_quantize_nearest():
    cb = fresh([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    a = vq_quantize(np.array([1.9, 0.1]), cb)
    assert a.index == 1
    assert np.array_equal(a.entry, [2.0, 0.0])


def test_quantize_tie_picks_lowest_index():
    cb = fresh([[1.0], [-1.0], [1.0]])
    assert vq_quantize(np.array([0.0]), cb).index == 0
    # duplicate rows give bit-identical distances; first one wins
    cb = fresh([[3.0, 4.0], [3.0, 4.0]])
    assert vq_quantize(np.array([0.0, 0.0]), cb).index == 0


def test_quantize_entry_is_a_copy():
    cb = fresh([[1.0, 2.0]])
    a = vq_quantize(np.array([0.0, 0.0]), cb)
    a.entry[0] = 99.0
    assert cb.entries[0, 0] == 1.0


def test_quantize_input_checks():
    cb = fresh([[0.0, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        vq_quantize(np.zeros(3), cb)
    with pytest.raises(ValueError, match="finite"):
        vq_quantize(np.array([np.nan, 0.0]), cb)


def test_commitment_loss():
    assert commitment_loss([1.0, 2.0], [1.0, 2.0], 1.0) == 0.0
    assert commitment_loss([1.0, 0.0], [0.0, 2.0], 1.0) == 5.0
    assert commitment_loss([1.0, 0.0], [0.0, 2.0], 0.25) == 1.25
    with pytest.raises(ValueError):
        commitment_loss([1.0], [1.0], -0.5)
    with pytest.raises(ValueError):
        commitment_loss([1.0], [1.0, 2.0], 1.0)


def test_train_params_validation():
    VqTrainParams()
    with pytest.raises(ValueError):
        VqTrainParams(alpha=-1.0)
    with pytest.raises(ValueError):
        VqTrainParams(ema_decay=0.0)
    with pytest.raises(ValueError):
        VqTrainParams(ema_decay=1.0)
    with pytest.raises(ValueError):
        VqTrainParams(reset_threshold=-0.1)
    with pytest.raises(ValueError):
        VqTrainParams(rng_seed=1.5)


def test_ema_update_hand_computed():
    cb = fresh([[0.0], [10.0]])
    params = VqTrainParams(ema_decay=0.99)
    new = vq_ema_update(np.array([[1.0], [1.0]]), cb, params)
    # both vectors map to code 0: n = [2, 0], batch sums = [[2], [0]]
    assert np.allclose(new.usage_counts, [1.01, 0.99])
    assert np.allclose(new.ema_sums, [[0.02], [9.9]])
    assert np.allclose(new.entries, [[0.02 / 1.01], [10.0]])


def test_ema_update_does_not_mutate_input():
    cb = fresh([[0.0], [10.0]])
    before = cb.entries.copy()
    vq_ema_update(np.array([[1.0]]), cb, VqTrainParams())
    assert np.array_equal(cb.entries, before)
    assert np.array_equal(cb.usage_counts, [1.0, 1.0])


def test_ema_update_keeps_entry_when_usage_hits_zero():
    cb = VqCodebook(
        entries=np.array([[0.0], [10.0]]),
        usage_counts=np.array([1.0, 0.0]),
        ema_sums=np.array([[0.0], [0.0]]),
    )
    new = vq_ema_update(np.array([[0.1]]), cb, VqTrainParams())
    assert new.usage_counts[1] == 0.0
    assert new.entries[1, 0] == 10.0  # untouched, no division by zero


def test_ema_update_converges_to_cluster_means():
    # two clusters far apart keep their assignments stable, so the EMA state
    # converges geometrically to the per-cluster batch statistics
    rng = np.random.default_rng(11)
    batch = np.concatenate(
        [rng.normal(0.0, 0.1, size=(32, 3)), rng.normal(10.0, 0.1, size=(32, 3))]
    )
    state = fresh([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
    params = VqTrainParams(ema_decay=0.5)
    for _ in range(40):
        state = vq_ema_update(batch, state, params)
    assert np.allclose(state.entries[0], batch[:32].mean(axis=0), atol=1e-9)
    assert np.allclose(state.entries[1], batch[32:].mean(axis=0), atol=1e-9)
    assert np.allclose(state.usage_counts, [32.0, 32.0], atol=1e-9)


def test_reset_replaces_dead_codes():
    cb = VqCodebook(
        entries=np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]]),
        usage_counts=np.array([2.0, 0.1, 0.5]),
        ema_sums=np.zeros((3, 2)),
    )
    batch = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    params = VqTrainParams(reset_threshold=1.0, rng_seed=123)
    result = vq_reset(cb, batch, params)
    assert result.n_reset == 2
    new = result.codebook
    assert np.array_equal(new.entries[0], [0.0, 0.0])  # live code untouched
    assert new.usage_counts[0] == 2.0
    picks = np.random.default_rng(123).integers(0, 3, size=2)
    assert np.array_equal(new.entries[[1, 2]], batch[picks])
    assert np.array_equal(new.ema_sums[[1, 2]], batch[picks])
    assert np.array_equal(new.usage_counts[[1, 2]], [1.0, 1.0])
    assert cb.usage_counts[1] == 0.1  # input not mutated


def test_reset_noop_when_all_alive():
    cb = fresh([[0.0], [1.0]])
    result = vq_reset(cb, np.array([[5.0]]), VqTrainParams(reset_threshold=0.5))
    assert result.n_reset == 0
    assert np.array_equal(result.codebook.entries, cb.entries)


def test_reset_deterministic():
    cb = VqCodebook(
        entries=np.zeros((8, 2)),
        usage_counts=np.zeros(8),
        ema_sums=np.zeros((8, 2)),
    )
    batch = np.random.default_rng(0).normal(size=(100, 2))
    params = VqTrainParams(rng_seed=42)
    a = vq_reset(cb, batch, params)
    b = vq_reset(cb, batch, params)
    assert np.array_equal(a.codebook.entries, b.codebook.entries)
    c = vq_reset(cb, batch, VqTrainParams(rng_seed=43))
    assert not np.array_equal(a.codebook.entries, c.codebook.entries)


def test_batch_shape_checks():
    cb = fresh([[0.0, 0.0]])
    with pytest.raises(ValueError, match="batch"):
        vq_ema_update(np.zeros((0, 2)), cb, VqTrainParams())
    with pytest.raises(ValueError, match="batch"):
        vq_reset(cb, np.zeros(2), VqTrainParams())


# ---------------------------------------------------------------------------
# batched assignment against the exhaustive first-minimum scan


def scan(batch, entries):
    """Exact squared distance to every entry; the first index of the minimum."""
    out = []
    for z in batch:
        d2 = ((entries - z) ** 2).sum(axis=1)
        out.append(int(np.flatnonzero(d2 == d2.min())[0]))
    return np.array(out, dtype=np.int64)


def check_against_scan(batch, entries):
    got = vq_assign(batch, fresh(entries))
    assert got.dtype == np.int64 and got.shape == (len(batch),)
    assert np.array_equal(got, scan(batch, entries))


SEEDS = st.integers(0, 2**32 - 1)
SCALES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # 1e-3 .. 1e3
ROWS = st.integers(1, 600)  # past two blocks of rows


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 300), d=st.integers(1, 12), n=ROWS, scale=SCALES,
       duplicates=st.booleans(), seed=SEEDS)
def test_assign_random(k, d, n, scale, duplicates, seed):
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(k, d)) * scale
    if duplicates:  # exact duplicates give bit-identical distances
        entries[rng.integers(0, k, size=k // 2 + 1)] = entries[rng.integers(0, k)]
    check_against_scan(rng.normal(size=(n, d)) * scale, entries)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 10), n=ROWS, scale=SCALES, data=st.data(), seed=SEEDS)
def test_assign_lattice_ties(d, n, scale, data, seed):
    # {0, 1/2, 1}^d points sit exactly halfway between {0, 1}^d corners on
    # every half coordinate, so most rows tie between several entries
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, 2**d))
    corners = rng.choice(2**d, size=k, replace=False)
    entries = ((corners[:, None] >> np.arange(d)) & 1).astype(np.float64)
    batch = rng.choice([0.0, 0.5, 1.0], size=(n, d))
    check_against_scan(batch * scale, entries * scale)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 200), d=st.integers(1, 12), n=ROWS, scale=SCALES, seed=SEEDS)
def test_assign_near_equidistant_midpoints(k, d, n, scale, seed):
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(k, d)) * scale
    i, j = rng.integers(0, k, size=(2, n))
    mid = (entries[i] + entries[j]) / 2
    rel = 10.0 ** rng.uniform(-17, -12, size=(n, 1))  # down to below one ulp
    batch = mid * (1.0 + rel * rng.uniform(-1.0, 1.0, size=(n, d)))
    check_against_scan(batch, entries)


def test_assign_matches_per_row_quantize():
    rng = np.random.default_rng(7)
    entries = rng.normal(size=(64, 3))
    entries[40] = entries[3]
    batch = np.concatenate([rng.normal(size=(500, 3)), entries[[3, 40, 0]]])
    per_row = [vq_quantize(z, fresh(entries)).index for z in batch]
    assert vq_assign(batch, fresh(entries)).tolist() == per_row


def test_assign_overflowing_norms_take_the_exact_scan():
    # |z|^2 and |e|^2 overflow to inf, so |e|^2 - 2 z.e would shortlist
    # index 0; the exact distance to entry 1 is 0
    entries = np.array([[1e160], [1e160 + 1e146]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vq_assign(entries[1:], fresh(entries)).tolist() == [1]
        assert vq_quantize(entries[1], fresh(entries)).index == 1


def test_assign_memory_does_not_grow_with_rows():
    rng = np.random.default_rng(3)
    entries, batch = rng.normal(size=(512, 4)), rng.normal(size=(8192, 4))
    tracemalloc.start()
    try:
        vq_assign(batch, fresh(entries))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8192 * 512 * 8 / 8  # an eighth of the 32 MB an (n, K) matrix would take


def test_assign_memory_is_bounded_when_every_entry_ties():
    # an all-zero codebook puts all K entries of every row in the re-check;
    # gathering those 256 * K pairs at once would take 67 MB per (pairs, d) array
    entries, batch = np.zeros((512, 64)), np.random.default_rng(4).normal(size=(8192, 64))
    tracemalloc.start()
    try:
        got = vq_assign(batch, fresh(entries))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not got.any()
    assert peak < 12 * 256 * 512 * 8  # a dozen (256, K) shortlist blocks, whatever d is
