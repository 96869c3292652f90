"""Finite scalar quantizer: rounding, codec, surrogate gradient."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logit

from scamo_lab import (
    LEVEL_PRESETS,
    FsqLevels,
    codebook_size,
    fsq_decode_index,
    fsq_dequantize,
    fsq_encode_index,
    fsq_quantize,
    fsq_ste_forward,
)
from scamo_lab.fsq import _LATENT_EPS, _logit, _sigmoid

PRESET_SIZES = {
    "2^4": 15,
    "2^6": 64,
    "2^8": 240,
    "2^9": 512,
    "2^10": 1000,
    "2^11": 1920,
    "2^12": 4375,
    "2^14": 15360,
    "2^16": 64000,
}


def test_preset_codebook_sizes():
    assert set(LEVEL_PRESETS) == set(PRESET_SIZES)
    for name, size in PRESET_SIZES.items():
        assert codebook_size(LEVEL_PRESETS[name]) == size


def test_levels_validation():
    assert FsqLevels([8, 5]).levels == (8, 5)  # sequence coerced to tuple
    assert FsqLevels((3,)).dimension == 1
    with pytest.raises(ValueError):
        FsqLevels(())
    with pytest.raises(ValueError):
        FsqLevels((8, 1))
    with pytest.raises(ValueError):
        FsqLevels((8, 5.0))
    with pytest.raises(ValueError):
        FsqLevels((2,) * 64)  # 2**64 codes overflow the exact index range


@pytest.mark.parametrize("levels, kind", [
    ({8: 1, 5: 2}, "dict"), ({8, 5, 3}, "set"), (frozenset({8, 5}), "frozenset"),
    ({8: 1}.keys(), "dict_keys"), ("88", "str"), (b"88", "bytes"),
])
def test_levels_refuse_containers_without_counts_in_order(levels, kind):
    """A mapping would be read as its keys, a set in hash order and a string as characters."""
    with pytest.raises(ValueError) as err:
        FsqLevels(levels)
    assert str(err.value) == f"levels must be a sequence of integers, got {kind}"


@pytest.mark.parametrize("level", [2**52 + 2, 2**53, 2**60 + 1000, 2**63 - 1])
def test_level_counts_past_float64_rounding_are_refused(level):
    """Quantize rounds in float64: past 2**52 levels, 50.0 could get a code above the count."""
    with pytest.raises(ValueError) as err:
        FsqLevels((level,))
    assert str(err.value) == f"every level count must be an integer in [2, {2**52}], got {level}"


@pytest.mark.parametrize("level", [2**52, 2**52 - 1, 2**51 + 1])
def test_codes_stay_in_range_up_to_the_level_cap(level):
    z = np.array([[50.0], [800.0], [0.0], [1e-9], [-50.0]])
    q = fsq_quantize(z, (level,))
    assert q[:2, 0].tolist() == [level, level] and q[-1, 0] == 1
    assert ((q >= 1) & (q <= level)).all()
    assert fsq_decode_index(fsq_encode_index(q, (level,)), (level,)).tolist() == q.tolist()


def test_quantize_at_zero():
    # sigmoid(0) = 0.5: L=5 lands on the center level, L=8 on 0.5*7 = 3.5
    # which rounds half away from zero up to code 5.
    assert fsq_quantize(np.array([0.0]), (5,)) == np.array([3])
    assert fsq_quantize(np.array([0.0]), (8,)) == np.array([5])


def test_quantize_half_away_from_zero():
    # L=2 at z=0: 0.5*1 rounds to 1, not to 0 as banker's rounding would.
    assert fsq_quantize(np.array([0.0]), (2,)) == np.array([2])
    assert fsq_quantize(np.array([0.0]), (6,)) == np.array([4])


def test_quantize_saturates():
    q = fsq_quantize(np.array([37.0, -37.0]), (8, 8))
    assert list(q) == [8, 1]


def test_quantize_shapes_and_dtype():
    lv = LEVEL_PRESETS["2^10"]
    rng = np.random.default_rng(0)
    z = rng.normal(size=(50, 4))
    q = fsq_quantize(z, lv)
    assert q.shape == (50, 4) and q.dtype == np.int64
    single = fsq_quantize(z[3], lv)
    assert single.shape == (4,)
    assert np.array_equal(single, q[3])


def test_quantize_input_checks():
    with pytest.raises(ValueError, match="shape"):
        fsq_quantize(np.zeros(3), (8, 5))
    with pytest.raises(ValueError, match="finite"):
        fsq_quantize(np.array([np.nan, 0.0]), (8, 5))
    with pytest.raises(ValueError, match="shape"):
        fsq_quantize(np.zeros((2, 2, 2)), (8, 5))


def test_dequantize_endpoints_and_center():
    out = fsq_dequantize(np.array([[1], [5], [3]]), (5,))
    assert out.flatten().tolist() == [0.0, 1.0, 0.5]


def test_dequantize_rejects_bad_codes():
    with pytest.raises(ValueError, match="integers"):
        fsq_dequantize(np.array([1.0, 2.0]), (8, 5))
    with pytest.raises(ValueError, match=r"in \[1, \(8, 5\)\]"):
        fsq_dequantize(np.array([0, 2]), (8, 5))
    with pytest.raises(ValueError, match=r"in \[1, \(8, 5\)\]"):
        fsq_dequantize(np.array([1, 6]), (8, 5))


def test_encode_worked_example():
    assert fsq_encode_index(np.array([5, 3]), (5, 3)) == 14
    assert fsq_decode_index(14, (5, 3)).tolist() == [5, 3]


def test_encode_channel_zero_least_significant():
    lv = (8, 5)
    assert fsq_encode_index(np.array([2, 1]), lv) == 1
    assert fsq_encode_index(np.array([1, 2]), lv) == 8


def test_codec_bijective_small_presets():
    for name in ("2^4", "2^6", "2^8", "2^10"):
        lv = LEVEL_PRESETS[name]
        size = codebook_size(lv)
        codes = fsq_decode_index(np.arange(size), lv)
        back = fsq_encode_index(codes, lv)
        assert np.array_equal(back, np.arange(size))
        assert len(np.unique(codes, axis=0)) == size


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(2, 2**21), min_size=1, max_size=8)
       .filter(lambda levels: math.prod(levels) <= 2**63 - 1), st.data())
def test_codec_matches_place_values(levels, data):
    """Encode and decode agree with exact Python-int place values up to the int64 edge."""
    codes = data.draw(st.tuples(*(st.integers(1, n) for n in levels)))
    index = sum((q - 1) * math.prod(levels[:i]) for i, q in enumerate(codes))
    assert fsq_encode_index(np.array(codes), levels) == index
    assert fsq_decode_index(index, levels).tolist() == list(codes)
    assert fsq_encode_index(np.array(levels), levels) == math.prod(levels) - 1


def test_encode_scalar_returns_python_int():
    idx = fsq_encode_index(np.array([1, 1]), (8, 5))
    assert isinstance(idx, int) and idx == 0
    batch = fsq_encode_index(np.array([[1, 1], [8, 5]]), (8, 5))
    assert isinstance(batch, np.ndarray) and batch.tolist() == [0, 39]


def test_decode_shapes():
    assert fsq_decode_index(0, (8, 5)).shape == (2,)
    assert fsq_decode_index(np.arange(4), (8, 5)).shape == (4, 2)


def test_decode_range_checks():
    with pytest.raises(ValueError, match=r"in \[0, 39\]"):
        fsq_decode_index(40, (8, 5))
    with pytest.raises(ValueError, match=r"in \[0, 39\]"):
        fsq_decode_index(-1, (8, 5))
    with pytest.raises(ValueError, match="integer"):
        fsq_decode_index(1.5, (8, 5))


def test_quantize_dequantize_roundtrip_via_latents():
    lv = LEVEL_PRESETS["2^8"]
    size = codebook_size(lv)
    codes = fsq_decode_index(np.arange(size), lv)
    z = _logit(np.clip(fsq_dequantize(codes, lv), _LATENT_EPS, 1 - _LATENT_EPS))
    assert np.isfinite(z).all()
    assert np.array_equal(fsq_quantize(z, lv), codes)


def test_ste_forward_matches_parts():
    lv = LEVEL_PRESETS["2^10"]
    rng = np.random.default_rng(7)
    z = rng.normal(scale=2.0, size=(40, 4))
    out = fsq_ste_forward(z, lv)
    assert np.array_equal(out.value, fsq_dequantize(fsq_quantize(z, lv), lv))
    s = _sigmoid(z)  # test_sigmoid_and_logit_match_scipy ties this to scipy's expit
    assert np.array_equal(out.surrogate_jacobian_diag, s * (1 - s))


def test_ste_jacobian_finite_differences():
    rng = np.random.default_rng(3)
    z = rng.normal(scale=3.0, size=(100, 2))
    jac = fsq_ste_forward(z, (8, 5)).surrogate_jacobian_diag
    h = 1e-5
    fd = (expit(z + h) - expit(z - h)) / (2 * h)
    assert np.abs(jac - fd).max() < 1e-6


def test_list_input_accepted():
    assert fsq_quantize([0.0, 0.0], (5, 5)).tolist() == [3, 3]
    assert fsq_encode_index([[1, 1]], (5, 5)).tolist() == [0]


def _ulps(a, b):
    """Distance in units of the last place between float64 arrays."""
    def ordered(x):
        i = np.asarray(x, dtype=np.float64).view(np.int64)
        return np.where(i < 0, np.iinfo(np.int64).min - i, i)

    return np.abs(ordered(a) - ordered(b))


def _scipy_codes(z, levels):
    spans = np.asarray(levels, dtype=np.float64) - 1.0
    x = expit(z) * spans
    return (1 + np.copysign(np.floor(np.abs(x) + 0.5), x)).astype(np.int64)  # half away from 0


def test_sigmoid_and_logit_match_scipy():
    rng = np.random.default_rng(11)
    z = np.concatenate(
        [rng.normal(scale=4.0, size=1_000_000), rng.uniform(-800.0, 800.0, size=1_000_000)]
    )
    assert _ulps(_sigmoid(z), expit(z)).max() <= 4
    v = np.concatenate(
        [
            rng.uniform(0.0, 1.0, size=1_000_000),
            rng.uniform(0.29, 0.31, size=100_000),  # both ends of the log1p branch
            rng.uniform(0.64, 0.66, size=100_000),
            rng.uniform(0.0, 1e-6, size=50_000),
            1.0 - rng.uniform(0.0, 1e-6, size=50_000),
        ]
    )
    assert _ulps(_logit(v), logit(v)).max() <= 2


def test_sigmoid_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _sigmoid(np.array([-1e300, 1e300])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("preset", ["2^10", "2^16"])
def test_codes_match_scipy_sigmoid(preset):
    lv = LEVEL_PRESETS[preset]
    z = np.random.default_rng(12).normal(scale=2.0, size=(1_000_000, lv.dimension))
    assert np.array_equal(fsq_quantize(z, lv), _scipy_codes(z, lv.levels))


def test_codes_near_rounding_boundaries_differ_only_by_one():
    """Latents within 64 ULP of every rounding boundary for level counts 2..8.

    numpy's exp may differ from scipy's in the last bits, so a latent that sits
    on a boundary can round to the neighbouring code; it can never skip one.
    """
    for level in range(2, 9):
        centers = logit((np.arange(level - 1) + 0.5) / (level - 1))
        steps = [centers]
        up = down = centers
        for _ in range(64):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            steps += [up, down]
        z = np.concatenate(steps)[:, None]
        diff = np.abs(fsq_quantize(z, (level,)) - _scipy_codes(z, (level,)))
        assert diff.max() <= 1
