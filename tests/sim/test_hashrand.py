"""Unit and property tests for counter-based randomness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.hashrand import hash_choice_mask, hash_normal, hash_u64, hash_uniform

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
INDICES = st.integers(min_value=0, max_value=2**31 - 1)


@given(SEEDS, INDICES)
def test_hash_is_deterministic(seed, index):
    assert hash_u64(seed, index) == hash_u64(seed, index)


@given(SEEDS, INDICES)
def test_uniform_in_unit_interval(seed, index):
    u = hash_uniform(seed, index)
    assert 0.0 <= u < 1.0


@given(SEEDS)
@settings(max_examples=25)
def test_vectorized_matches_scalar(seed):
    idx = np.arange(64)
    vec = hash_uniform(seed, idx)
    scalars = np.array([float(hash_uniform(seed, int(i))) for i in idx])
    np.testing.assert_array_equal(vec, scalars)


def test_different_seeds_decorrelate():
    idx = np.arange(4096)
    a = hash_uniform(1, idx)
    b = hash_uniform(2, idx)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_uniform_mean_and_spread():
    u = hash_uniform(42, np.arange(100_000))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.std() - (1.0 / np.sqrt(12.0))) < 0.01


def test_normal_moments():
    z = hash_normal(7, np.arange(100_000))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normal_deterministic():
    np.testing.assert_array_equal(hash_normal(9, np.arange(10)), hash_normal(9, np.arange(10)))


def test_choice_mask_probability():
    mask = hash_choice_mask(3, np.arange(100_000), 0.25)
    assert abs(mask.mean() - 0.25) < 0.01


def test_choice_mask_validates_probability():
    import pytest

    with pytest.raises(ValueError):
        hash_choice_mask(1, 0, 1.5)


ARRAY_SEEDS = st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                       min_size=1, max_size=16)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@given(ARRAY_SEEDS, INDICES)
@settings(max_examples=50)
def test_seed_array_matches_scalar_seeds(seeds, index):
    """Element i of a seed-array draw is the int-seed draw, bit for bit."""
    column = np.array(seeds, dtype=np.uint64)
    for fn in (hash_u64, hash_uniform, hash_normal):
        drawn = fn(column, index)
        assert drawn.shape == column.shape
        for i, seed in enumerate(seeds):
            assert _bits(drawn[i]) == _bits(fn(int(column[i]), index))
            assert int(column[i]) == seed


@given(ARRAY_SEEDS)
@settings(max_examples=25)
def test_seed_array_broadcasts_against_index_arrays(seeds):
    column = np.array(seeds, dtype=np.uint64)
    idx = np.arange(5)
    grid = hash_normal(column[:, None], idx[None, :])
    assert grid.shape == (len(seeds), 5)
    for i, seed in enumerate(seeds):
        assert _bits(grid[i]) == _bits(hash_normal(seed, idx))
    # An index array of the seeds' own shape pairs elementwise.
    paired = hash_normal(column, np.arange(len(seeds)))
    assert _bits(paired) == [
        _bits(hash_normal(seed, i))[0] for i, seed in enumerate(seeds)]


def test_seed_array_with_zero_d_index_and_high_seeds():
    seeds = [2**63, 2**64 - 1, 2**63 + 12345, 0]
    column = np.array(seeds, dtype=np.uint64)
    zero_d = np.asarray(7, dtype=np.uint64)
    drawn = hash_normal(column, zero_d)
    assert _bits(drawn) == [_bits(hash_normal(s, 7))[0] for s in seeds]
    assert _bits(hash_normal(column ^ 0xC0FFEE, 3)) == [
        _bits(hash_normal(s ^ 0xC0FFEE, 3))[0] for s in seeds]


def test_seed_array_must_be_uint64():
    with pytest.raises(TypeError):
        hash_normal(np.array([1, 2], dtype=np.int64), 0)
