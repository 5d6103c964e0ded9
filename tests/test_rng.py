import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpae.rng import Rng, box_muller, derive_seed, draws_at


def test_scalar_and_vector_draws_share_one_stream():
    a = Rng(123)
    b = Rng(123)
    scalar = [a.next_u64() for _ in range(100)]
    vector = b.fill_u64(100)
    assert scalar == list(vector)


def test_mixed_consumption_stays_aligned():
    a = Rng(9)
    first = a.fill_u64(3)
    mid = a.next_u64()
    rest = a.fill_u64(2)
    b = Rng(9)
    expected = b.fill_u64(6)
    assert list(first) + [mid] + list(rest) == list(expected)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50)
def test_uniform_range(seed):
    rng = Rng(seed)
    u = rng.uniform(200)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_uniform_low_high():
    u = Rng(1).uniform(1000, low=-0.03, high=0.03)
    assert np.all(u >= -0.03) and np.all(u < 0.03)


def test_normal_moments():
    z = Rng(7).normal(200_000)
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.std(z)) - 1.0) < 0.01


def test_normal_scalar_matches_array_stream():
    a, b = Rng(55), Rng(55)
    assert a.normal() == b.normal(1)[0]


def test_determinism_and_seed_sensitivity():
    assert Rng(3).fill_u64(10).tolist() == Rng(3).fill_u64(10).tolist()
    assert Rng(3).fill_u64(10).tolist() != Rng(4).fill_u64(10).tolist()


def test_shuffle_is_a_permutation():
    values = np.arange(257)
    Rng(11).shuffle(values)
    assert sorted(values.tolist()) == list(range(257))
    assert values.tolist() != list(range(257))


def scalar_shuffle(rng, values):
    """Reference Fisher-Yates: one scalar draw per swap."""
    for i in range(len(values) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        values[i], values[j] = values[j], values[i]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 200, 1600])
def test_shuffle_matches_scalar_loop(n):
    fast, slow = Rng(1000 + n), Rng(1000 + n)
    a, b = np.arange(n), np.arange(n)
    fast.shuffle(a)
    scalar_shuffle(slow, b)
    assert a.tolist() == b.tolist()
    assert fast.next_u64() == slow.next_u64()


def test_derive_seed_stable():
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert 0 <= derive_seed(7, 1) < 2**64


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=5000))
@settings(max_examples=50)
def test_skip_equals_discarded_draws(seed, n):
    skipped, drawn = Rng(seed), Rng(seed)
    skipped.skip(n)
    drawn.fill_u64(n)
    assert skipped.fill_u64(7).tolist() == drawn.fill_u64(7).tolist()
    assert skipped.next_u64() == drawn.next_u64()


def test_skip_rejects_negative_counts():
    with pytest.raises(ValueError):
        Rng(1).skip(-1)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.integers(min_value=0, max_value=2**40), max_size=6),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=50)
def test_draws_at_equals_skip_then_fill(seed, starts, n):
    got = draws_at(seed, starts, n)
    assert got.shape == (len(starts), n) and got.dtype == np.uint64
    for row, start in zip(got, starts):
        rng = Rng(seed)
        rng.skip(start)
        assert row.tolist() == rng.fill_u64(n).tolist()


def reference_box_muller(raw, count):
    """Every normal of each row as first written: all p pairs, the p cosines
    then the p sines, cut to count."""
    pairs = raw.shape[-1] // 2
    u1 = ((raw[..., :pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[..., pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :count]


@pytest.mark.parametrize("count", [1, 2, 7, 8, 801, 6400])
def test_box_muller_span_equals_those_normals_of_the_whole_row(count):
    """Spans below, across and above the cosine/sine boundary at the pair
    count p, of odd and even widths, on odd and even counts."""
    pairs = (count + 1) // 2
    raw = Rng(count).fill_u64(3 * 2 * pairs).reshape(3, 2 * pairs)
    whole = reference_box_muller(raw, count)
    assert box_muller(raw, count).tobytes() == whole.tobytes()
    spans = {(0, count), (0, 1), (count - 1, count), (0, pairs), (pairs, count),
             (max(pairs - 1, 0), min(pairs + 2, count)), (pairs // 2, (pairs + count) // 2),
             (max(pairs - 3, 0), pairs), (pairs, min(pairs + 3, count)), (pairs, pairs)}
    for start, stop in sorted(spans):
        got = box_muller(raw, stop, start)
        assert got.shape == (3, stop - start)
        assert got.tobytes() == whole[:, start:stop].tobytes(), (start, stop)
