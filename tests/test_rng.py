import pytest
from hypothesis import given, settings, strategies as st

from dialectica.rng import Rng, derive, fnv64, throw_biased, uniform01

# First output of the finalizer over the all-zero key; frozen once from the
# published constants.
GOLDEN_ZERO = 0xE220A8397B1DCDAF


def test_golden_value():
    assert derive(0, 0, 0) == GOLDEN_ZERO


def _reference_derive(seed, stream_tag, index):
    # derive as specified, with the rotation written out as a function
    mask = (1 << 64) - 1
    golden = 0x9E3779B97F4A7C15
    tag = stream_tag & mask
    rotl = ((tag << 17) | (tag >> 47)) & mask
    z = (seed ^ rotl ^ ((index * golden) & mask)) & mask
    z = (z + golden) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_derive_matches_reference_on_any_int():
    # negative and wider-than-64-bit keys must reduce exactly as the spec says
    r = Rng(3, 4)
    edge = [0, 1, -1, 2**63, 2**64 - 1, 2**64, -(2**64), 2**130 + 5]
    words = edge + [r.next_u64() - (1 << 63) for _ in range(40)] + [
        r.next_u64() << r.next_below(80) for _ in range(40)]
    for k, seed in enumerate(words):
        for tag in words[k % 7::7]:
            for index in (0, 1, -3, 2**70, seed):
                assert derive(seed, tag, index) == _reference_derive(seed, tag, index)


def test_determinism():
    assert derive(123, 456, 789) == derive(123, 456, 789)


def test_output_is_64_bit():
    for i in range(100):
        assert 0 <= derive(i, i * 7, i * 13) < 2**64


def test_no_adjacent_collisions():
    seen_equal = 0
    for t in range(10_000):
        s, tag, i = derive(0, 1, t), derive(0, 2, t), t
        if derive(s, tag, i) == derive(s, tag, i + 1):
            seen_equal += 1
    assert seen_equal == 0


def test_rng_stream_is_index_keyed():
    a = Rng(5, 9)
    b = Rng(5, 9)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert 0.0 <= Rng(5, 9).next_float() < 1.0


def test_fnv64_reference():
    assert fnv64("") == 0xCBF29CE484222325
    assert fnv64("a") != fnv64("b")


class TestThrowBiased:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match=r"all bias weights must be >= 1"):
            throw_biased(0, 0, (1, 0))

    def test_single_face_rejected(self):
        with pytest.raises(ValueError, match="dice needs at least 2 faces"):
            throw_biased(0, 0, (3,))

    def test_range(self):
        for n in range(1000):
            assert 1 <= throw_biased(7, n, (2, 3, 5)) <= 3

    def test_fair_coin_frequency(self):
        draws = 100_000
        ones = sum(throw_biased(42, n, (1, 1)) == 1 for n in range(draws))
        assert 0.49 <= ones / draws <= 0.51

    def test_three_to_one_frequency(self):
        draws = 100_000
        ones = sum(throw_biased(42, n, (3, 1)) == 1 for n in range(draws))
        assert 0.74 <= ones / draws <= 0.76


def test_uniform01_bounds():
    assert uniform01(0) == 0.0
    assert uniform01(2**64 - 1) < 1.0


# Any int: negative and wider than 64 bits, as seeds, tags and indexes may be.
any_int = st.one_of(st.integers(-(2**64), 2**64),
                    st.integers(-(2**130), 2**130))


@settings(max_examples=300, deadline=None)
@given(any_int, any_int, any_int)
def test_stream_words_are_derive_at_each_index(seed, tag, start):
    r = Rng(seed, tag, start)
    assert [r.next_u64() for _ in range(4)] == [
        _reference_derive(seed, tag, start + k) for k in range(4)]
    assert r.index == start + 4
    fresh = Rng(seed, tag)
    assert fresh.at(start) == _reference_derive(seed, tag, start)
    assert fresh.index == 0
    assert (fresh.seed, fresh.stream_tag) == (seed, tag)


@settings(max_examples=300, deadline=None)
@given(any_int, any_int, any_int, st.integers(1, 2**70))
def test_draws_follow_their_derive_formulas(seed, tag, start, bound):
    r = Rng(seed, tag, start)
    assert r.next_below(bound) == derive(seed, tag, start) % bound
    assert r.next_float() == uniform01(derive(seed, tag, start + 1))
    assert r == Rng(seed, tag, start + 2)
    assert repr(r) == f"Rng(seed={seed!r}, stream_tag={tag!r}, index={start + 2!r})"
