"""Seed/stream reproducibility of the random source."""

import warnings

import pytest

from polysample import RandomSource
from polysample.rng import as_random_source
from polysample.tables import EXACT_BINOMIAL_GUARD, sample_binomial_value


def test_same_key_same_sequence():
    a = RandomSource(7, 3)
    b = RandomSource(7, 3)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]
    assert RandomSource(7, 3).randbits(257) == RandomSource(7, 3).randbits(257)


def test_different_streams_differ():
    a = RandomSource(7, 0)
    b = RandomSource(7, 1)
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_randbits_range():
    rng = RandomSource(11)
    for bits in (1, 8, 63, 64, 90):
        for _ in range(50):
            v = rng.randbits(bits)
            assert 0 <= v < (1 << bits)
    with pytest.raises(ValueError):
        rng.randbits(0)


def test_randbits_keeps_the_generator_bytes_stream():
    # randbits(b) is the top b bits of Generator.bytes(ceil(b / 8)), read big-endian,
    # with other draws interleaved on the same stream.
    fast, reference = RandomSource(21, 4), RandomSource(21, 4)._gen
    for bits in [*range(1, 70), 127, 128, 129, 255, 3000, 4097, 32768]:
        nbytes = (bits + 7) // 8
        expected = int.from_bytes(reference.bytes(nbytes), "big") >> (8 * nbytes - bits)
        assert fast.randbits(bits) == expected
        assert fast.random() == reference.random()


@pytest.mark.parametrize("interleave", [False, True])
@pytest.mark.parametrize("bits", [1, 2, 7, 8, 9, 31, 32, 33, 64, 65, 257])
def test_randbits_count_is_the_stream_of_single_draws(bits, interleave):
    # One call for count values equals count single calls, and both equal the
    # Generator.bytes decoding, with or without a uniform draw between blocks.
    block, single, reference = RandomSource(22, 5), RandomSource(22, 5), RandomSource(22, 5)._gen
    nbytes = (bits + 7) // 8
    for count in (0, 1, 3, 10):
        expected = [int.from_bytes(reference.bytes(nbytes), "big") >> (8 * nbytes - bits) for _ in range(count)]
        assert block.randbits(bits, count) == expected
        assert [single.randbits(bits) for _ in range(count)] == expected
        if interleave:
            u = reference.uniform(0.0, 1.0)
            assert block.uniform(0.0, 1.0) == u and single.uniform(0.0, 1.0) == u
    assert all(type(v) is int for v in block.randbits(bits, 4))


def test_integers_half_open():
    rng = RandomSource(12)
    draws = rng.integers(0, 3, size=300)
    assert set(int(v) for v in draws) == {0, 1, 2}


def test_as_random_source_coercion():
    assert as_random_source(5).seed == 5
    src = RandomSource(6)
    assert as_random_source(src) is src
    with pytest.raises(TypeError):
        as_random_source("seed")


def test_binomial_normal_approximation_beyond_guard():
    k = EXACT_BINOMIAL_GUARD * 2  # even, so values must be even
    rng = RandomSource(13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [sample_binomial_value(k, rng) for _ in range(100)]
    for v in values:
        assert abs(v) <= k and v % 2 == 0
    spread = (max(values) - min(values)) / k**0.5
    assert 0.5 < spread < 20  # loose: draws actually vary on the sqrt(k) scale


def test_binomial_assignment_warns_beyond_guard():
    from polysample import permanent, sample_binomial_assignment

    with pytest.warns(RuntimeWarning):
        sample_binomial_assignment(permanent(1), EXACT_BINOMIAL_GUARD + 1, RandomSource(14))
