"""The counting step's error model: injected relative noise."""

from fractions import Fraction

from polysample import noisy_scale


def test_noisy_scale_bounds(rng_factory):
    rng = rng_factory(4)
    for _ in range(100):
        out = noisy_scale(2.0, 0.5, rng)
        assert 1.0 <= out <= 3.0
    assert noisy_scale(Fraction(1, 3), 0.0, None) == Fraction(1, 3)
