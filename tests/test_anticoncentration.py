"""Tail-mass evidence tables: exhaustive exactness and Monte Carlo coverage."""

from itertools import product

import pytest

from conftest import brute_permanent
from polysample import (
    SizeGuardError,
    anticoncentration_experiment,
    hamiltonian_cycle,
    permanent,
    wilson_interval,
)


def test_wilson_interval_contains_point_estimate():
    low, high = wilson_interval(30, 100)
    assert 0 <= low <= 0.3 <= high <= 1
    low, high = wilson_interval(0, 50)
    assert low == 0.0 and high > 0


def test_zero_threshold_has_zero_mass(rng_factory):
    report = anticoncentration_experiment(
        permanent(2), ell=2, samples=500, thresholds=[0.0], rng=rng_factory(90)
    )
    assert report.rows[0].rate == 0.0


def test_exhaustive_perm3_matches_independent_histogram():
    # Independent oracle: brute permanents over all 512 sign matrices give
    # |per| in {2, 6}; Pr[per^2 < 6] = 480/512 and the zero rate is 0.
    counts = {}
    for signs in product((-1, 1), repeat=9):
        value = brute_permanent(signs, 3)
        counts[value * value] = counts.get(value * value, 0) + 1
    assert set(counts) == {4, 36}

    report = anticoncentration_experiment(
        permanent(3), ell=2, exhaustive=True, thresholds=[1.0, 0.5]
    )
    assert report.variance_value == 6
    assert report.zero_rate == 0.0
    assert report.rows[0].rate == pytest.approx(counts[4] / 512)
    assert report.rows[1].rate == 0.0  # cutoff 3 < per^2 always


def test_exhaustive_evaluators_agree():
    fast = anticoncentration_experiment(permanent(3), ell=2, exhaustive=True, evaluator="fast")
    slow = anticoncentration_experiment(permanent(3), ell=2, exhaustive=True, evaluator="enumeration")
    assert fast.to_json_dict()["rows"] == slow.to_json_dict()["rows"]
    assert fast.zero_rate == slow.zero_rate


def test_exhaustive_integer_mode_weights():
    # Blockwise binomial weights: zero rate for the 2x2 permanent at k = 2
    # recomputed independently over the 81 class tuples.
    from fractions import Fraction
    from math import comb

    zero_mass = Fraction(0)
    for classes in product(range(3), repeat=4):
        y = [2 * c - 2 for c in classes]
        if brute_permanent(y, 2) == 0:
            w = Fraction(1, 2**8)
            for c in classes:
                w *= comb(2, c)
            zero_mass += w
    report = anticoncentration_experiment(permanent(2), k=2, exhaustive=True, thresholds=[0.5])
    assert report.zero_rate == pytest.approx(float(zero_mass))
    assert report.variance_value == 8


def test_monte_carlo_interval_covers_exhaustive(rng_factory):
    exact = anticoncentration_experiment(permanent(3), ell=2, exhaustive=True, thresholds=[1.0])
    sampled = anticoncentration_experiment(
        permanent(3), ell=2, samples=4000, thresholds=[1.0], rng=rng_factory(91)
    )
    row = sampled.rows[0]
    assert row.ci_low <= exact.rows[0].rate <= row.ci_high


def test_rates_monotone_in_threshold(rng_factory):
    report = anticoncentration_experiment(
        hamiltonian_cycle(3), ell=2, samples=1500,
        thresholds=[0.125, 0.25, 0.5, 1.0, 2.0], rng=rng_factory(92),
    )
    rates = [r.rate for r in report.rows]
    assert rates == sorted(rates)


def test_integer_mode_monte_carlo(rng_factory):
    report = anticoncentration_experiment(
        permanent(2), k=3, samples=1000, thresholds=[0.5], rng=rng_factory(93)
    )
    assert report.mode == "integer"
    assert 0 <= report.rows[0].rate <= 1
    assert report.rows[0].hits is not None


def test_bad_arguments(rng_factory):
    with pytest.raises(ValueError):
        anticoncentration_experiment(permanent(2), samples=10, rng=rng_factory())
    with pytest.raises(ValueError):
        anticoncentration_experiment(permanent(2), k=2, ell=2, samples=10, rng=rng_factory())
    with pytest.raises(ValueError):
        anticoncentration_experiment(permanent(2), ell=2, samples=0)
    with pytest.raises(SizeGuardError):
        anticoncentration_experiment(permanent(4), ell=4, exhaustive=True)
    with pytest.raises(ValueError):
        anticoncentration_experiment(permanent(2), ell=2, samples=5, thresholds=[-1.0], rng=rng_factory())
    for kwargs in ({"exhaustive": True}, {"samples": 5}):
        with pytest.raises(ValueError, match="^k must be >= 1"):
            anticoncentration_experiment(permanent(2), k=0, **kwargs)
    for mode in ({"ell": 2}, {"k": 1}):
        with pytest.raises(ValueError, match="^samples "):
            anticoncentration_experiment(permanent(2), samples=7, exhaustive=True, **mode)


def test_report_serialization(rng_factory):
    report = anticoncentration_experiment(
        permanent(2), ell=2, samples=200, thresholds=[0.5, 1.0], rng=rng_factory(94)
    )
    doc = report.to_json_dict()
    assert doc["mode"] == "roots"
    assert len(doc["rows"]) == 2
    assert doc["seed"] == 94
