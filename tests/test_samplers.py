"""Perturbed-sampler adversaries realize their requested TV distance."""

from fractions import Fraction

import numpy as np
import pytest

from polysample import (
    ProbabilityTable,
    exact_table_roots,
    make_perturbed_sampler,
    permanent,
    tv_distance,
)


def _point_mass(size, at):
    weights = np.zeros(size, dtype=np.int64)
    weights[at] = 1
    return ProbabilityTable(size, 1, weights)


def test_beta_zero_is_identity():
    target = exact_table_roots(permanent(2), 2)
    handle = make_perturbed_sampler(target, 0.0)
    assert handle.realized_tv == 0.0
    assert list(handle.table) == list(target)


def test_point_mass_perturbation():
    target = _point_mass(8, 3)
    handle = make_perturbed_sampler(target, 0.3)
    assert abs(handle.realized_tv - 0.3) <= 1e-12
    assert abs(tv_distance(handle.table, target) - 0.3) <= 1e-12


def test_perm_table_realizes_exact_tv():
    target = exact_table_roots(permanent(2), 2)
    handle = make_perturbed_sampler(target, 0.05)
    assert abs(tv_distance(handle.table, target) - 0.05) <= 1e-12


def test_beta_capped_at_achievable():
    target = _point_mass(4, 0)
    handle = make_perturbed_sampler(target, 1.0)
    assert handle.realized_tv == 1.0
    assert tv_distance(handle.table, target) == 1.0


def test_concentrated_adversary_touches_two_entries():
    target = exact_table_roots(permanent(2), 2)
    receiver = next(i for i in range(16) if target[i] == 0)
    handle = make_perturbed_sampler(target, 0.05, concentrate_on=receiver)
    diffs = [i for i in range(16) if handle.table[i] != target[i]]
    assert receiver in diffs and len(diffs) == 2
    assert handle.table[receiver] - target[receiver] == Fraction(0.05)


def test_perturbation_of_double_tables():
    target = exact_table_roots(permanent(2), 3)
    handle = make_perturbed_sampler(target, 0.01)
    assert abs(tv_distance(handle.table, target) - 0.01) <= 1e-12


def test_draws_follow_perturbed_table(rng_factory):
    target = _point_mass(4, 0)
    handle = make_perturbed_sampler(target, 0.5)
    rng = rng_factory(61)
    draws = [handle.draw(rng) for _ in range(4000)]
    frac_moved = sum(1 for d in draws if d != 0) / len(draws)
    assert abs(frac_moved - 0.5) < 0.05


def test_probability_queries():
    target = exact_table_roots(permanent(2), 2)
    handle = make_perturbed_sampler(target, 0)
    assert handle.probability(0) == target[0]
    assert handle.estimate_probability(0, 0.0, None) == target[0]


def test_invalid_arguments():
    target = _point_mass(4, 0)
    with pytest.raises(ValueError):
        make_perturbed_sampler(target, -0.1)
    with pytest.raises(ValueError):
        make_perturbed_sampler(target, 0.1, concentrate_on=9)
