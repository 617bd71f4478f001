"""Property tests of the exact-table form: integer numerators over one shared denominator.

Every reference here is built from ``Fraction`` entries, the representation
the integer form replaced.
"""

import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysample import (
    NumericalCheckError,
    ProbabilityTable,
    RandomSource,
    SamplerHandle,
    make_perturbed_sampler,
    noisy_scale,
    tv_distance,
)
from polysample import tables
from polysample.tables import exact_weights

# Denominators on both sides of the float (2^53) and int64 (2^63) edges.
DENOMINATORS = st.one_of(
    st.integers(1, 1 << 20),
    st.integers((1 << 53) - 8, (1 << 53) + 8),
    st.integers(1 << 53, 1 << 62),
    st.integers((1 << 63) - 8, (1 << 63) + 8),
    st.integers(1 << 63, 1 << 80),
)
SHAPES = st.tuples(st.integers(2, 4), st.integers(1, 3))


@st.composite
def exact_tables(draw, shape=None):
    radix, length = shape or draw(SHAPES)
    size = radix**length
    denominator = draw(DENOMINATORS)
    cuts = sorted(draw(st.lists(st.integers(0, denominator), min_size=size - 1, max_size=size - 1)))
    bounds = [0, *cuts, denominator]
    numerators = [b - a for a, b in zip(bounds, bounds[1:])]
    return ProbabilityTable(radix, length, exact_weights(numerators, denominator), denominator)


@st.composite
def table_pairs(draw):
    shape = draw(SHAPES)
    return draw(exact_tables(shape)), draw(exact_tables(shape))


def _fractions(table):
    return [Fraction(int(w), table.denominator) for w in table.weights.tolist()]


@settings(max_examples=200, deadline=None)
@given(exact_tables())
def test_json_round_trip_keeps_every_fraction_and_string(table):
    doc = json.loads(json.dumps(table.to_json_dict()))
    assert doc["probs"] == [f"{p.numerator}/{p.denominator}" for p in _fractions(table)]
    back = ProbabilityTable.from_json_dict(doc)
    assert list(back) == list(table) == _fractions(table)
    assert back.to_json_dict() == doc


@settings(max_examples=200, deadline=None)
@given(exact_tables())
def test_as_floats_is_the_correctly_rounded_float_of_each_fraction(table):
    reference = np.array([float(p) for p in _fractions(table)], dtype=np.float64)
    assert table.as_floats().tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(table_pairs())
def test_exact_tv_distance_matches_fraction_reference(pair):
    a, b = pair
    reference = sum(abs(p - q) for p, q in zip(_fractions(a), _fractions(b))) / 2
    assert tv_distance(a, b) == float(reference)


@settings(max_examples=200, deadline=None)
@given(exact_tables(), st.floats(0.0, 1.0))
def test_perturbed_sampler_realizes_min_of_beta_and_achievable(target, beta):
    handle = make_perturbed_sampler(target, beta)
    receiver = int(np.argmin(target.weights))
    expected = min(Fraction(beta), 1 - target[receiver])
    realized = sum(abs(p - q) for p, q in zip(list(handle.table), list(target))) / 2
    assert realized == expected
    assert handle.realized_tv == float(expected)


@settings(max_examples=200, deadline=None)
@given(exact_tables(), st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2**32))
def test_noisy_query_scales_the_correctly_rounded_float_of_each_fraction(table, gamma, seed):
    sampler = SamplerHandle(table, 0.0)
    for i, p in enumerate(_fractions(table)):
        # Twin sources: both sides draw the same scale factor.
        got = sampler.estimate_probability(i, gamma, RandomSource(seed, i))
        want = noisy_scale(float(p), gamma, RandomSource(seed, i))
        assert got.hex() == want.hex()


@st.composite
def repeated_value_tables(draw):
    """Tables whose entries come from a pool of at most four values; exact ones on both sides of 2^63."""
    radix, length = draw(SHAPES)
    if draw(st.booleans()):
        # -0.0 == 0.0, but the two render differently.
        pool = [0.0, -0.0, *draw(st.lists(st.sampled_from([1e-20, 0.5, 1 / 3]) | st.floats(0, 1),
                                          min_size=1, max_size=2))]
        probs = np.array(draw(st.lists(st.sampled_from(pool), min_size=radix**length,
                                       max_size=radix**length)))
        assume(probs.sum() > 0)
        return ProbabilityTable(radix, length, probs / probs.sum())
    pool = draw(st.lists(st.integers(0, 12) | st.integers(1 << 62, 1 << 80), min_size=1, max_size=4))
    numerators = draw(st.lists(st.sampled_from(pool), min_size=radix**length, max_size=radix**length))
    assume(sum(numerators) > 0)
    return ProbabilityTable(radix, length, exact_weights(numerators, sum(numerators)), sum(numerators))


@settings(max_examples=200, deadline=None)
@given(repeated_value_tables())
def test_entry_chunks_render_every_entry_as_its_own_value(table):
    if table.arithmetic == "double":
        reference = list(map(repr, table.weights.tolist()))
    else:
        reference = [f"{p.numerator}/{p.denominator}" for p in _fractions(table)]
    with mock.patch.object(tables, "WRITE_CHUNK", 3):
        chunks = list(table.entry_chunks())
        assert all(len(chunk) <= table.chunk_rows() for chunk in chunks)
    assert [entry for chunk in chunks for entry in chunk] == reference


def test_width_edge_at_two_to_the_63():
    below, at = (1 << 63) - 1, 1 << 63
    assert exact_weights([below], below).dtype == np.int64
    assert exact_weights([at], at).dtype == object
    assert ProbabilityTable(2, 1, np.array([below - 1, 1]), below).weights.dtype == np.int64
    table = ProbabilityTable(2, 1, np.array([at - 1, 1], dtype=object), at)
    assert table.weights.dtype == object and table[1] == Fraction(1, at)
    # Both tables are int64, but their absolute differences sum to 2^64 - 2.
    a = ProbabilityTable(2, 1, np.array([below, 0]), below)
    b = ProbabilityTable(2, 1, np.array([0, below]), below)
    assert tv_distance(a, b) == 1.0


def test_int64_sum_that_would_wrap_to_the_denominator_is_rejected():
    # The true sum is 2^64 + 5; an unchecked int64 sum wraps to exactly 5.
    top = (1 << 63) - 1
    with pytest.raises(NumericalCheckError):
        ProbabilityTable(3, 1, np.array([top, top, 7]), 5)


def test_rational_json_entry_past_int64_is_a_check_failure():
    doc = {"radix": 2, "length": 1, "arithmetic": "rational", "probs": [str(1 << 70), "0/1"]}
    with pytest.raises(NumericalCheckError):
        ProbabilityTable.from_json_dict(doc)


def test_double_table_with_a_denominator_is_rejected():
    with pytest.raises(ValueError):
        ProbabilityTable(2, 1, np.array([0.5, 0.5]), 2)
