"""The batched int64 evaluator against the scalar kernels and the enumeration oracle."""

import logging
from itertools import product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysample import (
    Assignment,
    SizeGuardError,
    evaluate_fast,
    evaluate_values_batch,
    evaluate_values_by_enumeration,
    evaluate_values_fast,
    hamiltonian_cycle,
    lift_k_equivalent,
    permanent,
    squared_values,
)
from polysample.evaluate import BLOCK_BYTES, block_points, block_sizes, point_bytes
from polysample.tables import grid_blocks, squashed_points

FAMILIES = {"permanent": permanent, "hamiltonian_cycle": hamiltonian_cycle}


@st.composite
def specs_and_blocks(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    lift = draw(st.sampled_from([None, 1, 2, 3]))
    n = draw(st.integers(1, 3 if lift else 4))
    spec = FAMILIES[family](n)
    if lift:
        spec = lift_k_equivalent(spec, lift)
    bound = draw(st.sampled_from([1, 3, 50]))
    rows = draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(-bound, bound), min_size=rows * spec.n_vars,
                         max_size=rows * spec.n_vars))
    return spec, np.array(flat, dtype=np.int64).reshape(rows, spec.n_vars)


@settings(max_examples=150, deadline=None)
@given(specs_and_blocks())
def test_batch_matches_scalar_and_enumeration(case):
    spec, values = case
    batch = evaluate_values_batch(spec, values)
    assert batch.dtype == np.int64
    rows = values.tolist()
    assert batch.tolist() == [evaluate_values_fast(spec, row) for row in rows]
    assert batch.tolist() == [evaluate_values_by_enumeration(spec, row) for row in rows]


def _largest_inside(bound_of, n):
    m = 1
    while bound_of(n, m + 1) < 1 << 63:
        m += 1
    return m


def ryser(n, m):
    return 2**n * (n * m) ** n


def held_karp(n, m):
    return factorial(n - 1) * m**n


@pytest.mark.parametrize("make, bound_of, n", [
    (permanent, ryser, 4),
    (permanent, ryser, 6),
    (hamiltonian_cycle, held_karp, 4),
    (hamiltonian_cycle, held_karp, 6),
])
def test_just_inside_the_bound_runs_int64_and_stays_exact(make, bound_of, n, rng_factory):
    spec = make(n)
    m = _largest_inside(bound_of, n)
    signs = 1 - 2 * rng_factory(21).integers(0, 2, size=(8, spec.n_vars))
    values = np.vstack([np.full((1, spec.n_vars), m), m * signs]).astype(np.int64)
    batch = evaluate_values_batch(spec, values)
    assert batch.dtype == np.int64
    assert batch.tolist() == [evaluate_values_fast(spec, row) for row in values.tolist()]
    assert batch[0] == spec.num_monomials * m**n


@pytest.mark.parametrize("make, bound_of, n", [
    (permanent, ryser, 4),
    (hamiltonian_cycle, held_karp, 4),
    (hamiltonian_cycle, held_karp, 6),
])
def test_just_outside_the_bound_falls_back_to_python_ints(make, bound_of, n, rng_factory):
    spec = make(n)
    for m in (_largest_inside(bound_of, n) + 1, 1 << 20):
        signs = 1 - 2 * rng_factory(22).integers(0, 2, size=(6, spec.n_vars))
        values = np.vstack([np.full((1, spec.n_vars), m), m * signs]).astype(np.int64)
        batch = evaluate_values_batch(spec, values)
        assert batch.dtype == object
        assert batch.tolist() == [evaluate_values_fast(spec, row) for row in values.tolist()]
        assert batch[0] == spec.num_monomials * m**n  # beyond int64


@pytest.mark.parametrize("spec", [permanent(n) for n in range(1, 8)]
                         + [hamiltonian_cycle(n) for n in range(1, 14)]
                         + [lift_k_equivalent(permanent(3), 2)])
def test_block_stays_within_the_byte_budget(spec):
    if point_bytes(spec) <= BLOCK_BYTES:
        assert block_points(spec) * point_bytes(spec) <= BLOCK_BYTES
        assert (block_points(spec) + 1) * point_bytes(spec) > BLOCK_BYTES
    else:
        assert block_points(spec) == 1  # one point at a time past the budget


@pytest.mark.parametrize("total", [0, 1, 333, 334, 1000])
def test_block_sizes_cover_the_points_in_budget_sized_blocks(total):
    spec = hamiltonian_cycle(5)  # 334 points per block
    sizes = block_sizes(spec, total)
    assert sum(sizes) == total
    assert all(0 < size <= block_points(spec) for size in sizes)
    assert sizes[:-1] == [block_points(spec)] * (len(sizes) - 1)


def test_grids_honour_the_row_count_and_flat_order():
    blocks = list(grid_blocks(3, 4, rows=10))
    assert [len(b) for b in blocks] == [10] * 6 + [4]
    assert [tuple(row) for b in blocks for row in b.tolist()] == list(product(range(4), repeat=3))
    points = [(tuple(v), w) for values, orbits in squashed_points(2, 2, rows=4)
              for v, w in zip(values.tolist(), orbits.tolist())]
    assert points == [((2 * a - 2, 2 * b - 2), comb(2, a) * comb(2, b))
                      for a, b in product(range(3), repeat=2)]


def test_blocks_cover_a_batch_larger_than_one_block(rng_factory):
    spec = hamiltonian_cycle(6)
    values = 1 - 2 * rng_factory(23).integers(0, 2, size=(2 * block_points(spec) + 7, spec.n_vars))
    batch = evaluate_values_batch(spec, values)
    assert batch.tolist() == [evaluate_values_fast(spec, row) for row in values.tolist()]


def test_batch_rejects_bad_input():
    with pytest.raises(ValueError):
        evaluate_values_batch(permanent(2), np.ones((3, 5), dtype=np.int64))
    with pytest.raises(TypeError):
        evaluate_values_batch(permanent(2), np.ones((3, 4)))
    with pytest.raises(SizeGuardError):
        evaluate_values_batch(permanent(21), np.ones((1, 441), dtype=np.int64))
    assert evaluate_values_batch(permanent(2), np.zeros((0, 4), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize("evaluator", ["fast", "enumeration"])
def test_squared_values_at_roots_match_the_scalar_route(ell, evaluator, rng_factory):
    spec = hamiltonian_cycle(4)
    digits = rng_factory(24).integers(0, ell, size=(40, spec.n_vars))
    got = squared_values(spec, digits, ell=ell, evaluator=evaluator)
    for q2, row in zip(got.tolist(), digits.tolist()):
        q = evaluate_fast(spec, Assignment.roots(ell, row))
        if ell == 2:
            assert q2 == q * q
        else:
            assert q2 == pytest.approx(abs(q) ** 2, abs=1e-9)


def test_squared_values_do_not_wrap_in_int64():
    spec = permanent(3)
    values = np.full((2, 9), 1 << 15, dtype=np.int64)  # Q = 6 * 2^45, Q^2 past 2^63
    got = squared_values(spec, values)
    assert got.tolist() == [(6 << 45) ** 2] * 2


def test_one_debug_record_per_call_naming_the_kernel(caplog):
    spec = permanent(3)
    with caplog.at_level(logging.DEBUG, logger="polysample"):
        evaluate_values_batch(spec, np.ones((5, 9), dtype=np.int64))
        evaluate_values_batch(spec, np.full((5, 9), 1 << 20, dtype=np.int64))
    messages = [r.getMessage() for r in caplog.records if r.name == "polysample.evaluate"]
    assert len(messages) == 2
    assert "int64 kernel" in messages[0] and f"blocks of {block_points(spec)}" in messages[0]
    assert "Python-int kernel" in messages[1]


def test_library_logger_is_silent_by_default():
    handlers = logging.getLogger("polysample").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)
