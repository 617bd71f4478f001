"""Squashed transform construction against the pinned k=2 fixture and brute force."""

import json
from itertools import combinations, product
from math import comb, prod, sqrt
from pathlib import Path

import numpy as np
import pytest

from polysample import NumericalCheckError, SizeGuardError, build_squashed_transform, unitarity_residual
from polysample.squashed import symmetric_polynomial_class_values, weighted_gram

GOLDEN = Path(__file__).parent / "golden" / "squashed_k2.json"


def _brute_symmetric_value(assignment, j):
    return sum(prod(assignment[i] for i in subset) for subset in combinations(range(len(assignment)), j))


def test_k2_matches_golden_fixture():
    golden = json.loads(GOLDEN.read_text())
    transform = build_squashed_transform(2)
    assert [list(r) for r in transform.core] == golden["core"]
    assert list(transform.class_sizes) == golden["class_sizes"]
    assert abs(transform.r0 - golden["r0"]) <= 1e-12
    assert abs(transform.r1 - golden["r1"]) <= 1e-12
    assert np.max(np.abs(transform.unitary - np.array(golden["unitary"]))) <= 1e-12


def test_r0_r1_closed_forms():
    for k in range(1, 17):
        transform = build_squashed_transform(k)
        assert abs(transform.r0 - 2.0 ** (-k / 2)) <= 1e-12
        assert abs(transform.r1 - 1 / sqrt(k * 2**k)) <= 1e-12
        assert transform.column_norms_sq[0] == 2**k
        assert transform.column_norms_sq[1] == k * 2**k


@pytest.mark.parametrize("k", list(range(1, 17)))
def test_unitarity_residual_within_tolerance(k):
    assert unitarity_residual(build_squashed_transform(k)) <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_core_matches_brute_symmetric_polynomials(k):
    transform = build_squashed_transform(k)
    for i in range(k + 1):
        assignment = [-1] * i + [1] * (k - i)
        for j in range(k + 1):
            assert transform.core[i][j] == _brute_symmetric_value(assignment, j)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_core_rows_are_the_deduplicated_hypercube_rows(k):
    # Building the full 2^k x (k+1) symmetric-value matrix and grouping rows
    # by sign pattern must reproduce the core rows with multiplicity C(k, i).
    transform = build_squashed_transform(k)
    seen = {}
    for signs in product((1, -1), repeat=k):
        row = tuple(_brute_symmetric_value(signs, j) for j in range(k + 1))
        seen[row] = seen.get(row, 0) + 1
    for i in range(k + 1):
        row = tuple(transform.core[i])
        assert seen[row] == comb(k, i)
    assert len(seen) == k + 1


def test_weighted_columns_orthogonal_exactly():
    for k in (3, 6, 12):
        transform = build_squashed_transform(k)
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                gram = sum(
                    comb(k, i) * transform.core[i][a] * transform.core[i][b]
                    for i in range(k + 1)
                )
                assert gram == 0


def test_weighted_gram_reports_norms_and_largest_off_diagonal():
    transform = build_squashed_transform(5)
    assert weighted_gram(transform.core, transform.class_sizes) == (list(transform.column_norms_sq), 0)
    # columns (1, 1) and (1, -1) weighted by (1, 3): Gram [[4, -2], [-2, 4]]
    assert weighted_gram([[1, 1], [1, -1]], [1, 3]) == ([4, 4], 2)


def test_construction_raises_on_non_orthogonal_columns(monkeypatch):
    import polysample.squashed as squashed

    monkeypatch.setattr(squashed, "symmetric_polynomial_class_values", lambda k, i: [1] * (k + 1))
    with pytest.raises(NumericalCheckError, match="not orthogonal"):
        build_squashed_transform(3)


def test_column_convolution_helper():
    assert symmetric_polynomial_class_values(2, 0) == [1, 2, 1]
    assert symmetric_polynomial_class_values(2, 1) == [1, 0, -1]
    assert symmetric_polynomial_class_values(2, 2) == [1, -2, 1]


def test_diagonal_factor_properties():
    transform = build_squashed_transform(2)
    row_weights = np.sqrt(np.array(transform.class_sizes, dtype=np.float64))
    column_normalizers = 1.0 / np.sqrt(np.array(transform.column_norms_sq, dtype=np.float64))
    assert np.allclose(row_weights, [1, np.sqrt(2), 1])
    assert column_normalizers[0] == pytest.approx(transform.r0)
    assert column_normalizers[1] == pytest.approx(transform.r1)
    rebuilt = row_weights[:, None] * np.array(transform.core) * column_normalizers
    assert np.allclose(rebuilt, transform.unitary)


def test_guards():
    with pytest.raises(ValueError):
        build_squashed_transform(0)
    with pytest.raises(SizeGuardError):
        build_squashed_transform(65)


def test_large_k_stays_numerically_sane():
    transform = build_squashed_transform(40)
    assert unitarity_residual(transform) <= 1e-9
