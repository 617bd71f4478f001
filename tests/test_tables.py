"""Exact tables, orbit weights, variance identities, and sampling utilities."""

import json
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, product
from math import comb

import numpy as np
import pytest

from conftest import brute_permanent
from polysample import (
    NumericalCheckError,
    ParityError,
    ProbabilityTable,
    RandomSource,
    ShapeMismatchError,
    SizeGuardError,
    collapse_assignment,
    exact_table_fold,
    exact_table_roots,
    exact_table_squashed,
    hamiltonian_cycle,
    lift_k_equivalent,
    mixed_radix_digits,
    mixed_radix_index,
    monomial_of_index,
    orbit_weight,
    permanent,
    sample_binomial_value,
    sample_binomial_values,
    sample_from_table,
    tv_distance,
    variance,
)
from polysample import tables
from polysample.errors import (
    BYTES_GUARD,
    FOLD_CIRCUIT_GUARD,
    FOLD_TABLE_GUARD,
    SIZE_GUARD,
    check_bytes,
    check_size,
)
from polysample.tables import EXACT_BINOMIAL_GUARD, binomial_sampling_method, exact_weight_bytes


def test_mixed_radix_helpers():
    assert mixed_radix_index((1, 0, 2), 3) == 11
    assert mixed_radix_digits(11, 3, 3) == (1, 0, 2)
    for i in range(16):
        assert mixed_radix_index(mixed_radix_digits(i, 2, 4), 2) == i


# ---------------------------------------------------------------------------
# root-of-unity tables


def test_roots_table_perm2_l2_against_direct_expansion():
    # Independent oracle: Q = z11*z22 + z12*z21 expanded by hand over all
    # sixteen sign vectors.
    table = exact_table_roots(permanent(2), 2)
    for flat in range(16):
        e = mixed_radix_digits(flat, 2, 4)
        z = [1 - 2 * b for b in e]
        q = z[0] * z[3] + z[1] * z[2]
        assert table[flat] == Fraction(q * q, 16 * 2)
    assert sorted(set(table)) == [Fraction(0), Fraction(1, 8)]
    assert sum(1 for p in table if p) == 8


def test_all_plus_outcome_has_mass_m_over_2n():
    for spec in [permanent(2), permanent(3), hamiltonian_cycle(3)]:
        table = exact_table_roots(spec, 2)
        assert table[0] == Fraction(spec.num_monomials, 2**spec.n_vars)


@pytest.mark.parametrize("ell", [3, 4, 8])
def test_roots_table_normalization_complex(ell):
    # The mean-square normalization is verified numerically for ell in
    # {2, 3, 4, 8} rather than assumed (2 is exact by construction).
    table = exact_table_roots(permanent(2), ell)
    assert abs(float(np.sum(table.as_floats())) - 1.0) < 1e-9


def test_roots_table_l3_entries_match_slow_reference():
    from polysample import Assignment, evaluate_by_enumeration

    spec = permanent(2)
    table = exact_table_roots(spec, 3)
    for flat in [0, 1, 17, 35, 80]:
        digits = mixed_radix_digits(flat, 3, 4)
        q = evaluate_by_enumeration(spec, Assignment.roots(3, digits))
        expected = abs(q) ** 2 / (81 * 2)
        assert abs(float(table[flat]) - expected) < 1e-12


def _roots_oracle(spec, ell):
    """Numerators and denominator of the root table by the per-mask loop over the full grid.

    Each digit is taken by integer division of the flat index; omega^s is an
    exact +-1 at ell = 2 and a complex double otherwise.
    """
    n, m = spec.n_vars, spec.num_monomials
    size = ell**n
    powers = np.array([1, -1]) if ell == 2 else np.exp(2j * np.pi * np.arange(ell) / ell)
    amp = np.zeros(size, dtype=powers.dtype)
    idx = np.arange(size, dtype=np.int64)
    for z in range(m):
        exp_sum = np.zeros(size, dtype=np.int64)
        for i, bit in enumerate(monomial_of_index(spec, z)):
            if bit:
                exp_sum += (idx // ell ** (n - 1 - i)) % ell
        amp += powers[exp_sum % ell]
    if ell == 2:
        return amp * amp, size * m
    return (amp.real**2 + amp.imag**2) / (size * m), 1


# Every spec at every ell from 2 to 6 whose table has at most 2^16 entries, and
# permanent(1) at ell = 256 and 65536, where every exponent sum fits a digit
# type narrower than ell itself.
ORACLE_CASES = [
    pytest.param(spec, ell, id=f"{spec.family}-{spec.n_vars}vars-ell{ell}")
    for spec in [permanent(1), permanent(2), permanent(3), hamiltonian_cycle(2), hamiltonian_cycle(3),
                 lift_k_equivalent(permanent(2), 2)]
    for ell in range(2, 7)
    if ell**spec.n_vars <= 1 << 16
] + [pytest.param(permanent(1), ell, id=f"permanent-1vars-ell{ell}") for ell in (256, 1 << 16)]


@pytest.mark.parametrize("spec, ell", ORACLE_CASES)
def test_roots_table_matches_the_full_grid_oracle_bit_for_bit(spec, ell, monkeypatch):
    # About nine blocks per table, the last one ragged.
    monkeypatch.setattr(tables, "WRITE_CHUNK", ell**spec.n_vars // 9 + 1)
    table = exact_table_roots(spec, ell)
    weights, denominator = _roots_oracle(spec, ell)
    assert table.denominator == denominator
    if ell == 2:
        assert table.weights.dtype == np.int64
        assert np.array_equal(table.weights, weights)
    else:
        assert np.array_equal(table.weights.view(np.int64), weights.view(np.int64))


def test_roots_table_rejects_degenerate_ell():
    with pytest.raises(ValueError):
        exact_table_roots(permanent(2), 1)


def test_roots_table_size_guard():
    with pytest.raises(SizeGuardError):
        exact_table_roots(permanent(4), 8)  # 8^16 outcomes


@pytest.mark.parametrize("limit", [1, FOLD_CIRCUIT_GUARD, FOLD_TABLE_GUARD, SIZE_GUARD])
def test_check_size_admits_the_limit_and_rejects_one_more(limit):
    check_size("table", limit, limit)
    with pytest.raises(SizeGuardError, match="size guard"):
        check_size("table", limit + 1, limit)


def test_check_size_defaults_to_the_dense_guard():
    check_size("statevector", SIZE_GUARD)
    with pytest.raises(SizeGuardError, match="statevector of 67108865 entries"):
        check_size("statevector", SIZE_GUARD + 1)


def _squashed_denominator(spec, k):
    return 2 ** (k * spec.n_vars) * k**spec.degree * spec.num_monomials


def test_object_width_numerators_are_guarded_by_bytes():
    # permanent(1) at k = K holds K + 1 numerators of about K bits each.
    spec = permanent(1)
    for k, admitted in ((8000, True), (80000, False)):
        estimate = exact_weight_bytes(k + 1, _squashed_denominator(spec, k))
        assert estimate > 8 * (k + 1) * 100
        assert (estimate <= BYTES_GUARD) is admitted
    # int64 numerators cost 8 bytes each, so the entry guard alone decides for them.
    assert exact_weight_bytes(SIZE_GUARD, tables.INT64_LIMIT - 1) == BYTES_GUARD
    check_bytes("table numerators", BYTES_GUARD)
    with pytest.raises(SizeGuardError, match="bytes exceed the size guard"):
        check_bytes("table numerators", BYTES_GUARD + 1)


# ---------------------------------------------------------------------------
# orbit weights and squashed tables


def test_orbit_weight_examples():
    assert orbit_weight((0, 0), 2) == 4
    assert orbit_weight((2, -2), 2) == 1
    assert orbit_weight((1, -1, 3), 3) == comb(3, 2) * comb(3, 1) * comb(3, 3)


def test_orbit_weights_partition_the_hypercube():
    k, n = 3, 2
    total = sum(
        orbit_weight([2 * c1 - k, 2 * c2 - k], k)
        for c1 in range(k + 1)
        for c2 in range(k + 1)
    )
    assert total == 2 ** (k * n)


def test_orbit_weight_rejects_bad_points():
    with pytest.raises(ParityError):
        orbit_weight((1, 0), 2)
    with pytest.raises(ValueError):
        orbit_weight((4,), 2)


def test_squashed_table_perm2_k2_against_direct_computation():
    spec = permanent(2)
    table = exact_table_squashed(spec, 2)
    assert table.radix == 3 and table.length == 4
    var = 2**2 * 2
    for flat in range(81):
        classes = mixed_radix_digits(flat, 3, 4)
        y = [2 * c - 2 for c in classes]
        q = brute_permanent(y, 2)
        orbit = 1
        for c in classes:
            orbit *= comb(2, c)
        assert table[flat] == Fraction(q * q * orbit, 2**8 * var)
    assert sum(table) == 1


def test_squashed_zero_value_outcomes_have_zero_mass():
    table = exact_table_squashed(permanent(2), 2)
    # classes (2, 2, 2, 0) encode y = (2, 2, 2, -2): Q = 2*(-2) + 2*2 = 0
    flat = mixed_radix_index((2, 2, 2, 0), 3)
    assert table[flat] == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_squashed_normalization_identity(k):
    # sum over the class grid of Q^2 * orbit equals 2^{kn} * k^d * m exactly
    spec = permanent(2)
    total = 0
    for classes in product(range(k + 1), repeat=4):
        y = [2 * c - k for c in classes]
        q = brute_permanent(y, 2)
        orbit = 1
        for c in classes:
            orbit *= comb(k, c)
        total += q * q * orbit
    assert total == 2 ** (k * 4) * k**spec.degree * spec.num_monomials
    exact_table_squashed(spec, k)  # construction re-checks the same identity


def test_squashed_equals_pushforward_of_lifted_signs():
    # The squashed table is the image of the lifted ell=2 table under the
    # blockwise collapse map, entry by entry in exact rationals.
    for k in (1, 2, 3):
        base = permanent(2)
        lifted = lift_k_equivalent(base, k)
        signs = exact_table_roots(lifted, 2)
        squashed = exact_table_squashed(base, k)
        pushed = [Fraction(0)] * squashed.size
        for flat in range(signs.size):
            bits = mixed_radix_digits(flat, 2, lifted.n_vars)
            x = [1 - 2 * b for b in bits]
            classes = tuple((v + k) // 2 for v in collapse_assignment(x, k).values)
            pushed[mixed_radix_index(classes, k + 1)] += signs[flat]
        assert pushed == list(squashed)


# ---------------------------------------------------------------------------
# fold tables


def test_fold_constant_function_is_point_mass_at_zero():
    table = exact_table_fold([1] * 8)
    assert table[0] == 1
    assert all(p == 0 for p in list(table)[1:])


def test_fold_character_is_point_mass_at_its_index():
    # f(x) = (-1)^{x_1} on two bits: spectrum concentrates at y = 10
    table = exact_table_fold([1, 1, -1, -1])
    assert table[2] == 1


def test_fold_matches_slow_dft(rng_factory):
    rng = rng_factory(12)
    f = [1 - 2 * int(b) for b in rng.integers(0, 2, size=16)]
    table = exact_table_fold(f)
    for y in range(16):
        acc = sum(f[x] * (-1) ** bin(x & y).count("1") for x in range(16))
        assert table[y] == Fraction(acc * acc, 16 * 16)


def test_fold_parseval_random(rng_factory):
    rng = rng_factory(13)
    f = [1 - 2 * int(b) for b in rng.integers(0, 2, size=256)]
    table = exact_table_fold(f)
    assert sum(table) == 1


def test_fold_raises_when_parseval_fails(monkeypatch):
    import polysample.tables

    monkeypatch.setattr(polysample.tables, "_walsh_transform", lambda values: values)
    with pytest.raises(NumericalCheckError, match="Parseval"):
        exact_table_fold([1, -1, -1, 1])


def test_fold_rejects_bad_alphabet_and_size():
    with pytest.raises(ValueError):
        exact_table_fold([1, 2, 1, 1])
    with pytest.raises(ValueError):
        exact_table_fold([1, 1, 1])
    with pytest.raises(SizeGuardError):
        exact_table_fold([1] * (1 << 21))


# ---------------------------------------------------------------------------
# variance


def test_variance_closed_equals_sum_form_up_to_k30():
    for spec in (permanent(2), permanent(3), hamiltonian_cycle(4)):
        for k in range(1, 31):
            report = variance(spec, k)
            assert report.forms_agree
            assert report.closed_form == k**spec.degree * spec.num_monomials


def test_variance_binomial_sum_identity():
    for k in range(1, 31):
        assert sum(comb(k, i) * (k - 2 * i) ** 2 for i in range(k + 1)) == k * 2**k


def test_variance_perm2_k2_value():
    assert variance(permanent(2), 2).closed_form == 8


def test_variance_k1_equals_monomial_count():
    for spec in (permanent(3), hamiltonian_cycle(4)):
        assert variance(spec, 1).closed_form == spec.num_monomials


@pytest.mark.parametrize("k", [1, 2, 3])
def test_variance_matches_exhaustive_lifted_mean_square(k):
    # E[Q_lifted^2] over all sign vectors equals k^d * m with zero tolerance.
    from polysample import Assignment, evaluate_by_enumeration

    base = permanent(2)
    lifted = lift_k_equivalent(base, k)
    total = 0
    for flat in range(2**lifted.n_vars):
        bits = mixed_radix_digits(flat, 2, lifted.n_vars)
        q = evaluate_by_enumeration(lifted, Assignment.roots(2, bits))
        total += q * q
    assert Fraction(total, 2**lifted.n_vars) == variance(base, k).closed_form


def test_variance_empirical_close_to_closed_form(rng_factory):
    spec = permanent(2)
    report = variance(spec, 2, samples=4000, rng=rng_factory(21))
    tolerance = 5 * report.closed_form / 4000**0.5
    assert abs(report.empirical - report.closed_form) <= tolerance


# ---------------------------------------------------------------------------
# binomial sampling


def test_binomial_k1_is_uniform_signs(rng_factory):
    rng = rng_factory(31)
    draws = [sample_binomial_value(1, rng) for _ in range(2000)]
    assert set(draws) == {-1, 1}
    assert abs(sum(draws)) < 5 * 2000**0.5


def test_binomial_k2_frequencies(rng_factory):
    rng = rng_factory(32)
    n = 20000
    draws = [sample_binomial_value(2, rng) for _ in range(n)]
    for c in range(3):
        p = comb(2, c) / 2**2
        observed = sum(1 for d in draws if d == 2 * c - 2) / n
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(observed - p) < 5 * sigma


def test_binomial_mean_within_four_sigma(rng_factory):
    rng = rng_factory(33)
    n, k = 100_000, 6
    mean = sum(sample_binomial_value(k, rng) for _ in range(n)) / n
    assert abs(mean) < 4 * (k / n) ** 0.5


@pytest.mark.parametrize("k", [1, 2, 3, 64, 3000])
def test_binomial_cdf_table_matches_comb(k):
    assert tables._binomial_cdf_table(k) == tuple(accumulate(comb(k, c) for c in range(k + 1)))


def test_exact_binomial_guard_bounds_the_cdf_table():
    # The cdf row at k holds k + 1 integers of up to k + 1 bits: about k^2 / 8 bytes,
    # built once and held while draws stay at that k.
    k = EXACT_BINOMIAL_GUARD
    assert k * k // 8 <= 32 << 20
    try:
        table = tables._binomial_cdf_table(k)
        assert sum(sys.getsizeof(c) for c in table) <= 40 << 20
        assert tables._binomial_cdf_table(k) is table
        tables._binomial_cdf_table(3)
        assert tables._binomial_cdf_table.cache_info().currsize == 1  # one row held at a time
    finally:
        tables._binomial_cdf_table.cache_clear()
    assert binomial_sampling_method(k) == "exact-inverse-cdf"
    assert binomial_sampling_method(k + 1) == "rounded-normal"


def _scalar_binomial(k, rng):
    # One draw as a coordinate-at-a-time loop makes it: k random bits
    # inverted through the cdf, or one normal draw rounded half to even.
    if k <= EXACT_BINOMIAL_GUARD:
        return 2 * bisect_right(tables._binomial_cdf_table(k), rng.randbits(k)) - k
    value = 2 * round((rng.normal(0.0, k**0.5) + k) / 2) - k
    return max(-k, min(k, value))


@pytest.mark.parametrize("k", [1, 2, 40, EXACT_BINOMIAL_GUARD, EXACT_BINOMIAL_GUARD + 1])
def test_binomial_block_draw_is_the_stream_of_single_draws(k):
    block, single = RandomSource(41, 2), RandomSource(41, 2)
    for count in (1, 7, 20):
        values = sample_binomial_values(k, count, block)
        assert values == [_scalar_binomial(k, single) for _ in range(count)]
        assert all(type(v) is int and abs(v) <= k and (v - k) % 2 == 0 for v in values)
        assert block.uniform(0.0, 1.0) == single.uniform(0.0, 1.0)
    assert sample_binomial_value(k, block) == _scalar_binomial(k, single)


class _FixedNormals(RandomSource):
    """A source whose normal draws are given: scalar calls pop one, sized calls pop that many."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def normal(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            return self.draws.pop(0)
        out, self.draws = self.draws[:size], self.draws[size:]
        return np.array(out)


def test_rounded_normal_binomial_rounds_half_to_even_and_clips():
    k = EXACT_BINOMIAL_GUARD + 1  # odd: (u + k) / 2 is a half-integer at even u
    draws = [0.0, 2.0, -2.0, 0.9, -0.9, k + 10.0, -k - 10.0, 3.0 * k]
    # (u + k) / 2 = 8192.5 -> 8192, 8193.5 -> 8194, 8191.5 -> 8192 (ties to even),
    # 8192.95 -> 8193, 8192.05 -> 8192; the last three land past +-k and are clipped.
    expected = [-1, 3, -1, 1, -1, k, -k, k]
    assert sample_binomial_values(k, len(draws), _FixedNormals(draws)) == expected
    single = _FixedNormals(draws)
    assert [sample_binomial_value(k, single) for _ in draws] == expected


def test_binomial_values_have_matching_parity(rng_factory):
    rng = rng_factory(34)
    for k in (3, 4):
        for _ in range(200):
            v = sample_binomial_value(k, rng)
            assert abs(v) <= k and (v - k) % 2 == 0


# ---------------------------------------------------------------------------
# table sampling, distance, serialization


def test_tv_distance_basics():
    table = exact_table_roots(permanent(2), 2)
    assert tv_distance(table, table) == 0
    a = ProbabilityTable(2, 1, np.array([1, 0]))
    b = ProbabilityTable(2, 1, np.array([0, 1]))
    assert tv_distance(a, b) == 1
    with pytest.raises(ShapeMismatchError):
        tv_distance(a, exact_table_roots(permanent(2), 2))


def test_sample_from_table_frequencies(rng_factory):
    table = exact_table_roots(permanent(2), 2)
    rng = rng_factory(35)
    n = 100_000
    counts = np.zeros(table.size, dtype=int)
    for _ in range(n):
        counts[sample_from_table(table, rng)] += 1
    for flat in range(table.size):
        p = float(table[flat])
        sigma = max((p * (1 - p) / n) ** 0.5, 1e-12)
        assert abs(counts[flat] / n - p) < 5 * sigma + 1e-12


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_from_table_stays_in_range_under_float_drift():
    # The float CDF ends at 1 - 5e-10, below the draw; the sample must still
    # be a real outcome with mass, never the one-past-the-end index.
    table = ProbabilityTable(2, 2, np.array([0.5, 0.5 - 5e-10, 0.0, 0.0]))
    assert sample_from_table(table, _FixedDraw(1 - 1e-10)) == 1
    assert sample_from_table(table, _FixedDraw(0.25)) == 0
    assert sample_from_table(table, _FixedDraw(0.75)) == 1


def test_table_normalization_check_fires():
    with pytest.raises(NumericalCheckError):
        ProbabilityTable(2, 1, np.array([3, 2]), 6)  # 1/2 + 1/3
    with pytest.raises(NumericalCheckError):
        ProbabilityTable(2, 1, np.array([0.6, 0.5]))


def test_non_finite_double_table_is_rejected():
    # nan > tol is False, so a sum check alone lets nan through.
    for probs in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, 1.0]):
        with pytest.raises(NumericalCheckError, match="non-finite"):
            ProbabilityTable(2, 1, np.array(probs))


def test_table_json_round_trip():
    for table in (exact_table_roots(permanent(2), 2), exact_table_roots(permanent(2), 3)):
        doc = json.loads(json.dumps(table.to_json_dict()))
        back = ProbabilityTable.from_json_dict(doc)
        assert back.radix == table.radix and back.length == table.length
        assert tv_distance(back, table) < 1e-15


def test_table_csv_projection():
    import io

    table = exact_table_roots(permanent(2), 2)
    buf = io.StringIO()
    table.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "index,outcome,probability"
    assert len(lines) == 17
    assert lines[1].startswith("0,") and lines[1].endswith("1/8")
