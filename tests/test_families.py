"""Ranking bijections, mask structure, lifting, and the collapse map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_permanent, lex_cycles, lex_permutations, permutation_mask
from polysample import (
    Assignment,
    InvalidMonomialError,
    collapse_assignment,
    evaluate_by_enumeration,
    hamiltonian_cycle,
    index_of_monomial,
    lift_k_equivalent,
    mask_from_string,
    mask_to_string,
    monomial_of_index,
    permanent,
    spec_from_json,
)
from polysample.families import HAMILTONIAN_CYCLE, LIFTED

FAMILIES = {"permanent": permanent, "hamiltonian_cycle": hamiltonian_cycle}


def test_permanent_spec_invariants():
    for n in range(1, 7):
        spec = permanent(n)
        assert spec.n_vars == n * n
        assert spec.degree == n
        assert spec.num_monomials == _factorial(n)


def test_hamiltonian_cycle_spec_invariants():
    for n in range(2, 8):
        spec = hamiltonian_cycle(n)
        assert spec.n_vars == n * n
        assert spec.degree == n
        assert spec.num_monomials == _factorial(n - 1)


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_permanent_unrank_known_values():
    assert monomial_of_index(permanent(2), 0) == (1, 0, 0, 1)
    assert mask_to_string(monomial_of_index(permanent(3), 5)) == "001010100"


def test_permanent_unrank_matches_lexicographic_order():
    for n in range(1, 6):
        spec = permanent(n)
        for z, perm in enumerate(lex_permutations(n)):
            assert monomial_of_index(spec, z) == permutation_mask(perm, n)


def test_hc_unrank_matches_visit_order():
    for n in range(2, 6):
        spec = hamiltonian_cycle(n)
        for z, successor in enumerate(lex_cycles(n)):
            assert monomial_of_index(spec, z) == permutation_mask(successor, n)


def test_hc_n3_has_exactly_two_cycles():
    spec = hamiltonian_cycle(3)
    assert spec.num_monomials == 2
    masks = {monomial_of_index(spec, z) for z in range(2)}
    assert masks == {permutation_mask(s, 3) for s in lex_cycles(3)}


def test_rank_known_values():
    assert index_of_monomial(permanent(2), (1, 0, 0, 1)) == 0
    assert index_of_monomial(permanent(3), mask_from_string("001010100")) == 5


@pytest.mark.parametrize("spec", [permanent(4), permanent(5), hamiltonian_cycle(5), hamiltonian_cycle(6)])
def test_rank_unrank_round_trip(spec):
    for z in range(spec.num_monomials):
        assert index_of_monomial(spec, monomial_of_index(spec, z)) == z


def _lift_past_2_64(base):
    """The k-copy lift of ``base`` with the fewest copies whose monomial count exceeds 2^64."""
    m, d = base.num_monomials, base.degree
    k = max(1, int((2.0**64 / m) ** (1 / d)) - 1)
    while m * k**d <= 1 << 64:
        k += 1
    return lift_k_equivalent(base, k)


@st.composite
def specs_and_indices(draw):
    """A permanent or Hamiltonian-cycle spec with n <= 12, or a lift of one with more than 2^64 monomials."""
    make = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    if draw(st.booleans()):
        spec = _lift_past_2_64(make(draw(st.integers(6, 12))))
        assert spec.num_monomials > 1 << 64
    else:
        spec = make(draw(st.integers(1, 12)))
    return spec, draw(st.integers(0, spec.num_monomials - 1))


def _assert_monomial_structure(spec, mask):
    assert sum(mask) == spec.degree
    if spec.family == LIFTED:
        k = spec.lift_k
        blocks = [mask[i * k : (i + 1) * k] for i in range(spec.base.n_vars)]
        assert all(sum(block) <= 1 for block in blocks)
        _assert_monomial_structure(spec.base, tuple(sum(block) for block in blocks))
        return
    n = spec.matrix_n
    rows = [mask[i * n : (i + 1) * n] for i in range(n)]
    assert all(sum(row) == 1 for row in rows)
    successor = [row.index(1) for row in rows]
    assert sorted(successor) == list(range(n))  # a permutation matrix
    if spec.family == HAMILTONIAN_CYCLE:
        at, steps = successor[0], 1
        while at != 0:
            at, steps = successor[at], steps + 1
        assert steps == n  # one n-cycle through vertex 0


@settings(max_examples=100, deadline=None)
@given(specs_and_indices())
def test_rank_inverts_unrank_beyond_exhaustive_sizes(spec_and_index):
    spec, z = spec_and_index
    assert index_of_monomial(spec, monomial_of_index(spec, z)) == z


@settings(max_examples=100, deadline=None)
@given(specs_and_indices())
def test_unranked_masks_have_the_family_structure(spec_and_index):
    spec, z = spec_and_index
    _assert_monomial_structure(spec, monomial_of_index(spec, z))


@settings(max_examples=100, deadline=None)
@given(specs_and_indices(), st.data())
def test_rank_rejects_a_mask_with_one_bit_flipped(spec_and_index, data):
    spec, z = spec_and_index
    mask = monomial_of_index(spec, z)
    i = data.draw(st.integers(0, spec.n_vars - 1))
    with pytest.raises(InvalidMonomialError):
        index_of_monomial(spec, mask[:i] + (1 - mask[i],) + mask[i + 1 :])


def test_index_out_of_range():
    with pytest.raises(IndexError):
        monomial_of_index(permanent(3), 6)
    with pytest.raises(IndexError):
        monomial_of_index(permanent(3), -1)


def test_rank_rejects_structurally_bad_masks():
    spec = permanent(2)
    with pytest.raises(InvalidMonomialError):
        index_of_monomial(spec, (1, 1, 0, 0))  # two entries in one row
    with pytest.raises(InvalidMonomialError):
        index_of_monomial(spec, (1, 0, 1, 0))  # column reused
    with pytest.raises(InvalidMonomialError):
        index_of_monomial(spec, (1, 0, 0))  # wrong length
    # a permutation with a fixed point is not a single 3-cycle
    with pytest.raises(InvalidMonomialError):
        index_of_monomial(hamiltonian_cycle(3), permutation_mask((0, 2, 1), 3))


def test_every_hc_mask_walks_a_full_cycle():
    spec = hamiltonian_cycle(5)
    for z in range(spec.num_monomials):
        mask = monomial_of_index(spec, z)
        successor = [mask[i * 5 : (i + 1) * 5].index(1) for i in range(5)]
        seen, at = set(), 0
        for _ in range(5):
            at = successor[at]
            seen.add(at)
        assert at == 0 and len(seen) == 5


def test_lift_spec_fields():
    lifted = lift_k_equivalent(permanent(2), 2)
    assert lifted.family == LIFTED
    assert lifted.n_vars == 8
    assert lifted.degree == 2
    assert lifted.num_monomials == 8  # m * k^d = 2 * 4


def test_lift_k1_is_isomorphic_to_base():
    base = permanent(3)
    lifted = lift_k_equivalent(base, 1)
    assert lifted.num_monomials == base.num_monomials
    for z in range(base.num_monomials):
        assert monomial_of_index(lifted, z) == monomial_of_index(base, z)


def test_lift_round_trip_exhaustive():
    lifted = lift_k_equivalent(permanent(3), 2)
    assert lifted.num_monomials == 48
    for z in range(lifted.num_monomials):
        assert index_of_monomial(lifted, monomial_of_index(lifted, z)) == z


def test_lift_mask_structure():
    lifted = lift_k_equivalent(hamiltonian_cycle(3), 3)
    for z in range(lifted.num_monomials):
        mask = monomial_of_index(lifted, z)
        blocks = [mask[i * 3 : (i + 1) * 3] for i in range(9)]
        assert sum(sum(b) for b in blocks) == lifted.degree
        assert all(sum(b) <= 1 for b in blocks)


def test_lift_rejects_multiply_occupied_block():
    lifted = lift_k_equivalent(permanent(2), 2)
    bad = [0] * 8
    bad[0] = bad[1] = 1  # two copies of the same base variable
    bad[6] = 1
    with pytest.raises(InvalidMonomialError):
        index_of_monomial(lifted, tuple(bad))


def test_collapse_blocks():
    assert collapse_assignment([1, 1], 2).values == (2,)
    assert collapse_assignment([1, -1], 2).values == (0,)
    assert collapse_assignment([-1, -1], 2).values == (-2,)
    assert collapse_assignment([1] * 12, 3).values == (3, 3, 3, 3)


def test_collapse_rejects_bad_input():
    with pytest.raises(ValueError):
        collapse_assignment([1, -1, 1], 2)
    with pytest.raises(ValueError):
        collapse_assignment([1, 0], 2)


def test_lifted_evaluation_equals_base_at_collapse(rng_factory):
    # Q_lifted(x) == Q_base(collapse(x)) for uniformly random sign vectors.
    base = permanent(2)
    lifted = lift_k_equivalent(base, 3)
    rng = rng_factory(11)
    for _ in range(50):
        x = [1 - 2 * int(b) for b in rng.integers(0, 2, size=12)]
        left = evaluate_by_enumeration(lifted, Assignment.integers(1, x))
        right = evaluate_by_enumeration(base, collapse_assignment(x, 3))
        assert left == right


def test_mask_string_round_trip():
    mask = monomial_of_index(permanent(3), 4)
    assert mask_from_string(mask_to_string(mask)) == mask
    with pytest.raises(InvalidMonomialError):
        mask_from_string("01x")


def test_spec_json_round_trip():
    for spec in [permanent(3), hamiltonian_cycle(4), lift_k_equivalent(permanent(2), 3)]:
        doc = spec.describe()
        assert spec_from_json(doc) == spec
    assert permanent(3).describe() == {"family": "permanent", "n": 3}
    assert lift_k_equivalent(permanent(2), 3).describe() == {"family": "permanent", "n": 2, "k": 3}


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment.roots(1, [0])  # degenerate root order
    with pytest.raises(ValueError):
        Assignment.roots(2, [0, 2])
    with pytest.raises(ValueError):
        Assignment.integers(2, [3])
    assert Assignment.roots(2, [0, 1]).numeric_values() == (1, -1)
    assert Assignment.integers(3, [-3, 1]).numeric_values() == (-3, 1)


def test_root_values_on_unit_circle():
    values = Assignment.roots(4, [0, 1, 2, 3]).numeric_values()
    assert values[0] == 1
    assert abs(values[1] - 1j) < 1e-12
    assert abs(values[2] + 1) < 1e-12
    assert abs(values[3] + 1j) < 1e-12


def test_brute_permanent_oracle_agrees_small():
    # cross-check the test oracle itself on a hand value
    assert brute_permanent([1, 1, 1, -1], 2) == 0
    assert brute_permanent([1] * 9, 3) == 6
