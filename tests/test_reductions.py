"""Reduction drivers: exact-path identities, schedule guarantees, the lift."""

from fractions import Fraction
from math import comb

import pytest

from polysample import (
    RandomSource,
    ShapeMismatchError,
    additive_estimator,
    exact_table_roots,
    exact_table_squashed,
    hamiltonian_cycle,
    make_perturbed_sampler,
    multiplicative_lift,
    permanent,
    run_roots_reduction,
    run_squashed_reduction,
    squashed_additive_estimator,
    guarantee_schedule,
)


def test_guarantee_schedule_values():
    beta, gamma = guarantee_schedule(0.5, 0.25)
    assert beta == 0.5 * 0.25 / 16
    assert gamma == 0.5 * 0.25 / 8


def test_additive_estimator_exact_path_inverts_definition(rng_factory):
    # Exact sampler + gamma = 0: the estimate equals |Q|^2 for every draw.
    spec = permanent(2)
    sampler = make_perturbed_sampler(exact_table_roots(spec, 2), 0)
    rng = rng_factory(71)
    for _ in range(200):
        outcome, estimate = additive_estimator(sampler, spec, 2, 0.0, rng)
        z = [1 - 2 * e for e in outcome]
        q = z[0] * z[3] + z[1] * z[2]
        assert estimate == q * q


def test_squashed_estimator_exact_path(rng_factory):
    spec = permanent(2)
    sampler = make_perturbed_sampler(exact_table_squashed(spec, 2), 0)
    rng = rng_factory(72)
    for _ in range(200):
        values, estimate = squashed_additive_estimator(sampler, spec, 2, 0.0, rng)
        q = values[0] * values[3] + values[1] * values[2]
        assert estimate == q * q


def test_roots_reduction_exact_run_has_zero_error():
    report = run_roots_reduction(permanent(2), 2, 0.5, 0.25, 400, 73, beta=0.0, gamma=0.0)
    assert report.failure_count == 0
    assert all(r.error == 0 for r in report.records)


def test_squashed_reduction_exact_run_has_zero_error():
    report = run_squashed_reduction(permanent(2), 2, 0.5, 0.25, 400, 74, beta=0.0, gamma=0.0)
    assert report.failure_count == 0
    assert all(r.error == 0 for r in report.records)


@pytest.mark.parametrize("epsilon,delta", [(0.25, 0.125), (0.5, 0.25)])
def test_schedule_failure_rates_within_delta(epsilon, delta):
    roots = run_roots_reduction(permanent(2), 2, epsilon, delta, 1500, 75)
    assert roots.empirical_failure_rate <= delta
    squashed = run_squashed_reduction(permanent(2), 2, epsilon, delta, 1500, 76)
    assert squashed.empirical_failure_rate <= delta


def test_roots_reduction_on_ell3_is_float_tight():
    report = run_roots_reduction(permanent(2), 3, 0.5, 0.25, 200, 77, beta=0.0, gamma=0.0)
    assert all(r.error <= 1e-9 for r in report.records)


def test_concentrated_perturbation_shifts_exactly_two_estimates():
    # Estimate error at the receiving outcome is exactly ell^n * m * beta;
    # the donor is off by the same amount and everything else is exact.
    spec, ell, beta = permanent(2), 2, 0.03125
    target = exact_table_roots(spec, ell)
    receiver = next(i for i in range(16) if target[i] == 0)
    sampler = make_perturbed_sampler(target, beta, concentrate_on=receiver)
    scale = ell**spec.n_vars * spec.num_monomials
    off = []
    for flat in range(16):
        estimate = sampler.estimate_probability(flat, 0.0, None) * scale
        truth = target[flat] * scale
        if estimate != truth:
            off.append((flat, abs(estimate - truth)))
    assert len(off) == 2
    assert all(err == Fraction(beta) * scale for _, err in off)
    assert receiver in [flat for flat, _ in off]


def test_estimator_shape_validation(rng_factory):
    spec = permanent(2)
    sampler = make_perturbed_sampler(exact_table_roots(spec, 2), 0)
    with pytest.raises(ShapeMismatchError):
        additive_estimator(sampler, spec, 3, 0.0, rng_factory())
    with pytest.raises(ShapeMismatchError):
        squashed_additive_estimator(sampler, spec, 2, 0.0, rng_factory())


def test_squashed_draws_follow_blockwise_binomial(rng_factory):
    spec, k = permanent(2), 2
    sampler = make_perturbed_sampler(exact_table_squashed(spec, k), 0)
    rng = rng_factory(78)
    trials = 3000
    counts = {-2: 0, 0: 0, 2: 0}
    for _ in range(trials):
        values, _ = squashed_additive_estimator(sampler, spec, k, 0.0, rng)
        for v in values:
            counts[v] += 1
    draws = trials * spec.n_vars
    for value, count in counts.items():
        p = comb(k, (k + value) // 2) / 2**k
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(count / draws - p) < 5 * sigma


def test_reduction_report_is_reproducible():
    a = run_squashed_reduction(permanent(2), 2, 0.25, 0.125, 300, 79)
    b = run_squashed_reduction(permanent(2), 2, 0.25, 0.125, 300, 79)
    assert a.to_json_dict() == b.to_json_dict()


def test_hc_reduction_also_works():
    report = run_roots_reduction(hamiltonian_cycle(3), 2, 0.5, 0.25, 300, 80)
    assert report.empirical_failure_rate <= 0.25


# ---------------------------------------------------------------------------
# multiplicative lift


def test_lift_exact_run_has_zero_failures():
    report = run_squashed_reduction(permanent(2), 2, 0.5, 0.25, 500, 81, beta=0.0, gamma=0.0)
    lifted = multiplicative_lift(report, lambda n, inv_delta: n**2 * inv_delta)
    assert lifted.failure_count == 0
    assert lifted.nonzero_trials + lifted.zero_truth_trials == 500
    assert lifted.delta_mult == 0.5
    assert lifted.p_value == 4 * 4.0


def test_lift_zero_truth_trials_are_excluded_but_counted():
    report = run_squashed_reduction(permanent(2), 2, 0.5, 0.25, 500, 82, beta=0.0, gamma=0.0)
    lifted = multiplicative_lift(report, lambda n, inv_delta: n**2 * inv_delta)
    zero_records = sum(1 for r in report.records if r.truth == 0)
    assert lifted.zero_truth_trials == zero_records > 0


def test_lift_union_bound_recomputable_from_records():
    # Every multiplicative failure must be an additive failure or an
    # anti-concentration hit; verify the implication per trial.
    report = run_squashed_reduction(permanent(3), 2, 0.25, 0.125, 800, 83)
    lifted = multiplicative_lift(report, lambda n, inv_delta: n**2 * inv_delta)
    cutoff = report.bound_scale / lifted.p_value
    for record in report.records:
        if record.truth == 0:
            continue
        mult_fail = record.error > lifted.epsilon_mult * record.truth
        if mult_fail:
            assert record.error > report.additive_bound or record.truth < cutoff
    assert lifted.failure_rate <= 2 * report.delta + max(
        0.0, lifted.anticoncentration_rate - report.delta
    ) + report.empirical_failure_rate


def test_lift_requires_records_and_positive_p():
    report = run_squashed_reduction(permanent(2), 2, 0.5, 0.25, 10, 84)
    with pytest.raises(ValueError):
        multiplicative_lift(report, lambda n, inv_delta: 0.0)
    report.records = []
    with pytest.raises(ValueError):
        multiplicative_lift(report, lambda n, inv_delta: 1.0)
