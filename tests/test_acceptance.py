"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import numpy as np

from polysample import (
    Assignment,
    anticoncentration_experiment,
    build_squashed_transform,
    collapse_assignment,
    evaluate_by_enumeration,
    exact_table_fold,
    exact_table_roots,
    exact_table_squashed,
    hamiltonian_cycle,
    index_of_monomial,
    lift_k_equivalent,
    monomial_of_index,
    permanent,
    run_fold_sampler_circuit,
    run_roots_reduction,
    run_roots_sampler_circuit,
    run_squashed_reduction,
    run_squashed_sampler_circuit,
    tv_distance,
    unitarity_residual,
    variance,
    wilson_interval,
)
from polysample.rng import RandomSource
from polysample.tables import mixed_radix_digits, mixed_radix_index

GOLDEN = Path(__file__).parent / "golden" / "squashed_k2.json"


def _finish(name, budget, start, failures):
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    detail = "; ".join(failures) if failures else "all checks held"
    print(f"[acceptance] {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s) {detail}")
    assert not failures, failures
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_squashed_transform_golden():
    start = time.perf_counter()
    failures = []
    golden = json.loads(GOLDEN.read_text())
    transform = build_squashed_transform(2)
    if np.max(np.abs(transform.unitary - np.array(golden["unitary"]))) > 1e-12:
        failures.append("k=2 unitary deviates from the golden fixture")
    if abs(transform.r0 - 0.5) > 1e-12:
        failures.append(f"r0 = {transform.r0}, want 1/2")
    if abs(transform.r1 - 1 / np.sqrt(8)) > 1e-12:
        failures.append(f"r1 = {transform.r1}, want 1/sqrt(8)")
    for k in range(1, 17):
        residual = unitarity_residual(build_squashed_transform(k))
        if residual > 1e-9:
            failures.append(f"unitarity residual {residual:.2e} at k={k}")
    _finish("1 squashed-transform golden", 1.0, start, failures)


def test_criterion_2_circuit_analytics_equivalence():
    start = time.perf_counter()
    failures = []
    cases = [(permanent(n), ell) for n in (2, 3) for ell in (2, 3, 4)]
    cases += [(hamiltonian_cycle(n), 2) for n in (3, 4)]
    for spec, ell in cases:
        tv = tv_distance(run_roots_sampler_circuit(spec, ell), exact_table_roots(spec, ell))
        if tv > 1e-9:
            failures.append(f"{spec.family} n={spec.matrix_n} ell={ell}: TV {tv:.2e}")
    tv = tv_distance(run_squashed_sampler_circuit(permanent(2), 2), exact_table_squashed(permanent(2), 2))
    if tv > 1e-9:
        failures.append(f"squashed permanent n=2 k=2: TV {tv:.2e}")
    _finish("2 circuit-analytics equivalence", 30.0, start, failures)


def test_criterion_3_variance_identities():
    start = time.perf_counter()
    failures = []
    for spec in (permanent(2), permanent(3), hamiltonian_cycle(4)):
        for k in range(1, 31):
            report = variance(spec, k)
            if report.sum_form != report.closed_form:
                failures.append(f"{spec.family} k={k}: {report.sum_form} != {report.closed_form}")
    base = permanent(2)
    for k in (1, 2, 3):
        lifted = lift_k_equivalent(base, k)
        total = 0
        for flat in range(2**lifted.n_vars):
            bits = mixed_radix_digits(flat, 2, lifted.n_vars)
            q = evaluate_by_enumeration(lifted, Assignment.roots(2, bits))
            total += q * q
        mean_square = Fraction(total, 2**lifted.n_vars)
        if mean_square != variance(base, k).closed_form:
            failures.append(f"exhaustive mean square {mean_square} != k^d m at k={k}")
    _finish("3 variance identities", 10.0, start, failures)


def test_criterion_4_bijection_suite():
    start = time.perf_counter()
    failures = []
    specs = [permanent(n) for n in range(1, 7)]
    specs += [hamiltonian_cycle(n) for n in range(2, 8)]
    specs.append(lift_k_equivalent(permanent(3), 2))
    for spec in specs:
        bad = sum(
            1
            for z in range(spec.num_monomials)
            if index_of_monomial(spec, monomial_of_index(spec, z)) != z
        )
        if bad:
            failures.append(f"{spec.family} n_vars={spec.n_vars}: {bad} round-trip failures")
    _finish("4 bijection suite", 60.0, start, failures)


def test_criterion_5_pushforward_identity():
    start = time.perf_counter()
    failures = []
    base = permanent(2)
    for k in (1, 2):
        lifted = lift_k_equivalent(base, k)
        signs = exact_table_roots(lifted, 2)
        squashed = exact_table_squashed(base, k)
        pushed = [Fraction(0)] * squashed.size
        for flat in range(signs.size):
            bits = mixed_radix_digits(flat, 2, lifted.n_vars)
            x = [1 - 2 * b for b in bits]
            classes = tuple((v + k) // 2 for v in collapse_assignment(x, k).values)
            pushed[mixed_radix_index(classes, k + 1)] += signs[flat]
        if pushed != list(squashed):
            failures.append(f"pushforward mismatch at k={k}")
    _finish("5 pushforward identity", 30.0, start, failures)


def test_criterion_6_reduction_guarantee():
    start = time.perf_counter()
    failures = []
    spec, trials = permanent(2), 10_000
    for epsilon in (0.25, 0.5):
        for delta in (0.125, 0.25):
            roots = run_roots_reduction(spec, 2, epsilon, delta, trials, RandomSource(600))
            if roots.empirical_failure_rate > delta:
                failures.append(
                    f"roots eps={epsilon} delta={delta}: rate {roots.empirical_failure_rate}"
                )
            squashed = run_squashed_reduction(spec, 2, epsilon, delta, trials, RandomSource(601))
            if squashed.empirical_failure_rate > delta:
                failures.append(
                    f"squashed eps={epsilon} delta={delta}: rate {squashed.empirical_failure_rate}"
                )
    exact_roots = run_roots_reduction(spec, 2, 0.25, 0.125, trials, RandomSource(602), beta=0.0, gamma=0.0)
    if any(r.error != 0 for r in exact_roots.records):
        failures.append("roots errors not identically zero at beta = gamma = 0")
    exact_squashed = run_squashed_reduction(spec, 2, 0.25, 0.125, trials, RandomSource(603), beta=0.0, gamma=0.0)
    if any(r.error != 0 for r in exact_squashed.records):
        failures.append("squashed errors not identically zero at beta = gamma = 0")
    _finish("6 reduction guarantee", 120.0, start, failures)


def test_criterion_7_fold_sampler():
    start = time.perf_counter()
    failures = []
    table = run_fold_sampler_circuit([1] * 256)
    if abs(float(table[0]) - 1) > 1e-12:
        failures.append("constant function is not a point mass at zero")
    c = 0b10110100
    f = [1 - 2 * (bin(x & c).count("1") % 2) for x in range(256)]
    table = run_fold_sampler_circuit(f)
    if abs(float(table[c]) - 1) > 1e-12:
        failures.append("character function does not concentrate at its index")
    rng = RandomSource(700)
    worst = 0.0
    for _ in range(100):
        f = [1 - 2 * int(b) for b in rng.integers(0, 2, size=256)]
        worst = max(worst, tv_distance(run_fold_sampler_circuit(f), exact_table_fold(f)))
    if worst > 1e-12:
        failures.append(f"worst random-table TV {worst:.2e}")
    _finish("7 fold sampler", 10.0, start, failures)


def test_criterion_8_anticoncentration_evidence():
    start = time.perf_counter()
    failures = []
    thresholds = [1.0, 0.5]

    fast = anticoncentration_experiment(permanent(3), ell=2, exhaustive=True,
                                        thresholds=thresholds, evaluator="fast")
    slow = anticoncentration_experiment(permanent(3), ell=2, exhaustive=True,
                                        thresholds=thresholds, evaluator="enumeration")
    if fast.to_json_dict()["rows"] != slow.to_json_dict()["rows"] or fast.zero_rate != slow.zero_rate:
        failures.append("n=3 exhaustive tables differ between evaluators")

    exact4 = anticoncentration_experiment(permanent(4), ell=2, exhaustive=True,
                                          thresholds=thresholds)
    sampled4 = anticoncentration_experiment(permanent(4), ell=2, samples=30_000,
                                            thresholds=thresholds, rng=RandomSource(800))
    for exact_row, sampled_row in zip(exact4.rows, sampled4.rows):
        if not sampled_row.ci_low <= exact_row.rate <= sampled_row.ci_high:
            failures.append(
                f"n=4 CI [{sampled_row.ci_low:.4f}, {sampled_row.ci_high:.4f}] misses "
                f"exact rate {exact_row.rate:.4f} at 1/p={exact_row.inv_p}"
            )
    zero_hits = round(sampled4.zero_rate * sampled4.samples)
    low, high = wilson_interval(zero_hits, sampled4.samples)
    if not low <= exact4.zero_rate <= high:
        failures.append(f"n=4 zero-rate CI [{low:.4f}, {high:.4f}] misses {exact4.zero_rate:.4f}")

    sampled5 = anticoncentration_experiment(permanent(5), ell=2, samples=20_000,
                                            thresholds=[0.25, 0.5, 1.0], rng=RandomSource(801))
    rates = [r.rate for r in sampled5.rows]
    if rates != sorted(rates):
        failures.append("n=5 Monte Carlo rates are not monotone in the threshold")
    _finish("8 anticoncentration evidence", 120.0, start, failures)
