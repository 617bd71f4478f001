"""Sampler-to-estimator reductions and the multiplicative lift.

Given (noisy, perturbed) sampler access to one of the target distributions,
these drivers reconstruct squared polynomial values at random inputs and
measure how often the additive error bound is violated. The schedule
``beta = eps*delta/16, gamma = eps*delta/8`` is the one under which the
failure rate is guaranteed to stay below delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParityError, ShapeMismatchError
from .evaluate import squared_values
from .families import PolynomialSpec
from .rng import RandomSource, as_random_source
from .samplers import SamplerHandle, make_perturbed_sampler
from .tables import (
    binomial_coefficients,
    binomial_sampling_method,
    exact_table_roots,
    exact_table_squashed,
    mixed_radix_index,
    sample_binomial_values,
)

ROOTS = "roots"
SQUASHED = "squashed"


def guarantee_schedule(epsilon: float, delta: float) -> tuple[float, float]:
    """(beta, gamma) pair under which the additive guarantee holds."""
    return epsilon * delta / 16.0, epsilon * delta / 8.0


@dataclass(frozen=True)
class TrialRecord:
    outcome: tuple[int, ...]
    estimate: float
    truth: float
    error: float


@dataclass
class ReductionReport:
    kind: str
    spec: dict
    mode_param: int  # ell for roots, k for squashed
    epsilon: float
    delta: float
    beta: float
    gamma: float
    trials: int
    seed: int
    bound_scale: int  # variance of Q under the drawing distribution
    realized_tv: float
    failure_count: int = 0
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def additive_bound(self) -> float:
        return self.epsilon * self.bound_scale

    @property
    def empirical_failure_rate(self) -> float:
        return self.failure_count / self.trials if self.trials else 0.0

    def to_json_dict(self, include_records: bool = True) -> dict:
        doc = {
            "kind": self.kind,
            "spec": self.spec,
            "mode_param": self.mode_param,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "beta": self.beta,
            "gamma": self.gamma,
            "trials": self.trials,
            "seed": self.seed,
            "bound_scale": self.bound_scale,
            "additive_bound": self.additive_bound,
            "realized_tv": self.realized_tv,
            "failure_count": self.failure_count,
            "empirical_failure_rate": self.empirical_failure_rate,
        }
        if self.kind == SQUASHED:
            doc["binomial_sampling_method"] = binomial_sampling_method(self.mode_param)
        if include_records:
            doc["records"] = [
                [list(r.outcome), r.estimate, r.truth, r.error] for r in self.records
            ]
        return doc


def additive_estimator(
    sampler: SamplerHandle, spec: PolynomialSpec, ell: int, gamma: float, rng: RandomSource
):
    """One reduction trial: uniform outcome, scaled probability estimate.

    Returns (exponent tuple, estimate of |Q|^2 at the encoded point).
    """
    _check_shape(sampler, ell, spec.n_vars)
    digits = tuple(int(v) for v in rng.integers(0, ell, size=spec.n_vars))
    flat = mixed_radix_index(digits, ell)
    scale = ell**spec.n_vars * spec.num_monomials
    estimate = sampler.estimate_probability(flat, gamma, rng) * scale
    return digits, estimate


def squashed_additive_estimator(
    sampler: SamplerHandle, spec: PolynomialSpec, k: int, gamma: float, rng: RandomSource
):
    """One squashed trial: blockwise-binomial outcome, orbit-normalized estimate.

    Returns (integer value tuple, estimate of Q^2 at that point).
    """
    _check_shape(sampler, k + 1, spec.n_vars)
    values = tuple(sample_binomial_values(k, spec.n_vars, rng))
    # One pass over the coordinates: parity, then class c = (v + k) / 2 as a
    # mixed-radix digit and its C(k, c) preimages.
    row = binomial_coefficients(k)
    flat, orbit = 0, 1
    for v in values:
        if (v - k) % 2:
            raise ParityError("drawn point violates the parity constraint")
        c = (v + k) // 2
        flat = flat * (k + 1) + c
        orbit *= row[c]
    scale = 2 ** (k * spec.n_vars) * k**spec.degree * spec.num_monomials
    estimate = sampler.estimate_probability(flat, gamma, rng) * scale / orbit
    return values, estimate


def run_roots_reduction(
    spec: PolynomialSpec,
    ell: int,
    epsilon: float,
    delta: float,
    trials: int,
    seed: int | RandomSource,
    beta: float | None = None,
    gamma: float | None = None,
) -> ReductionReport:
    return _run_reduction(ROOTS, spec, ell, epsilon, delta, trials, seed, beta, gamma)


def run_squashed_reduction(
    spec: PolynomialSpec,
    k: int,
    epsilon: float,
    delta: float,
    trials: int,
    seed: int | RandomSource,
    beta: float | None = None,
    gamma: float | None = None,
) -> ReductionReport:
    return _run_reduction(SQUASHED, spec, k, epsilon, delta, trials, seed, beta, gamma)


def _run_reduction(kind, spec, param, epsilon, delta, trials, seed, beta, gamma) -> ReductionReport:
    # The table builders and estimators are looked up as module globals on
    # every call, so a wrapped or patched one is the one that runs.
    sched_beta, sched_gamma = guarantee_schedule(epsilon, delta)
    beta = sched_beta if beta is None else beta
    gamma = sched_gamma if gamma is None else gamma
    rng = as_random_source(seed)
    if kind == ROOTS:
        target, estimator = exact_table_roots(spec, param), additive_estimator
        bound_scale = spec.num_monomials
    else:
        target, estimator = exact_table_squashed(spec, param), squashed_additive_estimator
        bound_scale = param**spec.degree * spec.num_monomials
    sampler = make_perturbed_sampler(target, beta)
    report = ReductionReport(
        kind, spec.describe(), param, epsilon, delta, beta, gamma,
        trials, rng.seed, bound_scale, sampler.realized_tv,
    )
    estimates = [estimator(sampler, spec, param, gamma, rng) for _ in range(trials)]
    # Truths draw no randomness: one batch over the distinct outcomes.
    distinct = list(dict.fromkeys(outcome for outcome, _ in estimates))
    points = np.array(distinct, dtype=np.int64).reshape(len(distinct), spec.n_vars)
    truths = dict(zip(distinct, squared_values(spec, points, ell=param if kind == ROOTS else None).tolist()))
    for outcome, estimate in estimates:
        truth = truths[outcome]
        error = abs(estimate - truth)
        if error > report.additive_bound:
            report.failure_count += 1
        report.records.append(TrialRecord(outcome, float(estimate), float(truth), float(error)))
    return report


def _check_shape(sampler: SamplerHandle, radix: int, length: int) -> None:
    if (sampler.table.radix, sampler.table.length) != (radix, length):
        raise ShapeMismatchError(
            f"sampler table shape ({sampler.table.radix}, {sampler.table.length}) "
            f"does not match ({radix}, {length})"
        )


# ---------------------------------------------------------------------------
# multiplicative lift


@dataclass
class MultiplicativeLiftReport:
    """Additive trials reread through the multiplicative criterion.

    Trials with truth exactly 0 are excluded from the multiplicative count
    (the criterion is vacuous there) and reported separately. The
    anti-concentration rate Pr[truth < Var / p] is what the union bound
    consumes when turning additive into multiplicative guarantees.
    """

    epsilon_mult: float
    delta_mult: float
    p_value: float
    size_n: int
    nonzero_trials: int
    zero_truth_trials: int
    failure_count: int
    anticoncentration_count: int

    @property
    def failure_rate(self) -> float:
        return self.failure_count / self.nonzero_trials if self.nonzero_trials else 0.0

    @property
    def anticoncentration_rate(self) -> float:
        total = self.nonzero_trials + self.zero_truth_trials
        return self.anticoncentration_count / total if total else 0.0

    def to_json_dict(self) -> dict:
        return {
            "epsilon_mult": self.epsilon_mult,
            "delta_mult": self.delta_mult,
            "p_value": self.p_value,
            "size_n": self.size_n,
            "nonzero_trials": self.nonzero_trials,
            "zero_truth_trials": self.zero_truth_trials,
            "failure_count": self.failure_count,
            "failure_rate": self.failure_rate,
            "anticoncentration_count": self.anticoncentration_count,
            "anticoncentration_rate": self.anticoncentration_rate,
        }


def multiplicative_lift(report: ReductionReport, p_poly) -> MultiplicativeLiftReport:
    """Reclassify an additive report at eps' = eps * p(n, 1/delta), delta' = 2*delta."""
    if not report.records:
        raise ValueError("report carries no per-trial records to lift")
    size_n = int(report.spec["n"])
    p_value = float(p_poly(size_n, 1.0 / report.delta))
    if p_value <= 0:
        raise ValueError("p(n, 1/delta) must be positive")
    eps_mult = report.epsilon * p_value
    cutoff = report.bound_scale / p_value
    lifted = MultiplicativeLiftReport(
        eps_mult, 2.0 * report.delta, p_value, size_n, 0, 0, 0, 0
    )
    for record in report.records:
        if record.truth < cutoff:
            lifted.anticoncentration_count += 1
        if record.truth == 0:
            lifted.zero_truth_trials += 1
            continue
        lifted.nonzero_trials += 1
        if record.error > eps_mult * record.truth:
            lifted.failure_count += 1
    return lifted
