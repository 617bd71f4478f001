"""Sampler adversaries: exact, TV-perturbed, and draw-only empirical."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .counting import noisy_scale
from .rng import RandomSource
from .tables import RATIONAL, ProbabilityTable, exact_weights, sample_from_table

EXACT = "exact"
PERTURBED = "perturbed"
EMPIRICAL = "empirical"


@dataclass
class SamplerHandle:
    """A classical sampler judged against a target table.

    ``table`` is the distribution actually drawn from; for the perturbed
    kind it sits at total variation ``realized_tv`` from ``target``.
    ``probability_query`` models oracle access to the sampler's own outcome
    probabilities; without it, probabilities must be estimated from
    ``sample_budget`` fresh draws.
    """

    kind: str
    target: ProbabilityTable
    table: ProbabilityTable
    realized_tv: float
    probability_query: bool = True
    sample_budget: int | None = None

    def draw(self, rng: RandomSource) -> int:
        return sample_from_table(self.table, rng)

    def probability(self, flat_index: int):
        if not self.probability_query:
            raise ValueError(f"{self.kind} sampler does not expose probability queries")
        return self.table[flat_index]

    def estimate_probability(self, flat_index: int, gamma: float, rng: RandomSource):
        """Outcome-probability estimate: noisy query if available, else frequency."""
        if self.probability_query:
            return noisy_scale(self.table[flat_index], gamma, rng)
        hits = sum(1 for _ in range(self.sample_budget) if self.draw(rng) == flat_index)
        return Fraction(hits, self.sample_budget)


def exact_sampler(target: ProbabilityTable) -> SamplerHandle:
    return SamplerHandle(EXACT, target, target, 0.0)


def empirical_sampler(target: ProbabilityTable, sample_budget: int) -> SamplerHandle:
    if sample_budget < 1:
        raise ValueError("sample budget must be >= 1")
    return SamplerHandle(EMPIRICAL, target, target, 0.0, probability_query=False, sample_budget=sample_budget)


def make_perturbed_sampler(
    target: ProbabilityTable, beta: float, concentrate_on: int | None = None
) -> SamplerHandle:
    """Deterministic adversary at total variation min(beta, achievable) from target.

    Default shape: mass flows from the largest entries to the single
    smallest entry (ties broken by lowest index). With ``concentrate_on``,
    the receiving outcome is forced, modeling an adversary that piles error
    onto one queried outcome.
    """
    if beta < 0 or beta > 1:
        raise ValueError("beta must lie in [0, 1]")
    if target.arithmetic == RATIONAL:
        # Exact tables move integer mass over the lcm of the table's and beta's denominators.
        denominator = lcm(target.denominator, Fraction(beta).denominator)
        weights = exact_weights(target.weights, denominator) * (denominator // target.denominator)
        want = int(Fraction(beta) * denominator)
    else:
        denominator, weights, want = 1, target.weights.copy(), beta

    if concentrate_on is None:
        receiver = int(np.argmin(weights))
    else:
        receiver = int(concentrate_on)
        if not 0 <= receiver < len(weights):
            raise ValueError(f"receiver index {receiver} out of range")

    donors = np.argsort(-weights, kind="stable")
    moved = 0
    for donor in donors[donors != receiver].tolist():
        if moved >= want:
            break
        take = min(weights[donor], want - moved)
        weights[donor] -= take
        moved += take
    weights[receiver] += moved

    table = ProbabilityTable(target.radix, target.length, weights, denominator)
    return SamplerHandle(PERTURBED, target, table, float(Fraction(moved) / denominator))
