"""TV-perturbed sampler adversaries, queried for their own outcome probabilities
through the approximate-counting error model (``counting.noisy_scale``)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .counting import noisy_scale
from .rng import RandomSource
from .tables import DOUBLE, RATIONAL, ProbabilityTable, exact_weights, sample_from_table


@dataclass
class SamplerHandle:
    """A classical sampler: the table it draws from, at TV ``realized_tv`` from its target."""

    table: ProbabilityTable
    realized_tv: float

    def draw(self, rng: RandomSource) -> int:
        return sample_from_table(self.table, rng)

    def probability(self, flat_index: int):
        return self.table[flat_index]

    def estimate_probability(self, flat_index: int, gamma: float, rng: RandomSource):
        """The outcome probability within a factor [1-gamma, 1+gamma]; the exact entry at gamma = 0."""
        if gamma == 0:
            return self.table[flat_index]
        w = self.table.weights[flat_index]
        # Python's int / int is correctly rounded, so this is float(table[flat_index]) without the Fraction.
        value = float(w) if self.table.arithmetic == DOUBLE else int(w) / self.table.denominator
        return noisy_scale(value, gamma, rng)


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
    return SamplerHandle(table, float(Fraction(moved) / denominator))
