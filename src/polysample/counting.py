"""The error model of the approximate-counting step.

Relative-error approximate counting (Stockmeyer's counting step in the
reduction) guarantees an estimate within a factor [1-gamma, 1+gamma] of the
true probability. The reductions inject exactly that error: the true value
scaled by a uniform factor from the interval.
"""

from __future__ import annotations

from .rng import RandomSource


def noisy_scale(value, gamma: float, rng: RandomSource | None):
    """Multiply by a uniform factor in [1-gamma, 1+gamma]; exact when gamma = 0."""
    if gamma == 0:
        return value
    if rng is None:
        raise ValueError("gamma > 0 needs an rng")
    return float(value) * (1.0 + rng.uniform(-gamma, gamma))
