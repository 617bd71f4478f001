"""Empirical tail-mass experiments: evidence tables, never pass/fail gates.

For a family polynomial and an input distribution (uniform root-of-unity
points or blockwise-binomial integers), estimate Pr[|Q|^2 < Var / p] across
a ladder of 1/p thresholds. Exhaustive mode enumerates the whole input
space and reports exact rates; Monte Carlo mode reports Wilson confidence
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import sqrt

from .errors import SizeGuardError
from .evaluate import evaluate_values_by_enumeration, evaluate_values_fast
from .families import Assignment, PolynomialSpec
from .rng import RandomSource, as_random_source
from .tables import sample_binomial_value, squashed_points

EXHAUSTIVE_GUARD = 1 << 22
DEFAULT_THRESHOLDS = (0.5, 0.25, 0.125, 0.0625)


def wilson_interval(hits: int, total: int, z: float = 1.96) -> tuple[float, float]:
    if total <= 0:
        raise ValueError("total must be positive")
    p_hat = hits / total
    denom = 1.0 + z * z / total
    center = (p_hat + z * z / (2 * total)) / denom
    half = z * sqrt(p_hat * (1 - p_hat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class TailRow:
    inv_p: float  # threshold 1/p
    cutoff: float  # Var / p
    rate: float
    ci_low: float
    ci_high: float
    hits: int | None = None  # integer counts only when they exist


@dataclass
class TailReport:
    spec: dict
    mode: str  # "roots" or "integer"
    mode_param: int  # ell or k
    evaluator: str
    exhaustive: bool
    samples: int
    seed: int | None
    variance_value: int
    zero_rate: float
    rows: list[TailRow]

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "mode": self.mode,
            "mode_param": self.mode_param,
            "evaluator": self.evaluator,
            "exhaustive": self.exhaustive,
            "samples": self.samples,
            "seed": self.seed,
            "variance_value": self.variance_value,
            "zero_rate": self.zero_rate,
            "rows": [
                {
                    "inv_p": r.inv_p,
                    "cutoff": r.cutoff,
                    "rate": r.rate,
                    "ci_low": r.ci_low,
                    "ci_high": r.ci_high,
                    "hits": r.hits,
                }
                for r in self.rows
            ],
        }


def anticoncentration_experiment(
    spec: PolynomialSpec,
    k: int | None = None,
    ell: int | None = None,
    samples: int = 0,
    exhaustive: bool = False,
    thresholds=DEFAULT_THRESHOLDS,
    evaluator: str = "fast",
    rng: RandomSource | int | None = None,
    z: float = 1.96,
) -> TailReport:
    if (k is None) == (ell is None):
        raise ValueError("give exactly one of k (integer mode) or ell (roots mode)")
    if not exhaustive and samples < 1:
        raise ValueError("Monte Carlo mode needs samples >= 1")
    evaluate = {
        "fast": evaluate_values_fast,
        "enumeration": evaluate_values_by_enumeration,
    }[evaluator]
    thresholds = [float(t) for t in thresholds]
    if any(t < 0 for t in thresholds):
        raise ValueError("thresholds are 1/p values and must be >= 0")

    if ell is not None:
        mode, param, var = "roots", ell, spec.num_monomials
    else:
        mode, param, var = "integer", k, k**spec.degree * spec.num_monomials

    if exhaustive:
        weighted = _exhaustive_points(spec, mode, param, evaluate)
        zero_rate = float(sum(w for q2, w in weighted if q2 == 0))
        rows = []
        for t in thresholds:
            cutoff = var * t
            rate = float(sum(w for q2, w in weighted if q2 < cutoff))
            rows.append(TailRow(t, float(cutoff), rate, rate, rate))
        return TailReport(
            spec.describe(), mode, param, evaluator, True, len(weighted), None, var, zero_rate, rows
        )

    source = as_random_source(rng if rng is not None else 0)
    values = [_draw_squared_value(spec, mode, param, evaluate, source) for _ in range(samples)]
    zero_hits = sum(1 for q2 in values if q2 == 0)
    rows = []
    for t in thresholds:
        cutoff = var * t
        hits = sum(1 for q2 in values if q2 < cutoff)
        low, high = wilson_interval(hits, samples, z)
        rows.append(TailRow(t, float(cutoff), hits / samples, low, high, hits))
    return TailReport(
        spec.describe(), mode, param, evaluator, False, samples, source.seed, var,
        zero_hits / samples, rows,
    )


def _exhaustive_points(spec: PolynomialSpec, mode: str, param: int, evaluate):
    """(squared value, probability weight) for every point of the input space."""
    n = spec.n_vars
    size = param**n if mode == "roots" else (param + 1) ** n
    if size > EXHAUSTIVE_GUARD:
        raise SizeGuardError(f"exhaustive space of {size} points exceeds guard {EXHAUSTIVE_GUARD}")
    out = []
    if mode == "roots":
        weight = Fraction(1, size)
        for digits in product(range(param), repeat=n):
            q = evaluate(spec, Assignment.roots(param, digits).numeric_values())
            out.append((q * q if param == 2 else abs(q) ** 2, weight))
        return out
    denom = 2 ** (param * n)
    for vals, orbit in squashed_points(n, param):
        q = evaluate(spec, vals)
        out.append((q * q, Fraction(orbit, denom)))
    return out


def _draw_squared_value(spec: PolynomialSpec, mode: str, param: int, evaluate, rng: RandomSource):
    if mode == "roots":
        digits = rng.integers(0, param, size=spec.n_vars)
        q = evaluate(spec, Assignment.roots(param, digits).numeric_values())
        return q * q if param == 2 else abs(q) ** 2
    vals = [sample_binomial_value(param, rng) for _ in range(spec.n_vars)]
    q = evaluate(spec, vals)
    return q * q
