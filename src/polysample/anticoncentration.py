"""Empirical tail-mass experiments: evidence tables, never pass/fail gates.

For a family polynomial and an input distribution (uniform root-of-unity
points or blockwise-binomial integers), estimate Pr[|Q|^2 < Var / p] across
a ladder of 1/p thresholds. Exhaustive mode enumerates the whole input
space and reports exact rates; Monte Carlo mode reports Wilson confidence
intervals. Points are evaluated a block at a time (``evaluate.block_points``)
and hits counted with array comparisons. Monte Carlo draws in the order of a
point-at-a-time loop (a block is one ``(count, n_vars)`` draw of exponents or
one draw of ``count * n_vars`` binomial values, the same stream as per-row
draws), so a seed gives the same sample either way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import sqrt

import numpy as np

from .errors import check_size
from .evaluate import block_points, block_sizes, squared_values
from .families import PolynomialSpec
from .rng import RandomSource, as_random_source
from .tables import FLOAT_EXACT, binomial_sampling_method, grid_blocks, sample_binomial_values, squashed_points

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
        doc = asdict(self)
        if self.mode == "integer" and not self.exhaustive:
            doc["binomial_sampling_method"] = binomial_sampling_method(self.mode_param)
            doc["rows"] = doc.pop("rows")  # rows stay last
        return doc


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
    thresholds = [float(t) for t in thresholds]
    if any(t < 0 for t in thresholds):
        raise ValueError("thresholds are 1/p values and must be >= 0")

    if ell is not None:
        mode, param, var = "roots", ell, spec.num_monomials
    else:
        mode, param, var = "integer", k, k**spec.degree * spec.num_monomials

    cutoffs = [var * t for t in thresholds]

    if exhaustive:
        n = spec.n_vars
        size = param**n if mode == "roots" else (param + 1) ** n
        check_size("exhaustive point space", size, EXHAUSTIVE_GUARD)
        # Point weights are 1 / ell^n (roots) or orbit / 2^{kn} (integer).
        denom = size if mode == "roots" else 2 ** (param * n)
        zero, *hits = _tally(_exhaustive_points(spec, mode, param, evaluator), cutoffs)
        rates = [h / denom for h in hits]  # int / int: correctly rounded
        rows = [TailRow(t, float(c), r, r, r) for t, c, r in zip(thresholds, cutoffs, rates)]
        return TailReport(
            spec.describe(), mode, param, evaluator, True, size, None, var,
            zero / denom, rows,
        )

    source = as_random_source(rng if rng is not None else 0)
    draws = (
        (_draw_squared_value(spec, mode, param, evaluator, source, count), None)
        for count in block_sizes(spec, samples)
    )
    zero, *hits = _tally(draws, cutoffs)
    rows = []
    for t, cutoff, h in zip(thresholds, cutoffs, hits):
        low, high = wilson_interval(h, samples, z)
        rows.append(TailRow(t, float(cutoff), h / samples, low, high, h))
    return TailReport(
        spec.describe(), mode, param, evaluator, False, samples, source.seed, var,
        zero / samples, rows,
    )


def _tally(blocks, cutoffs) -> list[int]:
    """Total weight of the points with |Q|^2 = 0, then of those below each cutoff.

    ``blocks`` yields (squared values, integer weights); weights None count
    each point once.
    """
    totals = [0] * (1 + len(cutoffs))
    for q2, weights in blocks:
        # Squares from 2^53 up are compared as Python ints: an int64 to
        # float64 conversion could round them across a float cutoff.
        if q2.dtype.kind in "iu" and q2.max(initial=0) >= FLOAT_EXACT:
            q2 = q2.astype(object)
        for i, mask in enumerate([q2 == 0, *(q2 < c for c in cutoffs)]):
            totals[i] += int(np.count_nonzero(mask) if weights is None else weights[mask].sum())
    return totals


def _exhaustive_points(spec: PolynomialSpec, mode: str, param: int, evaluator: str):
    """(squared values, weights) blocks over the whole input space.

    Roots points all weigh 1 (weights None); integer points weigh their orbit.
    """
    rows = block_points(spec)
    if mode == "roots":
        for digits in grid_blocks(spec.n_vars, param, rows):
            yield squared_values(spec, digits, ell=param, evaluator=evaluator), None
        return
    for values, orbits in squashed_points(spec.n_vars, param, rows):
        yield squared_values(spec, values, evaluator=evaluator), orbits


def _draw_squared_value(spec: PolynomialSpec, mode: str, param: int, evaluator: str,
                        rng: RandomSource, count: int) -> np.ndarray:
    """|Q|^2 at ``count`` fresh points, drawn in point-at-a-time order."""
    if mode == "roots":
        points = rng.integers(0, param, size=(count, spec.n_vars))
        return squared_values(spec, points, ell=param, evaluator=evaluator)
    points = np.asarray(sample_binomial_values(param, count * spec.n_vars, rng)).reshape(count, spec.n_vars)
    return squared_values(spec, points, evaluator=evaluator)
