"""Exact target distributions and the table machinery around them.

Every distribution here is materialized as a dense ``ProbabilityTable`` over
a mixed-radix outcome space (position 0 most significant). Tables are exact,
integer numerators over one shared denominator, whenever the underlying values
are integers: root tables at ell = 2, every squashed table, and every fold
table. Root tables for ell >= 3 use double precision, normalized within 1e-9.
"""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, lcm
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    FOLD_TABLE_GUARD,
    NumericalCheckError,
    ParityError,
    ShapeMismatchError,
    check_bytes,
    check_digits,
    check_size,
)
from .evaluate import (
    ENUMERATION_GUARD,
    INT64_LIMIT,
    block_points,
    block_sizes,
    evaluate_values_batch,
    evaluate_values_fast,
)
from .families import Assignment, PolynomialSpec, monomial_of_index
from .rng import RandomSource

RATIONAL = "rational"
DOUBLE = "double"

DOUBLE_NORMALIZATION_TOL = 1e-9
# Largest k drawn exactly: its memoized cdf row of k + 1 integers of up to
# k + 1 bits takes about k^2 / 8 bytes (32 MiB here) and 0.1 s to build.
EXACT_BINOMIAL_GUARD = 1 << 14
# Integers below 2^53 convert to float64 exactly.
FLOAT_EXACT = 1 << 53
# Entries of a root table built at a time, and entries rendered at a time
# when a table is written out. This bounds the block arrays and the Python
# numbers and strings alive at once whatever the table's size.
WRITE_CHUNK = 1 << 14
# Characters of the widest int64 "p/q" entry. A written chunk holds at most
# WRITE_CHUNK entries of this width; wider exact entries come fewer per chunk.
INT64_TEXT = 2 * len(str(INT64_LIMIT)) + 1


def mixed_radix_index(digits: Sequence[int], radix: int) -> int:
    index = 0
    for d in digits:
        index = index * radix + d
    return index


def mixed_radix_digits(index: int, radix: int, length: int) -> tuple[int, ...]:
    digits = [0] * length
    for pos in range(length - 1, -1, -1):
        index, digits[pos] = divmod(index, radix)
    return tuple(digits)


def exact_weights(numerators, denominator: int) -> np.ndarray:
    """int64 numerators when the denominator, which bounds every valid entry, is below 2^63; else Python ints."""
    return np.asarray(numerators, dtype=np.int64 if denominator < INT64_LIMIT else object)


def exact_weight_bytes(entries: int, denominator: int) -> int:
    """Estimated bytes of ``exact_weights`` numerators over ``denominator``.

    8 per int64 entry. At object width each numerator is a Python int of up
    to bits(denominator) bits plus a 28-byte header.
    """
    if denominator < INT64_LIMIT:
        return 8 * entries
    return entries * (denominator.bit_length() // 8 + 28)


@dataclass(eq=False)
class ProbabilityTable:
    """Dense distribution over radix**length outcomes, flat index position 0 most significant.

    Exact tables hold integer numerators (``exact_weights``) over one shared
    ``denominator`` and index to Fractions; double tables hold float64
    probabilities over denominator 1.
    """

    radix: int
    length: int
    weights: np.ndarray
    denominator: int = 1

    def __post_init__(self):
        weights = np.asarray(self.weights)
        if weights.dtype.kind == "f":
            if self.denominator != 1:
                raise ValueError("double tables hold probabilities, with denominator 1")
            self.weights = weights.astype(np.float64, copy=False)
        else:
            self.weights = exact_weights(weights, self.denominator)
        if self.weights.shape != (self.size,):
            raise ShapeMismatchError(
                f"table has {len(self.weights)} entries; radix**length is {self.size}"
            )
        self.validate_normalization()

    @property
    def arithmetic(self) -> str:
        return DOUBLE if self.weights.dtype == np.float64 else RATIONAL

    @property
    def size(self) -> int:
        return self.radix**self.length

    def __getitem__(self, flat_index: int):
        w = self.weights[flat_index]
        return w if self.arithmetic == DOUBLE else Fraction(int(w), self.denominator)

    def as_floats(self) -> np.ndarray:
        if self.arithmetic == DOUBLE:
            return self.weights
        if self.denominator < FLOAT_EXACT:
            # Both operands are exact doubles, so each quotient is correctly rounded.
            return self.weights / self.denominator
        return np.array([w / self.denominator for w in self.weights.tolist()], dtype=np.float64)

    @cached_property
    def cdf(self) -> np.ndarray:
        return np.cumsum(self.as_floats())

    def validate_normalization(self):
        """Raise unless the table sums to 1; return the numerator sum (exact) or |sum - 1| (double)."""
        w = self.weights
        if self.arithmetic == DOUBLE:
            # A nan passes both comparisons below; JSON has no literal for it either.
            if not np.isfinite(w).all():
                raise NumericalCheckError("non-finite probability in double table")
            if float(w.min(initial=0.0)) < -1e-15:
                raise NumericalCheckError("negative probability in double table")
            drift = abs(float(w.sum()) - 1.0)
            if drift > DOUBLE_NORMALIZATION_TOL:
                raise NumericalCheckError(f"double table normalization off by {drift:.3e}")
            return drift
        if w.min(initial=0) < 0:
            raise NumericalCheckError("negative probability in rational table")
        # The int64 sum cannot wrap when size * max entry stays below 2^63.
        fits = self.size * int(w.max(initial=0)) < INT64_LIMIT
        total = int(w.sum()) if fits else sum(w.tolist())
        if total != self.denominator:
            raise NumericalCheckError(f"rational table sums to {Fraction(total, self.denominator)}, not 1")
        return total

    # -- serialization ------------------------------------------------------

    def chunk_rows(self) -> int:
        """Entries per ``entry_chunks`` list: ``WRITE_CHUNK``, fewer for entries wider than ``INT64_TEXT``.

        A reduced entry p/q has p <= q <= denominator. A double's repr takes
        at most 24 characters, and a double table's denominator is 1.
        """
        width = 2 * len(str(self.denominator)) + 1
        return max(1, min(WRITE_CHUNK, WRITE_CHUNK * INT64_TEXT // width))

    def entry_chunks(self) -> Iterator[list[str]]:
        """JSON/CSV entry text in flat order, ``chunk_rows()`` entries per list.

        Exact tables give reduced "p/q", double tables ``float.__repr__``.
        Each distinct value of a chunk is rendered once. Doubles are told
        apart by bit pattern: -0.0 == 0.0, but their reprs differ.
        """
        rows = self.chunk_rows()
        for start in range(0, self.size, rows):
            w = self.weights[start:start + rows]
            if self.arithmetic == DOUBLE:
                bits, inverse = np.unique(w.view(np.int64), return_inverse=True)
                text = list(map(float.__repr__, bits.view(np.float64).tolist()))
            else:
                values, inverse = np.unique(w, return_inverse=True)
                common = np.gcd(values, self.denominator)
                p, q = (values // common).tolist(), (self.denominator // common).tolist()
                text = list(map("{}/{}".format, p, q))
            yield np.array(text, dtype=object)[inverse].tolist()

    def to_json_dict(self) -> dict:
        return {
            "radix": self.radix,
            "length": self.length,
            "arithmetic": self.arithmetic,
            "probs": self.weights.tolist() if self.arithmetic == DOUBLE
            else [entry for chunk in self.entry_chunks() for entry in chunk],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ProbabilityTable":
        arithmetic, radix, length = doc["arithmetic"], int(doc["radix"]), int(doc["length"])
        if arithmetic == DOUBLE:
            return ProbabilityTable(radix, length, np.asarray(doc["probs"], dtype=np.float64))
        if arithmetic != RATIONAL:
            raise ValueError(f"unknown arithmetic {arithmetic!r}")
        entries = [Fraction(e) for e in doc["probs"]]
        if any(not 0 <= e <= 1 for e in entries):
            raise NumericalCheckError("rational table has an entry outside [0, 1]")
        denominator = lcm(*(e.denominator for e in entries))
        numerators = [e.numerator * (denominator // e.denominator) for e in entries]
        return ProbabilityTable(radix, length, exact_weights(numerators, denominator), denominator)

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream)
        writer.writerow(["index", "outcome", "probability"])
        start = 0
        for digits, entries in zip(grid_blocks(self.length, self.radix, self.chunk_rows()), self.entry_chunks()):
            outcomes = map(",".join, digits.astype(str).tolist())
            writer.writerows(zip(range(start, start + len(entries)), outcomes, entries))
            start += len(entries)


# ---------------------------------------------------------------------------
# exact target tables


def exact_table_roots(spec: PolynomialSpec, ell: int) -> ProbabilityTable:
    """Distribution over [0, ell-1]^n with mass |Q(root-of-unity point)|^2 / (ell^n * m).

    Built one ``grid_blocks`` block at a time: each point adds omega^s, s its
    exponent sum, mask by mask in rank order from a lookup of exact +-1
    integers at ell = 2 and complex doubles otherwise.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2 (ell = 1 is degenerate)")
    n, m = spec.n_vars, spec.num_monomials
    size = ell**n
    check_size("table", size)
    check_size("monomial list", m, ENUMERATION_GUARD)
    columns = [np.flatnonzero(monomial_of_index(spec, z)) for z in range(m)]
    powers = np.array([1, -1]) if ell == 2 else np.exp(2j * np.pi * np.arange(ell) / ell)
    digit = np.min_scalar_type(max(max(map(len, columns)) * (ell - 1), ell))  # every exponent sum and ell
    weights = np.empty(size, dtype=np.int64 if ell == 2 else np.float64)
    start = 0
    for digits in grid_blocks(n, ell, WRITE_CHUNK):
        digits = digits.astype(digit)
        q = np.zeros(len(digits), dtype=powers.dtype)
        for cols in columns:
            q += powers.take(digits[:, cols].sum(axis=1, dtype=digit) % ell)
        weights[start:start + len(q)] = q * q if ell == 2 else (q.real**2 + q.imag**2) / (size * m)
        start += len(q)
    return ProbabilityTable(ell, n, weights, size * m if ell == 2 else 1)


def orbit_weight(y, k: int) -> int:
    """Number of +-1 preimages of integer vector y under blockwise k-sums."""
    values = y.values if isinstance(y, Assignment) else tuple(int(v) for v in y)
    weight = 1
    for v in values:
        if abs(v) > k:
            raise ValueError(f"value {v} outside [-{k}, {k}]")
        if (v - k) % 2 != 0:
            raise ParityError(f"value {v} has wrong parity for k = {k}")
        weight *= comb(k, (k + v) // 2)
    return weight


def grid_blocks(n: int, radix: int, rows: int) -> Iterator[np.ndarray]:
    """Digit rows of every point of [0, radix)^n in flat-index order.

    Yields int64 arrays of at most ``rows`` rows (callers that evaluate them
    pass ``evaluate.block_points(spec)``), sliced from a tiled grid of the
    last ``low`` digits beside one leading row per ``radix**low`` points.
    """
    size = radix**n
    low = next(k for k in range(n, -1, -1) if radix**k <= rows)
    period = radix**low
    tail = np.indices((radix,) * low).reshape(low, period).T
    tail = np.tile(tail, ((min(rows, size) - 1) // period + 2, 1))
    power = radix ** np.arange(n - low - 1, -1, -1, dtype=np.int64)
    for start in range(0, size, rows):
        first, skip = divmod(start, period)
        end = skip + min(rows, size - start)
        head = np.arange(first, first + (end - 1) // period + 1)[:, None] // power % radix
        yield np.hstack([np.repeat(head, period, axis=0)[skip:end], tail[skip:end]])


def squashed_points(n: int, k: int, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(values, orbit weights) blocks of every class point of [-k, k]^n, in flat-index order.

    Blocks hold at most ``rows`` points, as in ``grid_blocks``. Class c of a
    coordinate is the value 2c - k with C(k, c) +-1 preimages. Values are
    int64 rows; orbit weights are int64 when their total 2^{kn} fits, else
    Python ints in an object array.
    """
    weights = np.array(list(_binomial_row(k)), dtype=np.int64 if k * n < 63 else object)
    for classes in grid_blocks(n, k + 1, rows):
        yield 2 * classes - k, weights[classes].prod(axis=1)


def exact_table_squashed(spec: PolynomialSpec, k: int, as_text: bool = False) -> ProbabilityTable:
    """Class-indexed distribution over [-k, k]^n with mass Q(y)^2 * orbit(y) / (2^{kn} * Var).

    Classes count +1 entries per block (0..k); class c encodes the value
    2c - k, so every representable point satisfies the parity constraint
    and no dead parity holes are stored. ``as_text`` is for a table that
    will be written out: its denominator, which bounds every reduced entry,
    must then also convert to decimal text.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n, m, d = spec.n_vars, spec.num_monomials, spec.degree
    size = (k + 1) ** n
    check_size("table", size)
    denominator = 2 ** (k * n) * k**d * m
    check_bytes("table numerators", exact_weight_bytes(size, denominator))
    if as_text:
        check_digits("table denominator", denominator)
    numerators = []
    for values, orbits in squashed_points(n, k, block_points(spec)):
        for vals, orbit in zip(values.tolist(), orbits.tolist()):
            q = evaluate_values_fast(spec, vals)
            numerators.append(q * q * orbit)
    # The constructor checks the identity sum(Q^2 * orbit) = 2^{kn} * Var.
    return ProbabilityTable(k + 1, n, exact_weights(numerators, denominator), denominator)


def exact_table_fold(truth_table: Sequence[int]) -> ProbabilityTable:
    """Squared, normalized Walsh spectrum of a +-1 truth table."""
    size = len(truth_table)
    n = size.bit_length() - 1
    if size != 1 << n or n < 1:
        raise ValueError(f"truth table length {size} is not a power of two")
    check_size("fold table", size, FOLD_TABLE_GUARD)
    values = np.asarray(truth_table, dtype=np.int64)
    if not np.all(np.abs(values) == 1):
        raise ValueError("truth table entries must be +-1")
    spectrum = _walsh_transform(values)
    # Parseval: the squared coefficients of a +-1 table sum to 4^n; exact in
    # int64, since every partial sum is at most 2^n * 4^n <= 2^60.
    denom = size * size
    total = int(np.square(spectrum).sum())
    if total != denom:
        raise NumericalCheckError(
            f"Parseval identity failed: sum of squared coefficients {total} != 4^n = {denom}"
        )
    return ProbabilityTable(2, n, np.square(spectrum), denom)


def _walsh_transform(values: np.ndarray) -> np.ndarray:
    # Butterfly on blocks of 2h: (a, b) -> (a + b, a - b), one reshape per level.
    out = values
    h = 1
    while h < len(out):
        pairs = out.reshape(-1, 2, h)
        a, b = pairs[:, 0], pairs[:, 1]
        out = np.stack((a + b, a - b), axis=1).reshape(-1)
        h *= 2
    return out


# ---------------------------------------------------------------------------
# variance identities


@dataclass(frozen=True)
class VarianceReport:
    """Variance of Q over blockwise-binomial inputs, computed two ways."""

    closed_form: int
    sum_form: Fraction
    empirical: float | None = None
    samples: int = 0

    @property
    def forms_agree(self) -> bool:
        return self.sum_form == self.closed_form


def variance(spec: PolynomialSpec, k: int, samples: int = 0, rng: RandomSource | None = None) -> VarianceReport:
    if k < 1:
        raise ValueError("k must be >= 1")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    m, d = spec.num_monomials, spec.degree
    closed = k**d * m
    coordinate_second_moment = sum(term * (k - 2 * i) ** 2 for i, term in enumerate(_binomial_row(k)))
    sum_form = Fraction(m * coordinate_second_moment**d, 2 ** (k * d))
    empirical = None
    if samples > 0:
        if rng is None:
            raise ValueError("empirical variance needs an rng")
        _warn_if_approximate(k)
        acc, n = 0.0, spec.n_vars
        for count in block_sizes(spec, samples):
            points = np.asarray(sample_binomial_values(k, count * n, rng)).reshape(count, n)
            for q in evaluate_values_batch(spec, points).tolist():
                acc += float(q) * float(q)
        empirical = acc / samples
    return VarianceReport(closed, sum_form, empirical, samples)


# ---------------------------------------------------------------------------
# sampling utilities


def binomial_sampling_method(k: int) -> str:
    return "exact-inverse-cdf" if k <= EXACT_BINOMIAL_GUARD else "rounded-normal"


def sample_binomial_values(k: int, count: int, rng: RandomSource) -> list[int]:
    """``count`` draws of a sum of k independent uniform +-1 values, in one rng call.

    Up to ``EXACT_BINOMIAL_GUARD`` each draw inverts the exact cdf at a k-bit
    uniform integer; beyond it the distribution is approximated by a normal
    of matching mean and variance, rounded to the correct parity and clipped
    to [-k, k]. Either way the stream is that of ``count`` single draws.
    """
    if k <= EXACT_BINOMIAL_GUARD:
        cumulative = _binomial_cdf_table(k)
        return [2 * bisect_right(cumulative, u) - k for u in rng.randbits(k, count)]
    values = (2 * round((u + k) / 2) - k for u in rng.normal(0.0, k**0.5, size=count).tolist())
    return [max(-k, min(k, v)) for v in values]


def sample_binomial_value(k: int, rng: RandomSource) -> int:
    """One draw of a sum of k independent uniform +-1 values."""
    return sample_binomial_values(k, 1, rng)[0]


def sample_binomial_assignment(spec: PolynomialSpec, k: int, rng: RandomSource) -> Assignment:
    _warn_if_approximate(k)
    return Assignment.integers(k, sample_binomial_values(k, spec.n_vars, rng))


def _warn_if_approximate(k: int) -> None:
    if k > EXACT_BINOMIAL_GUARD:
        warnings.warn(
            f"k = {k} exceeds the exact-sampling guard; using rounded-normal approximation",
            RuntimeWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=1)
def _binomial_cdf_table(k: int) -> tuple[int, ...]:
    # cumulative[c] = sum_{i <= c} C(k, i); a k-bit uniform integer U maps to
    # the smallest c with U < cumulative[c]. Callers draw at one k, so one
    # row is kept.
    return tuple(accumulate(_binomial_row(k)))


@lru_cache(maxsize=1)
def binomial_coefficients(k: int) -> tuple[int, ...]:
    """C(k, 0), ..., C(k, k), memoized for the one k a reduction draws at."""
    return tuple(_binomial_row(k))


def _binomial_row(k: int) -> Iterator[int]:
    """C(k, 0), ..., C(k, k) by the running term C(k, c+1) = C(k, c) * (k - c) / (c + 1)."""
    term = 1
    for c in range(k + 1):
        yield term
        term = term * (k - c) // (c + 1)


def sample_from_table(table: ProbabilityTable, rng: RandomSource) -> int:
    """Draw a flat outcome index by inverse CDF (first index whose cdf exceeds u)."""
    cdf = table.cdf
    # Float drift can end the CDF below 1; a draw past its end goes to the
    # last outcome with mass instead of one past the table.
    u = min(rng.random(), np.nextafter(cdf[-1], 0.0))
    return int(np.searchsorted(cdf, u, side="right"))


def tv_distance(a: ProbabilityTable, b: ProbabilityTable) -> float:
    if (a.radix, a.length) != (b.radix, b.length):
        raise ShapeMismatchError(
            f"shape ({a.radix}, {a.length}) vs ({b.radix}, {b.length})"
        )
    if a.arithmetic == RATIONAL and b.arithmetic == RATIONAL:
        # Numerators over the lcm L; their absolute differences sum to at most 2L.
        common = lcm(a.denominator, b.denominator)
        wa, wb = (exact_weights(t.weights, 2 * common) * (common // t.denominator) for t in (a, b))
        return int(np.abs(wa - wb).sum()) / (2 * common)
    return float(np.abs(a.as_floats() - b.as_floats()).sum() / 2.0)
