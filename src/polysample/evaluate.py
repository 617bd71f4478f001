"""Two independent evaluation routes for every family.

``evaluate_by_enumeration`` walks the monomials through the ranking map and
is the ground-truth oracle. ``evaluate_fast`` uses inclusion-exclusion for
the permanent and a fix-the-start-vertex subset DP for the Hamiltonian-cycle
polynomial; lifted families reduce to the base family through block sums.
Both routes use exact integer arithmetic whenever the input values are
integers (integer mode, or ell = 2 root mode).

``evaluate_values_batch`` runs the fast route over a whole array of integer
points at once: Gray-code Ryser and the Held-Karp DP on int64 ``(B, n, n)``
blocks, used only when an a-priori bound proves that no intermediate can
overflow; otherwise each point goes to the scalar Python-int kernel, which
stays the oracle. ``squared_values`` puts |Q|^2 at integer, sign and
complex root-of-unity points behind one call.
"""

from __future__ import annotations

import logging
from math import factorial, isqrt
from typing import Sequence

import numpy as np

from .errors import SizeGuardError, check_size
from .families import (
    HAMILTONIAN_CYCLE,
    LIFTED,
    PERMANENT,
    Assignment,
    PolynomialSpec,
    monomial_of_index,
)

ENUMERATION_GUARD = 1 << 24
FAST_EVAL_MAX_N = 20

# Working memory of one int64 kernel block. Blocks hold as many points as fit
# (at least one), so memory stays bounded whatever the batch size.
BLOCK_BYTES = 1 << 18
INT64_LIMIT = 1 << 63
_SQUARE_LIMIT = isqrt(INT64_LIMIT - 1)  # a larger |q| may not square in int64

_log = logging.getLogger(__name__)


def evaluate_by_enumeration(spec: PolynomialSpec, x: Assignment):
    return evaluate_values_by_enumeration(spec, _checked_values(spec, x))


def evaluate_fast(spec: PolynomialSpec, x: Assignment):
    return evaluate_values_fast(spec, _checked_values(spec, x))


def evaluate_values_by_enumeration(spec: PolynomialSpec, values: Sequence):
    """Sum over all monomials of the product of the selected values."""
    check_size("monomial enumeration", spec.num_monomials, ENUMERATION_GUARD)
    total = 0
    for z in range(spec.num_monomials):
        mask = monomial_of_index(spec, z)
        term = 1
        for v, bit in zip(values, mask):
            if bit:
                term *= v
        total += term
    return total


def evaluate_values_fast(spec: PolynomialSpec, values: Sequence):
    if spec.family == LIFTED:
        k = spec.lift_k
        sums = [sum(values[i * k : (i + 1) * k]) for i in range(spec.base.n_vars)]
        return evaluate_values_fast(spec.base, sums)
    n = spec.matrix_n
    if n > FAST_EVAL_MAX_N:
        raise SizeGuardError(f"fast evaluation capped at n = {FAST_EVAL_MAX_N}, got {n}")
    rows = [list(values[i * n : (i + 1) * n]) for i in range(n)]
    if spec.family == PERMANENT:
        return _permanent_ryser(rows, n)
    if spec.family == HAMILTONIAN_CYCLE:
        return _hamiltonian_cycle_dp(rows, n)
    raise ValueError(f"no fast evaluator for family {spec.family!r}")


def evaluate_values_batch(spec: PolynomialSpec, values) -> np.ndarray:
    """Q at every row of an integer array of shape (B, n_vars).

    Returns int64 values when the family's overflow bound holds for the
    largest |value|, and Python ints in an object array from the scalar
    kernel otherwise.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != spec.n_vars:
        raise ValueError(f"values must have shape (B, {spec.n_vars}), got {values.shape}")
    if values.dtype.kind not in "iuO":
        raise TypeError(f"values must be integers, got dtype {values.dtype}")
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64)
    if spec.family == LIFTED:
        k, blocks = spec.lift_k, values.reshape(len(values), spec.base.n_vars, spec.lift_k)
        if values.dtype != object and k * _max_abs(values) >= INT64_LIMIT:
            blocks = blocks.astype(object)
        return evaluate_values_batch(spec.base, blocks.sum(axis=2))
    n = spec.matrix_n
    if n > FAST_EVAL_MAX_N:
        raise SizeGuardError(f"fast evaluation capped at n = {FAST_EVAL_MAX_N}, got {n}")
    if spec.family not in _BATCH_KERNELS:
        raise ValueError(f"no fast evaluator for family {spec.family!r}")
    kernel, bound_of = _BATCH_KERNELS[spec.family]
    bound = bound_of(n, _max_abs(values))
    if bound >= INT64_LIMIT:
        _log.debug("%s n=%d: bound %d >= 2^63, Python-int kernel on %d points",
                   spec.family, n, bound, len(values))
        return np.array([evaluate_values_fast(spec, row) for row in values.tolist()], dtype=object)
    block = block_points(spec)
    _log.debug("%s n=%d: bound %d < 2^63, int64 kernel on %d points in blocks of %d",
               spec.family, n, bound, len(values), block)
    out = np.empty(len(values), dtype=np.int64)
    for start in range(0, len(values), block):
        a = values[start : start + block].astype(np.int64).reshape(-1, n, n)
        out[start : start + len(a)] = kernel(a, n)
    return out


def squared_values(spec: PolynomialSpec, points, ell: int | None = None, evaluator: str = "fast") -> np.ndarray:
    """|Q|^2 at every row of ``points``.

    Rows are integer values, or root-of-unity exponents in [0, ell) when
    ``ell`` is given. Integer and ell = 2 points under the fast evaluator go
    through ``evaluate_values_batch`` and come back exact (int64, or Python
    ints in an object array when a square could overflow). Complex points
    (ell >= 3) and the enumeration evaluator run point by point on the
    scalar kernels; complex squares are float64.
    """
    if evaluator not in ("fast", "enumeration"):
        raise ValueError(f"unknown evaluator {evaluator!r}")
    if evaluator == "fast" and ell in (None, 2):
        points = np.asarray(points)
        q = evaluate_values_batch(spec, points if ell is None else 1 - 2 * points)
        if q.dtype == object or _max_abs(q) > _SQUARE_LIMIT:
            q = q.astype(object)
        return q * q
    evaluate = evaluate_values_fast if evaluator == "fast" else evaluate_values_by_enumeration
    rows = np.asarray(points).tolist()
    if ell is None:
        return np.array([evaluate(spec, row) ** 2 for row in rows], dtype=object)
    squares = []
    for row in rows:
        q = evaluate(spec, Assignment.roots(ell, row).numeric_values())
        squares.append(q * q if ell == 2 else abs(q) ** 2)
    return np.array(squares, dtype=object if ell == 2 else np.float64)


def block_points(spec: PolynomialSpec) -> int:
    """Points per int64 kernel block: the byte budget over one point's working set.

    Callers that generate points generate them in blocks of this size, so
    their buffers stay within the same budget.
    """
    return max(1, BLOCK_BYTES // point_bytes(spec))


def block_sizes(spec: PolynomialSpec, total: int) -> list[int]:
    """Sizes of the consecutive blocks that cover ``total`` points."""
    block = block_points(spec)
    return [min(block, total - start) for start in range(0, total, block)]


def point_bytes(spec: PolynomialSpec) -> int:
    """Bytes of int64 working memory one point takes in its batch kernel."""
    if spec.family == LIFTED:
        # the lifted row, then the base family's working set on its block sums
        return 8 * spec.n_vars + point_bytes(spec.base)
    n = spec.matrix_n
    if spec.family == HAMILTONIAN_CYCLE:
        # matrix, DP table over (subset, end vertex), one extension row, the
        # closing products and the result
        return 8 * (n * n + (1 << (n - 1)) * (n - 1) + 2 * (n - 1) + 1)
    # matrix, its column-major copy, row sums, their product and the running total
    return 8 * (2 * n * n + n + 2)


def _max_abs(values: np.ndarray) -> int:
    if values.size == 0:
        return 0
    return max(abs(int(values.max())), abs(int(values.min())))


def _ryser_bound(n: int, m: int) -> int:
    # 2^n Gray-code terms, each a product of n row sums of at most n values.
    return 2**n * (n * m) ** n


def _held_karp_bound(n: int, m: int) -> int:
    # Every partial DP sum is a sum of at most (n-1)! path products of at most n values.
    return factorial(n - 1) * m**n


def _permanent_ryser_int64(a: np.ndarray, n: int) -> np.ndarray:
    # _permanent_ryser over a (B, n, n) block; row_sums[b] is point b's row sums.
    if n == 1:
        return a[:, 0, 0].copy()
    cols = np.ascontiguousarray(a.transpose(2, 0, 1))
    row_sums = np.zeros(a.shape[:2], dtype=np.int64)
    total = np.zeros(len(a), dtype=np.int64)
    prev_code = 0
    for s in range(1, 1 << n):
        code = s ^ (s >> 1)
        flipped = (code ^ prev_code).bit_length() - 1
        if code & (1 << flipped):
            row_sums += cols[flipped]
        else:
            row_sums -= cols[flipped]
        prev_code = code
        if (code.bit_count() ^ n) & 1 == 0:
            total += row_sums.prod(axis=1)
        else:
            total -= row_sums.prod(axis=1)
    return total


def _hamiltonian_cycle_int64(a: np.ndarray, n: int) -> np.ndarray:
    # _hamiltonian_cycle_dp over a (B, n, n) block, subset-major so that
    # dp[subset] is one contiguous (B, n-1) slab; entries of vertices outside
    # the subset stay 0, so a matrix product sums over the visited ends only.
    if n == 1:
        return a[:, 0, 0].copy()
    size = 1 << (n - 1)
    inner = a[:, 1:, 1:]
    dp = np.zeros((size, len(a), n - 1), dtype=np.int64)
    for v in range(n - 1):
        dp[1 << v, :, v] = a[:, 0, v + 1]
    for subset in range(1, size - 1):
        extended = np.matmul(dp[subset][:, None, :], inner)[:, 0, :]
        for w in range(n - 1):
            if not subset & (1 << w):
                dp[subset | (1 << w), :, w] += extended[:, w]
    return (dp[size - 1] * a[:, 1:, 0]).sum(axis=1)


_BATCH_KERNELS = {
    PERMANENT: (_permanent_ryser_int64, _ryser_bound),
    HAMILTONIAN_CYCLE: (_hamiltonian_cycle_int64, _held_karp_bound),
}


def _permanent_ryser(a: list, n: int):
    # Inclusion-exclusion over column subsets, Gray-code order so each step
    # updates the row sums by a single column.
    if n == 1:
        return a[0][0]
    row_sums = [0] * n
    total = 0
    prev_code = 0
    for s in range(1, 1 << n):
        code = s ^ (s >> 1)
        flipped = (code ^ prev_code).bit_length() - 1
        if code & (1 << flipped):
            for i in range(n):
                row_sums[i] += a[i][flipped]
        else:
            for i in range(n):
                row_sums[i] -= a[i][flipped]
        prev_code = code
        prod = 1
        for v in row_sums:
            prod *= v
        total += prod if (code.bit_count() ^ n) & 1 == 0 else -prod
    return total


def _hamiltonian_cycle_dp(a: list, n: int):
    # Sum over directed n-cycles of prod_i a[i][sigma(i)], anchoring the
    # walk at vertex 0. dp[S][v] sums path products 0 -> ... -> v+1 that
    # visit exactly the vertex set S (bit w <-> vertex w+1).
    if n == 1:
        return a[0][0]
    size = 1 << (n - 1)
    dp = [[0] * (n - 1) for _ in range(size)]
    for v in range(n - 1):
        dp[1 << v][v] = a[0][v + 1]
    for subset in range(size):
        row = dp[subset]
        for v in range(n - 1):
            val = row[v]
            if val == 0:
                continue
            av = a[v + 1]
            for w in range(n - 1):
                if not subset & (1 << w):
                    dp[subset | (1 << w)][w] += val * av[w + 1]
    full = dp[size - 1]
    return sum(full[v] * a[v + 1][0] for v in range(n - 1))


def _checked_values(spec: PolynomialSpec, x: Assignment) -> tuple:
    values = x.numeric_values()
    if len(values) != spec.n_vars:
        raise ValueError(f"assignment has {len(values)} values; spec needs {spec.n_vars}")
    return values
