"""The squashed Fourier transform: a (k+1) x (k+1) unitary on symmetry classes.

Rows are indexed by the S_k-equivalence classes of +-1 assignments to k
variables (row i = the class with i entries equal to -1, i ascending), and
columns by the elementary symmetric polynomials e_0 .. e_k. The integer core
matrix holds e_j evaluated on a class-i assignment; weighting rows by the
square roots of the class sizes C(k, i) makes the columns orthogonal, and a
diagonal column normalization then yields a real unitary. Only columns 0 and
1 feed the sampler (their normalizers are r0 = 2^{-k/2} and
r1 = (k * 2^k)^{-1/2}); all k + 1 columns are built and verified anyway.

No gate-level decomposition of this unitary is attempted: it is applied as a
dense single-qudit matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import NumericalCheckError, SizeGuardError

MAX_K = 64
UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class SquashedTransform:
    k: int
    core: tuple[tuple[int, ...], ...]  # integer e_j values per class, (k+1) x (k+1)
    class_sizes: tuple[int, ...]  # C(k, i), the L diagonal squared
    column_norms_sq: tuple[int, ...]  # exact squared norms of the L-weighted columns
    unitary: np.ndarray
    r0: float
    r1: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "core": [list(row) for row in self.core],
            "class_sizes": list(self.class_sizes),
            "column_norms_sq": [str(g) for g in self.column_norms_sq],
            "unitary": [[float(v) for v in row] for row in self.unitary],
            "r0": self.r0,
            "r1": self.r1,
        }


def symmetric_polynomial_class_values(k: int, minus_count: int) -> list[int]:
    """Values of e_0 .. e_k on the assignment with ``minus_count`` entries of -1.

    These are the coefficients of (1 + y)^(k - minus_count) * (1 - y)^minus_count.
    """
    coeffs = [1]
    for _ in range(k - minus_count):
        coeffs = [a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    for _ in range(minus_count):
        coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def build_squashed_transform(k: int) -> SquashedTransform:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_K:
        raise SizeGuardError(f"squashed transform capped at k = {MAX_K}, got {k}")
    core = [symmetric_polynomial_class_values(k, i) for i in range(k + 1)]
    sizes = [comb(k, i) for i in range(k + 1)]

    # Orthogonality of the weighted columns holds exactly in integers; a
    # nonzero off-diagonal Gram entry means the construction is wrong.
    norms_sq, off_diagonal = weighted_gram(core, sizes)
    if off_diagonal != 0:
        raise NumericalCheckError(f"weighted columns not orthogonal (Gram entry {off_diagonal})")

    row_weight = np.sqrt(np.array(sizes, dtype=np.float64))
    col_scale = 1.0 / np.sqrt(np.array(norms_sq, dtype=np.float64))
    transform = SquashedTransform(
        k=k,
        core=tuple(tuple(row) for row in core),
        class_sizes=tuple(sizes),
        column_norms_sq=tuple(norms_sq),
        unitary=row_weight[:, None] * np.array(core, dtype=np.float64) * col_scale[None, :],
        r0=float(col_scale[0]),
        r1=float(col_scale[1]),
    )
    residual = unitarity_residual(transform)
    if residual > UNITARITY_TOL:
        raise NumericalCheckError(f"unitarity residual {residual:.3e} exceeds {UNITARITY_TOL}")
    return transform


def weighted_gram(core, class_sizes) -> tuple[list[int], int]:
    """Squared column norms and largest |off-diagonal entry| of the weighted columns' exact Gram matrix.

    Entry (a, b) is sum_i class_sizes[i] * core[i][a] * core[i][b].
    """
    width = len(core[0])
    diagonal, off_diagonal = [], 0
    for a in range(width):
        for b in range(a, width):
            g = sum(size * row[a] * row[b] for size, row in zip(class_sizes, core))
            if a == b:
                diagonal.append(g)
            else:
                off_diagonal = max(off_diagonal, abs(g))
    return diagonal, off_diagonal


def unitarity_residual(transform: SquashedTransform) -> float:
    u = transform.unitary
    return float(np.abs(u.T @ u - np.eye(transform.k + 1)).max())
