"""Polynomial families with rankable monomials.

Each family is a multilinear homogeneous polynomial with 0/1 coefficients
whose monomials can be ranked and unranked: ``monomial_of_index`` maps an
integer in [0, m) to the 0/1 variable-incidence mask of that monomial and
``index_of_monomial`` inverts it. Shipped families:

- permanent of an n x n matrix (m = n!, degree n),
- Hamiltonian-cycle polynomial of an n x n matrix (m = (n-1)!, degree n),
- the k-copy lift of either, which replaces each variable by a sum of k
  fresh variables (m' = m * k^d, kn variables).

Index conventions, fixed package-wide:

- matrix families store variable (row i, col j) at flat index i*n + j;
- lifted families store copy j of base variable i at flat index i*k + j;
- masks are 0/1 tuples with variable 0 first, and serialize to 0/1 strings
  in that order;
- a matrix-family mask encodes a permutation as sigma(i) = j <=> bit (i, j),
  and Hamiltonian-cycle masks must additionally be a single n-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .errors import InvalidMonomialError, SizeGuardError

PERMANENT = "permanent"
HAMILTONIAN_CYCLE = "hamiltonian_cycle"
LIFTED = "lifted"

ROOT_OF_UNITY = "root_of_unity"
INTEGER = "integer"

# Lift sizes beyond this many monomials make even arbitrary-precision
# ranking pointless at desk scale.
LIFT_MONOMIAL_GUARD = 1 << 128


@dataclass(frozen=True)
class PolynomialSpec:
    """Immutable descriptor of one polynomial family instance."""

    family: str
    n_vars: int
    degree: int
    num_monomials: int
    matrix_n: int | None = None
    base: "PolynomialSpec | None" = None
    lift_k: int | None = None

    def describe(self) -> dict:
        """JSON-ready {family, n, k?} descriptor."""
        if self.family == LIFTED:
            doc = self.base.describe()
            doc["k"] = self.lift_k
            return doc
        return {"family": self.family, "n": self.matrix_n}


def permanent(n: int) -> PolynomialSpec:
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    return PolynomialSpec(PERMANENT, n * n, n, factorial(n), matrix_n=n)


def hamiltonian_cycle(n: int) -> PolynomialSpec:
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    return PolynomialSpec(HAMILTONIAN_CYCLE, n * n, n, factorial(n - 1), matrix_n=n)


def lift_k_equivalent(spec: PolynomialSpec, k: int) -> PolynomialSpec:
    """Spec of the polynomial obtained by replacing each variable with a sum of k copies."""
    if k < 1:
        raise ValueError("lift parameter k must be >= 1")
    m = spec.num_monomials * k**spec.degree
    if m > LIFT_MONOMIAL_GUARD:
        raise SizeGuardError(f"lifted family has {m} monomials; guard is {LIFT_MONOMIAL_GUARD}")
    return PolynomialSpec(
        LIFTED,
        k * spec.n_vars,
        spec.degree,
        m,
        base=spec,
        lift_k=k,
    )


def spec_from_json(doc: dict) -> PolynomialSpec:
    makers = {PERMANENT: permanent, HAMILTONIAN_CYCLE: hamiltonian_cycle}
    family = doc["family"]
    if family not in makers:
        raise ValueError(f"unknown family {family!r}")
    spec = makers[family](int(doc["n"]))
    if doc.get("k") is not None:
        spec = lift_k_equivalent(spec, int(doc["k"]))
    return spec


@dataclass(frozen=True)
class Assignment:
    """A point at which a family polynomial is evaluated.

    ``root_of_unity`` mode stores exponents e_i in [0, ell-1]; the variable
    value is exp(2*pi*1j*e_i/ell), kept as an exact +-1 integer when ell = 2.
    ``integer`` mode stores integers with |v_i| <= k.
    """

    mode: str
    param: int  # ell in root mode, k in integer mode
    values: tuple[int, ...]

    @staticmethod
    def roots(ell: int, exponents: Sequence[int]) -> "Assignment":
        if ell < 2:
            raise ValueError("root order ell must be >= 2 (ell = 1 is degenerate)")
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 or e >= ell for e in exps):
            raise ValueError(f"exponents must lie in [0, {ell - 1}]")
        return Assignment(ROOT_OF_UNITY, ell, exps)

    @staticmethod
    def integers(k: int, values: Sequence[int]) -> "Assignment":
        if k < 1:
            raise ValueError("integer range k must be >= 1")
        vals = tuple(int(v) for v in values)
        if any(abs(v) > k for v in vals):
            raise ValueError(f"integer values must satisfy |v| <= {k}")
        return Assignment(INTEGER, k, vals)

    def numeric_values(self) -> tuple:
        """Variable values as numbers: exact ints when possible, complex otherwise."""
        if self.mode == INTEGER:
            return self.values
        if self.param == 2:
            return tuple(1 - 2 * e for e in self.values)
        from cmath import exp, pi

        root = 2j * pi / self.param
        powers = [exp(root * t) for t in range(self.param)]
        return tuple(powers[e] for e in self.values)


def collapse_assignment(x: Sequence[int], k: int) -> Assignment:
    """Sum +-1 entries in blocks of k: the preimage-collapsing map of the lift.

    Block i covers flat positions [i*k, (i+1)*k), matching the lifted
    variable layout, so Q_lifted(x) = Q_base(collapse_assignment(x, k)).
    """
    x = list(x)
    if len(x) % k != 0:
        raise ValueError(f"length {len(x)} is not a multiple of k = {k}")
    if any(v not in (-1, 1) for v in x):
        raise ValueError("entries must be +-1")
    sums = [sum(x[i * k : (i + 1) * k]) for i in range(len(x) // k)]
    return Assignment.integers(k, sums)


# ---------------------------------------------------------------------------
# ranking / unranking


def monomial_of_index(spec: PolynomialSpec, z: int) -> tuple[int, ...]:
    """0/1 incidence mask of the z-th monomial, z in [0, num_monomials)."""
    z = int(z)
    if z < 0 or z >= spec.num_monomials:
        raise IndexError(f"monomial index {z} outside [0, {spec.num_monomials})")
    if spec.family == PERMANENT:
        return _permutation_to_mask(_unrank_permutation(z, spec.matrix_n), spec.matrix_n)
    if spec.family == HAMILTONIAN_CYCLE:
        return _permutation_to_mask(_unrank_cycle(z, spec.matrix_n), spec.matrix_n)
    if spec.family == LIFTED:
        return _unrank_lifted(spec, z)
    raise InvalidMonomialError(f"family {spec.family!r} has no ranking")


def index_of_monomial(spec: PolynomialSpec, mask: Sequence[int]) -> int:
    """Inverse of monomial_of_index; validates the family's structural invariant."""
    mask = tuple(int(b) for b in mask)
    if len(mask) != spec.n_vars or any(b not in (0, 1) for b in mask):
        raise InvalidMonomialError(f"mask must be a 0/1 vector of length {spec.n_vars}")
    if spec.family == PERMANENT:
        return _rank_permutation(_mask_to_permutation(mask, spec.matrix_n))
    if spec.family == HAMILTONIAN_CYCLE:
        perm = _mask_to_permutation(mask, spec.matrix_n)
        return _rank_cycle(perm, spec.matrix_n)
    if spec.family == LIFTED:
        return _rank_lifted(spec, mask)
    raise InvalidMonomialError(f"family {spec.family!r} has no ranking")


def mask_to_string(mask: Sequence[int]) -> str:
    return "".join("1" if b else "0" for b in mask)


def mask_from_string(text: str) -> tuple[int, ...]:
    if any(c not in "01" for c in text):
        raise InvalidMonomialError("mask strings may contain only 0 and 1")
    return tuple(1 if c == "1" else 0 for c in text)


def _factorial_digits(j: int, places: int) -> list[int]:
    # Most significant digit first; place values (places-1)!, ..., 0!.
    digits = []
    for p in range(places - 1, -1, -1):
        d, j = divmod(j, factorial(p))
        digits.append(d)
    return digits


def _unrank_permutation(j: int, n: int) -> list[int]:
    available = list(range(n))
    return [available.pop(d) for d in _factorial_digits(j, n)]


def _rank_permutation(perm: Sequence[int]) -> int:
    n = len(perm)
    available = list(range(n))
    rank = 0
    for i, v in enumerate(perm):
        pos = available.index(v)
        rank += pos * factorial(n - 1 - i)
        available.pop(pos)
    return rank


def _unrank_cycle(j: int, n: int) -> list[int]:
    # Visit order after the anchored start vertex 0, then back to 0.
    if n == 1:
        return [0]
    available = list(range(1, n))
    visits = [available.pop(d) for d in _factorial_digits(j, n - 1)]
    successor = [0] * n
    at = 0
    for v in visits:
        successor[at] = v
        at = v
    successor[at] = 0
    return successor


def _rank_cycle(successor: Sequence[int], n: int) -> int:
    visits = []
    at = successor[0]
    while at != 0:
        visits.append(at)
        at = successor[at]
        if len(visits) > n:
            break
    if len(visits) != n - 1:
        raise InvalidMonomialError("mask is a permutation but not a single n-cycle")
    available = list(range(1, n))
    rank = 0
    for i, v in enumerate(visits):
        pos = available.index(v)
        rank += pos * factorial(n - 2 - i)
        available.pop(pos)
    return rank


def _permutation_to_mask(perm: Sequence[int], n: int) -> tuple[int, ...]:
    mask = [0] * (n * n)
    for i, j in enumerate(perm):
        mask[i * n + j] = 1
    return tuple(mask)


def _mask_to_permutation(mask: Sequence[int], n: int) -> list[int]:
    perm = [-1] * n
    seen_cols = [False] * n
    for i in range(n):
        row = mask[i * n : (i + 1) * n]
        ones = [j for j, b in enumerate(row) if b]
        if len(ones) != 1:
            raise InvalidMonomialError(f"row {i} has {len(ones)} entries set; need exactly 1")
        j = ones[0]
        if seen_cols[j]:
            raise InvalidMonomialError(f"column {j} is used twice")
        seen_cols[j] = True
        perm[i] = j
    return perm


def _unrank_lifted(spec: PolynomialSpec, z: int) -> tuple[int, ...]:
    base, k, d = spec.base, spec.lift_k, spec.degree
    base_index, rest = divmod(z, k**d)
    copies = []
    for p in range(d - 1, -1, -1):
        c, rest = divmod(rest, k**p)
        copies.append(c)
    base_mask = monomial_of_index(base, base_index)
    mask = [0] * spec.n_vars
    used = 0
    for i, bit in enumerate(base_mask):
        if bit:
            mask[i * k + copies[used]] = 1
            used += 1
    return tuple(mask)


def _rank_lifted(spec: PolynomialSpec, mask: Sequence[int]) -> int:
    base, k, d = spec.base, spec.lift_k, spec.degree
    base_mask = []
    copies = []
    for i in range(base.n_vars):
        block = mask[i * k : (i + 1) * k]
        ones = [j for j, b in enumerate(block) if b]
        if len(ones) > 1:
            raise InvalidMonomialError(f"block {i} selects {len(ones)} copies; at most 1 allowed")
        base_mask.append(1 if ones else 0)
        if ones:
            copies.append(ones[0])
    if len(copies) != d:
        raise InvalidMonomialError(f"{len(copies)} blocks occupied; lifted degree is {d}")
    base_index = index_of_monomial(base, base_mask)
    rest = 0
    for c in copies:
        rest = rest * k + c
    return base_index * k**d + rest
