"""Dense statevector simulation of the three sampling circuits.

States live on ``num_qudits`` qudits of equal dimension; the flat amplitude
index uses the same mixed-radix convention as probability tables (qudit 0
most significant). A single-qudit gate is one matmul over the qudit's axis of
the reshaped state, in the dtypes given: real circuits stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import FOLD_CIRCUIT_GUARD, NumericalCheckError, ShapeMismatchError, check_size
from .families import PolynomialSpec, monomial_of_index
from .squashed import SquashedTransform, build_squashed_transform
from .tables import ProbabilityTable, mixed_radix_index

NORM_TOL = 1e-9


@dataclass
class StateVector:
    qudit_dim: int
    num_qudits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (self.size,):
            raise ShapeMismatchError(f"state has {self.amps.size} amplitudes; qudit_dim**num_qudits is {self.size}")

    @property
    def size(self) -> int:
        return self.qudit_dim**self.num_qudits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def validate_norm(self, tol: float = NORM_TOL) -> None:
        drift = abs(self.norm() - 1.0)
        if drift > tol:
            raise NumericalCheckError(f"state norm off unity by {drift:.3e}")

    def to_json_dict(self) -> dict:
        return {
            "qudit_dim": self.qudit_dim,
            "num_qudits": self.num_qudits,
            "amps": np.stack((self.amps.real, self.amps.imag), axis=1).tolist(),
        }


def prepare_monomial_superposition(spec: PolynomialSpec, qudit_dim: int) -> StateVector:
    """Uniform superposition over the family's monomial masks (levels 0/1).

    Amplitudes are placed directly; the two-register prepare/uncompute
    choreography that a real machine would run is information-equivalent
    and is not simulated.
    """
    if qudit_dim < 2:
        raise ValueError("qudit dimension must be >= 2")
    size = qudit_dim**spec.n_vars
    check_size("statevector", size)
    amps = np.zeros(size)
    weight = 1.0 / sqrt(spec.num_monomials)
    for z in range(spec.num_monomials):
        index = mixed_radix_index(monomial_of_index(spec, z), qudit_dim)
        if amps[index] != 0:
            raise NumericalCheckError(f"monomial map is not injective at flat index {index}")
        amps[index] = weight
    return StateVector(qudit_dim, spec.n_vars, amps)


def apply_single_qudit_gate(state: StateVector, matrix: np.ndarray, qudit: int) -> StateVector:
    q, n = state.qudit_dim, state.num_qudits
    if np.shape(matrix) != (q, q) or not 0 <= qudit < n:
        raise ValueError(f"gate of shape {np.shape(matrix)} on qudit {qudit} of {n} qudits of dimension {q}")
    psi = state.amps.reshape(q**qudit, q, q ** (n - 1 - qudit))
    return StateVector(q, n, np.matmul(matrix, psi).reshape(-1))


def qft_matrix(radix: int, inverse: bool = False) -> np.ndarray:
    # Forward kernel omega^(+y*z)/sqrt(radix); the inverse flips the sign.
    grid = np.outer(np.arange(radix), np.arange(radix))
    sign = -1.0 if inverse else 1.0
    return np.exp(sign * 2j * np.pi * grid / radix) / sqrt(radix)


def apply_qft(state: StateVector, inverse: bool = False) -> StateVector:
    gate = qft_matrix(state.qudit_dim, inverse=inverse)
    for qudit in range(state.num_qudits):
        state = apply_single_qudit_gate(state, gate, qudit)
    return state


def measurement_distribution(state: StateVector) -> ProbabilityTable:
    return ProbabilityTable(state.qudit_dim, state.num_qudits, np.abs(state.amps) ** 2)


def run_roots_sampler_circuit(spec: PolynomialSpec, ell: int) -> ProbabilityTable:
    """Monomial superposition on ell-level qudits, Fourier transform, measure."""
    state = apply_qft(prepare_monomial_superposition(spec, ell))
    state.validate_norm()
    return measurement_distribution(state)


def squashed_circuit_state(
    spec: PolynomialSpec, k: int, transform: SquashedTransform | None = None
) -> StateVector:
    """Pre-measurement state: monomial superposition on (k+1)-level qudits, squashed transform."""
    if transform is None:
        transform = build_squashed_transform(k)
    elif transform.k != k:
        raise ValueError(f"transform is for k = {transform.k}, not {k}")
    state = prepare_monomial_superposition(spec, k + 1)
    for qudit in range(state.num_qudits):
        state = apply_single_qudit_gate(state, transform.unitary, qudit)
    return state


def squashed_measurement_distribution(state: StateVector) -> ProbabilityTable:
    """Class-indexed outcome table of a squashed-circuit state.

    The transform's rows are ordered by minus-count while squashed tables
    index classes by plus-count, so each qudit axis is reversed. That maps digit
    d to q-1-d at every position, so flat index i goes to q**n - 1 - i.
    """
    state.validate_norm()
    return ProbabilityTable(state.qudit_dim, state.num_qudits, np.abs(state.amps[::-1]) ** 2)


def run_squashed_sampler_circuit(
    spec: PolynomialSpec, k: int, transform: SquashedTransform | None = None
) -> ProbabilityTable:
    """Monomial superposition on (k+1)-level qudits, squashed transform, measure."""
    return squashed_measurement_distribution(squashed_circuit_state(spec, k, transform))


def run_fold_sampler_circuit(truth_table) -> ProbabilityTable:
    """Phase-encode a +-1 truth table, apply the qubit Fourier transform, measure."""
    values = np.asarray(truth_table, dtype=np.int64)
    n = len(values).bit_length() - 1
    if len(values) != 1 << n or n < 1:
        raise ValueError(f"truth table length {len(values)} is not a power of two")
    check_size("fold circuit state", len(values), FOLD_CIRCUIT_GUARD)
    if not np.all(np.abs(values) == 1):
        raise ValueError("truth table entries must be +-1")
    state = apply_qft(StateVector(2, n, values / sqrt(len(values))))
    state.validate_norm()
    return measurement_distribution(state)
