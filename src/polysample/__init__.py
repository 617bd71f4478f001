"""Quantum Fourier sampling distributions built from permanent-like polynomials.

The package constructs the exact target distributions, simulates the
sampling circuits on a dense statevector (including the squashed symmetric
transform), and stress-tests the classical reductions from approximate
samplers to average-case estimators.

The library logs through the ``polysample`` logger, which is silent unless
the application configures logging.
"""

import logging

from .anticoncentration import (
    TailReport,
    TailRow,
    anticoncentration_experiment,
    wilson_interval,
)
from .counting import noisy_scale
from .errors import (
    InvalidMonomialError,
    NumericalCheckError,
    ParityError,
    PolySampleError,
    ShapeMismatchError,
    SizeGuardError,
)
from .evaluate import (
    evaluate_by_enumeration,
    evaluate_fast,
    evaluate_values_batch,
    evaluate_values_by_enumeration,
    evaluate_values_fast,
    squared_values,
)
from .families import (
    Assignment,
    PolynomialSpec,
    collapse_assignment,
    hamiltonian_cycle,
    index_of_monomial,
    lift_k_equivalent,
    mask_from_string,
    mask_to_string,
    monomial_of_index,
    permanent,
    spec_from_json,
)
from .reductions import (
    MultiplicativeLiftReport,
    ReductionReport,
    TrialRecord,
    additive_estimator,
    multiplicative_lift,
    run_roots_reduction,
    run_squashed_reduction,
    squashed_additive_estimator,
    guarantee_schedule,
)
from .rng import RandomSource
from .samplers import SamplerHandle, make_perturbed_sampler
from .squashed import SquashedTransform, build_squashed_transform, unitarity_residual
from .statevector import (
    StateVector,
    apply_qft,
    apply_single_qudit_gate,
    measurement_distribution,
    prepare_monomial_superposition,
    qft_matrix,
    run_fold_sampler_circuit,
    run_roots_sampler_circuit,
    run_squashed_sampler_circuit,
    squashed_circuit_state,
    squashed_measurement_distribution,
)
from .tables import (
    ProbabilityTable,
    VarianceReport,
    binomial_sampling_method,
    exact_table_fold,
    exact_table_roots,
    exact_table_squashed,
    mixed_radix_digits,
    mixed_radix_index,
    orbit_weight,
    sample_binomial_assignment,
    sample_binomial_value,
    sample_binomial_values,
    sample_from_table,
    squashed_points,
    tv_distance,
    variance,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
