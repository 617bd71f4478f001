"""Statevector preparation, Fourier passes, and circuit-vs-table equivalence."""

import tracemalloc

import numpy as np
import pytest

from polysample import (
    NumericalCheckError,
    SizeGuardError,
    StateVector,
    apply_qft,
    apply_single_qudit_gate,
    exact_table_fold,
    exact_table_roots,
    exact_table_squashed,
    hamiltonian_cycle,
    measurement_distribution,
    orbit_weight,
    permanent,
    prepare_monomial_superposition,
    qft_matrix,
    run_fold_sampler_circuit,
    run_roots_sampler_circuit,
    run_squashed_sampler_circuit,
    build_squashed_transform,
    squashed_circuit_state,
    tv_distance,
)


def _random_state(dim, n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim**n) + 1j * rng.normal(size=dim**n)
    return StateVector(dim, n, amps / np.linalg.norm(amps))


def test_prepare_perm2_places_two_amplitudes():
    state = prepare_monomial_superposition(permanent(2), 2)
    expected = np.zeros(16, dtype=complex)
    expected[0b1001] = expected[0b0110] = 1 / np.sqrt(2)
    assert np.allclose(state.amps, expected)
    assert abs(state.norm() - 1) < 1e-12


def test_prepare_hc3_places_two_amplitudes():
    state = prepare_monomial_superposition(hamiltonian_cycle(3), 2)
    nonzero = np.flatnonzero(state.amps)
    assert len(nonzero) == 2
    assert np.allclose(state.amps[nonzero], 1 / np.sqrt(2))


def test_prepare_detects_collisions(monkeypatch):
    import polysample.statevector as sv

    monkeypatch.setattr(sv, "monomial_of_index", lambda spec, z: (1, 0, 0, 1))
    with pytest.raises(NumericalCheckError):
        prepare_monomial_superposition(permanent(2), 2)


def test_prepare_size_guard():
    with pytest.raises(SizeGuardError):
        prepare_monomial_superposition(permanent(6), 4)


def test_qft_on_single_qubit_is_hadamard():
    state = StateVector(2, 1, np.array([1.0, 0.0], dtype=complex))
    out = apply_qft(state)
    assert np.allclose(out.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_qft_preserves_norm_and_inverts():
    state = _random_state(3, 6, 42)
    forward = apply_qft(state)
    assert abs(forward.norm() - 1) < 1e-12
    back = apply_qft(forward, inverse=True)
    assert np.allclose(back.amps, state.amps, atol=1e-12)


def test_hadamard_applied_twice_is_identity():
    state = _random_state(2, 8, 43)
    twice = apply_qft(apply_qft(state))
    assert np.allclose(twice.amps, state.amps, atol=1e-12)


def test_qft_matches_dense_kronecker_oracle():
    state = _random_state(3, 2, 44)
    gate = qft_matrix(3)
    expected = np.kron(gate, gate) @ state.amps
    assert np.allclose(apply_qft(state).amps, expected, atol=1e-12)


def test_single_qudit_gate_targets_correct_axis():
    # X on qudit 1 of |00> gives |01> under the most-significant-first layout
    state = StateVector(2, 2, np.array([1, 0, 0, 0], dtype=complex))
    x = np.array([[0, 1], [1, 0]])
    out = apply_single_qudit_gate(state, x, 1)
    assert np.allclose(out.amps, [0, 1, 0, 0])
    out = apply_single_qudit_gate(state, x, 0)
    assert np.allclose(out.amps, [0, 0, 1, 0])


def _axis_permutation_gate(state, matrix, qudit):
    # Oracle: move the qudit's axis to the front, contract it with the gate, move it back.
    q, n = state.qudit_dim, state.num_qudits
    psi = np.moveaxis(state.amps.reshape([q] * n), qudit, 0)
    psi = np.tensordot(np.asarray(matrix, dtype=np.complex128), psi, axes=([1], [0]))
    return np.ascontiguousarray(np.moveaxis(psi, 0, qudit)).reshape(-1)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_gate_pass_matches_axis_permutation_oracle(q, real):
    n = 4
    if real:
        gate = build_squashed_transform(q - 1).unitary
        amps = np.random.default_rng(q).normal(size=q**n)
        state = StateVector(q, n, amps / np.linalg.norm(amps))
    else:
        gate, state = qft_matrix(q), _random_state(q, n, q)
    for qudit in (0, n // 2, n - 1):
        out = apply_single_qudit_gate(state, gate, qudit).amps
        assert out.dtype == (np.float64 if real else np.complex128)
        assert np.max(np.abs(out - _axis_permutation_gate(state, gate, qudit))) <= 1e-15


def test_gate_must_fit_the_state():
    state = StateVector(2, 2, np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        apply_single_qudit_gate(state, np.ones((1, 2)), 0)
    for qudit in (-1, 2):
        with pytest.raises(ValueError):
            apply_single_qudit_gate(state, np.eye(2), qudit)


def test_state_size_must_match_its_qudits():
    with pytest.raises(ValueError):
        StateVector(2, 3, np.zeros(4))


def test_real_circuits_stay_real_until_the_fourier_transform():
    spec = permanent(2)
    assert prepare_monomial_superposition(spec, 3).amps.dtype == np.float64
    assert squashed_circuit_state(spec, 2).amps.dtype == np.float64
    assert apply_qft(prepare_monomial_superposition(spec, 3)).amps.dtype == np.complex128


def _peak_in_states(run, state):
    # Peak bytes traced while run(state) executes, in units of one state's bytes.
    tracemalloc.start()
    try:
        run(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / state.amps.nbytes


def test_gate_pass_allocates_one_state():
    state, gate = _random_state(3, 9, 53), qft_matrix(3)
    assert _peak_in_states(lambda s: apply_single_qudit_gate(s, gate, 4), state) <= 1.05


def test_qft_holds_two_states():
    assert _peak_in_states(apply_qft, _random_state(3, 9, 54)) <= 2.05


def test_roots_circuit_matches_analytic_table_perm2():
    simulated = run_roots_sampler_circuit(permanent(2), 2)
    analytic = exact_table_roots(permanent(2), 2)
    assert tv_distance(simulated, analytic) <= 1e-9
    assert abs(float(np.sum(simulated.as_floats())) - 1) < 1e-12


@pytest.mark.parametrize("spec,ell", [(permanent(3), 4), (hamiltonian_cycle(3), 2)])
def test_roots_circuit_matches_analytic_table(spec, ell):
    assert tv_distance(run_roots_sampler_circuit(spec, ell), exact_table_roots(spec, ell)) <= 1e-9


def test_roots_circuit_amplitudes_proportional_to_values():
    from polysample import Assignment, evaluate_by_enumeration
    from polysample.tables import mixed_radix_digits

    spec, ell = permanent(2), 3
    state = apply_qft(prepare_monomial_superposition(spec, ell))
    scale = np.sqrt(ell**spec.n_vars * spec.num_monomials)
    for flat in (0, 5, 33, 60):
        digits = mixed_radix_digits(flat, ell, spec.n_vars)
        q = evaluate_by_enumeration(spec, Assignment.roots(ell, digits))
        assert abs(state.amps[flat] - q / scale) < 1e-12


def test_squashed_circuit_matches_analytic_table():
    simulated = run_squashed_sampler_circuit(permanent(2), 2)
    analytic = exact_table_squashed(permanent(2), 2)
    assert simulated.size == 81
    assert tv_distance(simulated, analytic) <= 1e-9


def test_squashed_circuit_amplitude_formula():
    # alpha_y^2 = r0^{2(n-d)} r1^{2d} Q(y)^2 orbit(y) / m, outcome by outcome
    from polysample import evaluate_values_fast
    from polysample.tables import mixed_radix_digits

    spec, k = permanent(2), 2
    transform = build_squashed_transform(k)
    table = run_squashed_sampler_circuit(spec, k, transform)
    n, d, m = spec.n_vars, spec.degree, spec.num_monomials
    pre = transform.r0 ** (n - d) * transform.r1**d
    for flat in range(table.size):
        classes = mixed_radix_digits(flat, k + 1, n)
        y = [2 * c - k for c in classes]
        q = evaluate_values_fast(spec, y)
        alpha_sq = pre**2 * q * q * orbit_weight(y, k) / m
        assert abs(alpha_sq - float(table[flat])) <= 1e-9


def test_squashed_all_k_outcome_closed_form():
    spec, k = permanent(2), 2
    transform = build_squashed_transform(k)
    table = run_squashed_sampler_circuit(spec, k, transform)
    n, d, m = spec.n_vars, spec.degree, spec.num_monomials
    expected = transform.r0 ** (2 * (n - d)) * transform.r1 ** (2 * d) * m * k ** (2 * d)
    assert abs(float(table[table.size - 1]) - expected) < 1e-12


def test_squashed_transform_k_mismatch():
    with pytest.raises(ValueError):
        run_squashed_sampler_circuit(permanent(2), 2, build_squashed_transform(3))


def test_fold_circuit_point_masses():
    table = run_fold_sampler_circuit([1] * 16)
    assert abs(float(table[0]) - 1) < 1e-12
    # f = (-1)^{<c, x>} concentrates at c
    c = 0b101
    f = [1 - 2 * (bin(x & c).count("1") % 2) for x in range(8)]
    table = run_fold_sampler_circuit(f)
    assert abs(float(table[c]) - 1) < 1e-12


def test_fold_circuit_matches_exact_table(rng_factory):
    rng = rng_factory(51)
    f = [1 - 2 * int(b) for b in rng.integers(0, 2, size=1024)]
    assert tv_distance(run_fold_sampler_circuit(f), exact_table_fold(f)) <= 1e-12


def test_fold_circuit_rejects_bad_input():
    with pytest.raises(ValueError):
        run_fold_sampler_circuit([1, -1, 2, 1])
    with pytest.raises(SizeGuardError):
        run_fold_sampler_circuit([1] * (1 << 14))


def test_measurement_distribution_normalizes():
    state = _random_state(2, 5, 52)
    table = measurement_distribution(state)
    assert abs(float(np.sum(table.as_floats())) - 1) < 1e-9


def test_state_json_export():
    state = prepare_monomial_superposition(permanent(2), 2)
    doc = state.to_json_dict()
    assert doc["qudit_dim"] == 2 and doc["num_qudits"] == 4
    assert doc["amps"][0b1001] == [pytest.approx(1 / np.sqrt(2)), 0.0]
