"""Property-based checks of the reduced-state observables over random model parameters.

Each example solves the even-parity block at a small fixed Fock cutoff; the
invariants below hold for any pure state of the truncated model, converged
or not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_qfi.metrology import (
    jx_operator,
    mean_and_variance,
    number_operator,
    qfi_atoms,
    qfi_field,
    qfi_mixed,
    sld_qfi_oracle,
)
from dicke_qfi.model import ModelParams, parity_signs
from dicke_qfi.solver import ground_state
from dicke_qfi.states import partial_trace_field, schmidt_decompose

N_CUTOFF = 16


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(0.2, 3.0),
    omega0=st.floats(0.2, 3.0),
    lam=st.floats(0.0, 2.0),
    n_atoms=st.integers(1, 6),
)
def test_reduced_state_invariants(omega, omega0, lam, n_atoms):
    gs = ground_state(ModelParams(omega, omega0, lam, n_atoms), N_CUTOFF)
    assert abs(np.sum(parity_signs(gs.indexer) * np.abs(gs.vector) ** 2) - 1.0) < 1e-12
    field, atoms = schmidt_decompose(gs)
    # the field weights are the spectrum of the atomic reduced state
    atom_spectrum = np.linalg.eigvalsh(partial_trace_field(gs).matrix)[::-1]
    assert np.max(np.abs(field.weights - atom_spectrum[: field.rank])) < 1e-12
    for state in (field, atoms):
        assert abs(np.sum(state.weights) + state.discarded_mass - 1.0) < 1e-12

    number = number_operator(field.dim)
    _, var_number = mean_and_variance(field, number)
    f_a = qfi_atoms(atoms).value
    f_b = qfi_field(field).value
    assert 0.0 <= f_a <= n_atoms**2 * (1 + 1e-12)
    assert 0.0 <= f_b <= 4.0 * var_number * (1 + 1e-12) + 1e-12

    for state, generator in ((atoms, jx_operator(n_atoms)), (field, number)):
        oracle = sld_qfi_oracle(state, generator)
        assert abs(qfi_mixed(state, generator).value - oracle) <= 1e-8 * max(1.0, oracle)
