"""Property-based checks of the ground-state solver and the reduced-state observables.

The banded solver's energy, vector and energy bracket are checked against
dense ``eigh`` of the same even block.  The observable invariants below hold
for any pure state of the truncated model, converged or not.  They are
checked at a small fixed Fock cutoff, at the cutoff ``converge_cutoff``
picks, and at converged points whose even block is solved by Lanczos.  The
banded field kernels behind ``qfi_field`` and ``quadrature_variance``, and
the spin ladder kernels behind ``qfi_atoms`` and ``spin_variance``, are
checked against the dense operators.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from qfi_reference import (
    dense_hamiltonian_block,
    jx_operator,
    mean_and_variance,
    number_operator,
    parity_signs_from_scratch,
    partial_trace_field,
    qfi_mixed,
    quadrature_operator,
    random_density,
    sld_qfi_oracle,
    spectral_decompose,
    spin_operator,
)
from scipy.linalg import lapack

import dicke_qfi.solver

from dicke_qfi.metrology import qfi_atoms, qfi_field, quadrature_variance, spin_variance
from dicke_qfi.model import BasisIndexer, ModelParams, even_sector
from dicke_qfi.solver import BRACKET_RTOL, converge_cutoff, ground_state
from dicke_qfi.states import schmidt_decompose

N_CUTOFF = 16


def check_invariants(gs):
    n_atoms = gs.params.n_atoms
    assert abs(np.sum(parity_signs_from_scratch(gs.indexer) * np.abs(gs.vector) ** 2) - 1.0) < 1e-12
    field, atoms = schmidt_decompose(gs)
    # the field weights are the spectrum of the atomic reduced state
    atom_spectrum = np.linalg.eigvalsh(partial_trace_field(gs))[::-1]
    assert np.max(np.abs(field.weights - atom_spectrum[: field.weights.size])) < 1e-12
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

    # banded field kernels against the dense operators
    assert abs(f_b - sld_qfi_oracle(field, number)) <= 1e-8 * max(1.0, f_b)
    assert abs(f_b - qfi_mixed(field, number).value) <= 1e-12 * max(1.0, f_b)
    for sigma in (0.0, math.pi / 2):
        dense = mean_and_variance(field, quadrature_operator(field.dim, sigma))[1]
        assert abs(quadrature_variance(field, sigma) - dense) <= 1e-12 * max(1.0, dense)
    check_spin_kernels(atoms, 0.0)
    check_spin_kernels(atoms, math.pi / 2)


def check_spin_kernels(atoms, phi):
    """Ladder-rule Jx QFI and J_phi variance against the dense spin matrices."""
    n_atoms = atoms.dim - 1
    f_a = qfi_atoms(atoms).value
    assert abs(f_a - qfi_mixed(atoms, jx_operator(n_atoms)).value) <= 1e-12 * max(1.0, f_a)
    dense = mean_and_variance(atoms, spin_operator(n_atoms, phi))[1]
    assert abs(spin_variance(atoms, phi) - dense) <= 1e-12 * max(1.0, dense)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.integers(1, 40),
    rank=st.integers(1, 4),
    phi=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_spin_kernels_random_states(n_atoms, rank, phi, seed):
    # complex mixed states, which ground states (real amplitudes) never are
    rho = random_density(np.random.default_rng(seed), n_atoms + 1, min(rank, n_atoms + 1))
    check_spin_kernels(spectral_decompose(rho, "spin"), phi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(0.2, 3.0),
    omega0=st.floats(0.2, 3.0),
    lam=st.floats(0.0, 2.0),
    n_atoms=st.integers(1, 6),
)
def test_reduced_state_invariants(omega, omega0, lam, n_atoms):
    check_invariants(ground_state(ModelParams(omega, omega0, lam, n_atoms), N_CUTOFF))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(0.5, 3.0),
    omega0=st.floats(0.2, 3.0),
    lam=st.floats(0.0, 2.0),
    n_atoms=st.integers(1, 6),
)
def test_reduced_state_invariants_converged(omega, omega0, lam, n_atoms):
    check_invariants(converge_cutoff(ModelParams(omega, omega0, lam, n_atoms), 1e-10)[1])


@pytest.mark.parametrize("omega,omega0,lam,n_atoms", [(1.0, 1.0, 1.0, 20), (0.3, 3.0, 1.0, 6)])
def test_reduced_state_invariants_lanczos(omega, omega0, lam, n_atoms, monkeypatch):
    # both points are banded by default; with the threshold at 0 Lanczos solves them
    monkeypatch.setattr(dicke_qfi.solver, "BANDED_MAX_ATOMS", 0)
    _, gs = converge_cutoff(ModelParams(omega, omega0, lam, n_atoms), 1e-10)
    assert gs.convergence.lower_bound is None
    check_invariants(gs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(0.2, 3.0),
    omega0=st.floats(0.2, 3.0),
    lam=st.floats(0.0, 3.0),
    n_atoms=st.integers(1, 8),
    n_cutoff=st.integers(1, 60),
    warm=st.booleans(),
)
def test_banded_solver_matches_dense_eigh(omega, omega0, lam, n_atoms, n_cutoff, warm):
    # the cold start and first shift depend on omega and omega0 through the mean field
    params = ModelParams(omega, omega0, lam, n_atoms)
    previous = ground_state(params, max(1, n_cutoff // 2)) if warm else None
    gs = ground_state(params, n_cutoff, previous)
    indexer = BasisIndexer(n_cutoff, n_atoms)
    even = even_sector(indexer).index
    block = dense_hamiltonian_block(params, indexer)
    energies, vecs = scipy.linalg.eigh(block)
    e_dense = energies[0]
    scale = max(1.0, abs(e_dense))
    assert abs(gs.energy - e_dense) <= 1e-12 * scale
    psi = gs.vector[even].real
    dense = vecs[:, 0] * np.sign(vecs[:, 0] @ psi)
    # the vector error is bounded by the residual over the gap to the next level
    assert np.linalg.norm(psi - dense) <= 1e-12 * max(1.0, scale / (energies[1] - e_dense))
    # the bracket: H - lower_bound I has a Cholesky factor, within 2 r + slack of E
    lower = gs.convergence.lower_bound
    width = gs.energy - lower
    assert 0.0 <= width <= 2 * gs.convergence.residual + BRACKET_RTOL * max(1.0, abs(gs.energy))
    assert gs.energy <= e_dense + 1e-12 * abs(gs.energy)
    if lam > 0:
        # H - lower I in LAPACK upper band storage, kd = (N+1)//2 + 1 (a zero row at N = 1)
        kd = (n_atoms + 1) // 2 + 1
        shifted = np.zeros((kd + 1, even.size))
        for d in range(kd + 1):
            shifted[kd - d, d:] = np.diagonal(block, d)
        shifted[kd] -= lower
        assert lapack.dpbtrf(shifted)[1] == 0
