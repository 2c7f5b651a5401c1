import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfi_reference import (
    build_boson_ops,
    build_spin_ops,
    expectation,
    partial_trace_atoms,
    partial_trace_field,
    spectral_decompose,
)

import dicke_qfi.solver
from dicke_qfi.model import ModelParams
from dicke_qfi.solver import converge_cutoff, ground_state
from dicke_qfi.states import SpectralDecomposition, schmidt_decompose


@pytest.fixture(scope="module")
def dicke_n6():
    params = ModelParams(1.0, 1.0, 0.54, 6)
    _, gs = converge_cutoff(params, 1e-10)
    return gs


def test_decoupled_reductions_are_pure():
    gs = ground_state(ModelParams(1.0, 1.0, 0.0, 4), 8)
    rho_b = partial_trace_atoms(gs)
    rho_a = partial_trace_field(gs)
    vacuum = np.zeros((gs.indexer.boson_dim,) * 2)
    vacuum[0, 0] = 1.0
    assert_allclose(rho_b, vacuum, atol=1e-14)
    lowest = np.zeros((gs.indexer.spin_dim,) * 2)
    lowest[0, 0] = 1.0  # |j,-j> sits at m+j = 0
    assert_allclose(rho_a, lowest, atol=1e-14)
    assert abs(np.trace(rho_b @ rho_b).real - 1.0) < 1e-12


def test_unit_trace_at_strong_coupling():
    gs = ground_state(ModelParams(1.0, 1.0, 1.0, 20), 240)
    assert abs(np.trace(partial_trace_field(gs)).real - 1.0) < 1e-12
    assert abs(np.trace(partial_trace_atoms(gs)).real - 1.0) < 1e-12


def test_schmidt_duality(dicke_n6):
    rho_a = partial_trace_field(dicke_n6)
    rho_b = partial_trace_atoms(dicke_n6)
    spec_a = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
    spec_b = np.sort(np.linalg.eigvalsh(rho_b))[::-1]
    k = min(spec_a.size, spec_b.size)
    assert np.max(np.abs(spec_a[:k] - spec_b[:k])) < 1e-10
    assert np.all(spec_b[k:] < 1e-10)


def test_positive_semidefinite(dicke_n6):
    for rho in (partial_trace_field(dicke_n6), partial_trace_atoms(dicke_n6)):
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def test_field_parity_checkerboard(dicke_n6):
    # definite global parity means rho_B couples only Fock states of equal parity
    rho_b = partial_trace_atoms(dicke_n6)
    n = np.arange(rho_b.shape[0])
    odd_pairs = (n[:, None] + n[None, :]) % 2 == 1
    assert np.max(np.abs(rho_b[odd_pairs])) < 1e-12


def test_reduced_coherences_vanish(dicke_n6):
    rho_b = partial_trace_atoms(dicke_n6)
    rho_a = partial_trace_field(dicke_n6)
    b, _ = build_boson_ops(rho_b.shape[0] - 1)
    spin = build_spin_ops(rho_a.shape[0] - 1)
    assert abs(expectation(rho_b, b)) < 1e-10
    assert abs(expectation(rho_a, spin.jplus)) < 1e-10


def test_ultrastrong_mixture_weights(ultrastrong_n6):
    weights = np.sort(np.linalg.eigvalsh(ultrastrong_n6["rho_a"]))[::-1]
    assert abs(weights[0] - 0.5) < 0.05
    assert abs(weights[1] - 0.5) < 0.05


def test_spectral_decompose_pure_state():
    decomp = spectral_decompose(np.diag([1.0, 0.0, 0.0]).astype(complex), "boson")
    assert decomp.weights.size == 1
    assert_allclose(decomp.weights, [1.0])
    assert abs(decomp.discarded_mass) < 1e-12


def test_spectral_decompose_maximally_mixed():
    decomp = spectral_decompose(np.eye(2) / 2, "spin")
    assert_allclose(decomp.weights, [0.5, 0.5])


def test_spectral_decompose_reconstruction(dicke_n6):
    rho = partial_trace_atoms(dicke_n6)
    decomp = spectral_decompose(rho, "boson")
    rebuilt = (decomp.vectors * decomp.weights) @ decomp.vectors.conj().T
    gap = np.linalg.eigvalsh(rho - rebuilt)
    trace_norm = float(np.sum(np.abs(gap)))
    assert trace_norm <= abs(decomp.discarded_mass) + 1e-10
    assert abs(np.sum(decomp.weights) + decomp.discarded_mass - 1.0) < 1e-10
    overlaps = decomp.vectors.conj().T @ decomp.vectors
    assert np.max(np.abs(overlaps - np.eye(decomp.weights.size))) < 1e-10


def _rebuild(decomp: SpectralDecomposition) -> np.ndarray:
    return (decomp.vectors * decomp.weights) @ decomp.vectors.conj().T


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.54, 1.0])
@pytest.mark.parametrize("n_atoms, n_cutoff, lanczos", [(1, 30, False), (6, 40, False),
                                                        (20, 80, True)])
def test_schmidt_matches_partial_trace_spectra(n_atoms, n_cutoff, lanczos, lam, monkeypatch):
    # N = 20 is banded by default; the lanczos cases move the threshold below it
    if lanczos:
        monkeypatch.setattr(dicke_qfi.solver, "BANDED_MAX_ATOMS", n_atoms - 1)
    gs = ground_state(ModelParams(1.0, 1.0, lam, n_atoms), n_cutoff)
    assert (gs.convergence.lower_bound is None) == (lanczos and lam > 0)
    field, atoms = schmidt_decompose(gs)
    for schmidt, rho, space in ((field, partial_trace_atoms(gs), "boson"),
                                (atoms, partial_trace_field(gs), "spin")):
        oracle = spectral_decompose(rho, space)
        assert schmidt.space == oracle.space
        assert schmidt.weights.size == oracle.weights.size
        assert np.max(np.abs(schmidt.weights - oracle.weights)) < 1e-12
        assert np.max(np.abs(_rebuild(schmidt) - _rebuild(oracle))) < 1e-12
        assert abs(schmidt.discarded_mass - oracle.discarded_mass) < 1e-12
