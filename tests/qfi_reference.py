"""Shared randomized-state helpers, dense operators and oracles for the checks."""

import math

import numpy as np

from dicke_qfi.model import (
    BasisIndexer,
    HermitianOperator,
    ModelParams,
    build_boson_ops,
    build_even_block,
    build_spin_ops,
)
from dicke_qfi.states import DensityMatrix


def build_hamiltonian(params: ModelParams, indexer: BasisIndexer) -> HermitianOperator:
    """Full Dicke Hamiltonian on the product space, assembled by Kronecker products."""
    if indexer.n_atoms != params.n_atoms:
        raise ValueError("indexer and params disagree on n_atoms")
    annihilate, number = build_boson_ops(indexer.n_cutoff)
    spin = build_spin_ops(params.n_atoms)
    eye_b = np.eye(indexer.boson_dim)
    eye_s = np.eye(indexer.spin_dim)
    coupling = params.lam / math.sqrt(params.n_atoms)
    h = (
        params.omega * np.kron(number.matrix, eye_s)
        + params.omega0 * np.kron(eye_b, spin.jz)
        + coupling * np.kron(annihilate + annihilate.conj().T, spin.jplus + spin.jminus)
    )
    return HermitianOperator(h, "product")


def dense_hamiltonian_block(params: ModelParams, indexer: BasisIndexer) -> np.ndarray:
    """The even-parity block P H P as a dense float64 array, for ``scipy.linalg.eigh`` oracles."""
    diagonal, upper = build_even_block(params, indexer)
    block = np.diag(diagonal)
    rows = np.arange(diagonal.size)
    for d, coupling in upper.items():
        block[rows[:-d], rows[d:]] = coupling
        block[rows[d:], rows[:-d]] = coupling
    return block


def expectation(state, op) -> complex:
    """<psi|A|psi> for a state vector or Tr(rho A) for a density matrix.

    Accepts a GroundState, a DensityMatrix, or a bare ndarray (1-D vector /
    2-D density matrix); ``op`` may be a HermitianOperator or a bare matrix.
    The full complex value is returned so callers can monitor the imaginary
    part as a diagnostic.
    """
    matrix = op.matrix if isinstance(op, HermitianOperator) else np.asarray(op)
    if hasattr(state, "vector"):
        array = np.asarray(state.vector)
    elif hasattr(state, "matrix"):
        array = np.asarray(state.matrix)
    else:
        array = np.asarray(state)
    if array.ndim == 1:
        if array.shape[0] != matrix.shape[0]:
            raise ValueError("state and operator dimensions do not match")
        return complex(np.vdot(array, matrix @ array))
    if array.ndim == 2:
        if array.shape != matrix.shape:
            raise ValueError("state and operator dimensions do not match")
        return complex(np.trace(array @ matrix))
    raise ValueError("state must be a vector or a density matrix")


def number_operator(dim: int) -> HermitianOperator:
    """Dense b'b on a Fock space of the given dimension."""
    _, number = build_boson_ops(dim - 1)
    return number


def quadrature_operator(dim: int, sigma: float) -> HermitianOperator:
    """Dense X_sigma = (b e^{-i sigma} + b' e^{i sigma}) / 2 on the truncated space."""
    annihilate, _ = build_boson_ops(dim - 1)
    x = (annihilate * np.exp(-1j * sigma) + annihilate.conj().T * np.exp(1j * sigma)) / 2
    return HermitianOperator(x, "boson")


def jx_operator(n_atoms: int) -> HermitianOperator:
    """Dense Jx for j = N/2."""
    return HermitianOperator(build_spin_ops(n_atoms).jx, "spin")


def spin_operator(n_atoms: int, phi: float) -> HermitianOperator:
    """Dense J_phi = Jx cos(phi) + Jy sin(phi) for j = N/2."""
    spin = build_spin_ops(n_atoms)
    return HermitianOperator(spin.jx * math.cos(phi) + spin.jy * math.sin(phi), "spin")


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def haar_basis(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int, rank: int) -> DensityMatrix:
    """Random density matrix with exactly ``rank`` nonzero eigenvalues.

    The nonzero weights are kept well above the spectral floor (>= 1e-4) so
    the decomposition keeps all of them.
    """
    basis = haar_basis(rng, dim)
    weights = rng.dirichlet(np.ones(rank)) * 0.9 + 0.1 / rank
    spectrum = np.zeros(dim)
    spectrum[:rank] = weights
    rho = (basis * spectrum) @ basis.conj().T
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, "boson")


def pure_state_qfi(vector: np.ndarray, generator: np.ndarray) -> float:
    """4 * variance of the generator in a pure state."""
    mean = np.vdot(vector, generator @ vector).real
    mean_sq = np.vdot(generator @ vector, generator @ vector).real
    return 4.0 * (mean_sq - mean**2)
