"""Shared randomized-state helpers and dense field operators for the QFI checks."""

import numpy as np

from dicke_qfi.model import HermitianOperator, build_boson_ops
from dicke_qfi.states import DensityMatrix


def number_operator(dim: int) -> HermitianOperator:
    """Dense b'b on a Fock space of the given dimension."""
    _, number = build_boson_ops(dim - 1)
    return number


def quadrature_operator(dim: int, sigma: float) -> HermitianOperator:
    """Dense X_sigma = (b e^{-i sigma} + b' e^{i sigma}) / 2 on the truncated space."""
    annihilate, _ = build_boson_ops(dim - 1)
    x = (annihilate * np.exp(-1j * sigma) + annihilate.conj().T * np.exp(1j * sigma)) / 2
    return HermitianOperator(x, "boson")


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
