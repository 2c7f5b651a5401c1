"""Reduced states of the ground state in spectral form.

In the boson-major basis the ground state is a (n_cutoff+1) x (N+1) grid
psi, and one thin SVD psi = U S V^H (its Schmidt decomposition) gives both
reduced states with the shared weights S^2.  Dense partial traces and their
eigendecomposition serve hand-built mixed states and checks.  Decompositions
drop weights at or below a floor and report the discarded mass so
downstream QFI errors can be bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SolverError
from .model import Space
from .solver import GroundState

#: eigenvalues at or below this floor are dropped from spectral decompositions
DEFAULT_WEIGHT_FLOOR = 1e-12

_TRACE_TOL = 1e-8
_HERM_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive-semidefinite matrix with unit trace on one subsystem."""

    matrix: np.ndarray
    space: Space
    trace: float = field(init=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "trace", tr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """A state on one subsystem: weights above the floor, descending, with eigenvectors."""

    weights: np.ndarray
    vectors: np.ndarray  # column k is the eigenvector of weights[k]
    space: Space
    weight_floor: float
    discarded_mass: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def rank(self) -> int:
        return self.weights.size


def _amplitude_grid(gs: GroundState) -> np.ndarray:
    indexer = gs.indexer
    return np.asarray(gs.vector).reshape(indexer.boson_dim, indexer.spin_dim)


def partial_trace_atoms(gs: GroundState) -> DensityMatrix:
    """Field state rho_B: (rho_B)_{n,n'} = sum_m psi(n,m) psi*(n',m)."""
    psi = _amplitude_grid(gs)
    rho = psi @ psi.conj().T
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, "boson")


def partial_trace_field(gs: GroundState) -> DensityMatrix:
    """Atomic state rho_A: (rho_A)_{m,m'} = sum_n psi(n,m) psi*(n,m')."""
    psi = _amplitude_grid(gs)
    rho = psi.T @ psi.conj()
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, "spin")


def _retained(
    weights: np.ndarray, vectors: np.ndarray, space: Space, weight_floor: float
) -> SpectralDecomposition:
    """Keep the descending weights above ``weight_floor`` and their vectors."""
    if weight_floor < 0:
        raise ValueError("weight_floor must be >= 0")
    keep = weights > weight_floor
    return SpectralDecomposition(weights[keep], vectors[:, keep], space,
                                 float(weight_floor), float(np.sum(weights[~keep])))


def schmidt_decompose(gs: GroundState) -> tuple[SpectralDecomposition, SpectralDecomposition]:
    """(field, atoms) reduced states of a ground state from one thin SVD.

    psi = U S V^H: the field eigenvectors are the columns of U, the atomic
    ones those of conj(V) = vh.T, and both carry the weights S^2 above
    DEFAULT_WEIGHT_FLOOR.
    """
    try:
        u, s, vh = scipy.linalg.svd(_amplitude_grid(gs), full_matrices=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"Schmidt decomposition failed: {exc}") from exc
    return (_retained(s**2, u, "boson", DEFAULT_WEIGHT_FLOOR),
            _retained(s**2, vh.T, "spin", DEFAULT_WEIGHT_FLOOR))


def spectral_decompose(
    rho: DensityMatrix, weight_floor: float = DEFAULT_WEIGHT_FLOOR
) -> SpectralDecomposition:
    """Eigenpairs of a density matrix with weights above ``weight_floor``."""
    try:
        evals, evecs = scipy.linalg.eigh(rho.matrix)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"density-matrix eigensolver failed: {exc}") from exc
    order = np.argsort(evals)[::-1]
    return _retained(evals[order], evecs[:, order], rho.space, weight_floor)
