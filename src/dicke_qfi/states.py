"""Reduced states of the ground state in spectral form.

In the boson-major basis the ground state is a real (n_cutoff+1) x (N+1)
grid psi, and one thin SVD psi = U S V^T (its Schmidt decomposition) gives
both reduced states with the shared weights S^2, so no density matrix is
formed.  A hand-built state enters as a SpectralDecomposition of its
weights and eigenvectors.  Decompositions drop weights at or below
DEFAULT_WEIGHT_FLOOR and report the discarded mass so downstream QFI
errors can be bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.linalg

from .errors import SolverError
from .solver import GroundState

#: the subsystem a reduced state lives on: the field mode or the collective spin
Space = Literal["boson", "spin"]

#: weights at or below this floor are dropped from spectral decompositions
DEFAULT_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """A state on one subsystem: weights above the floor, descending, with eigenvectors."""

    weights: np.ndarray
    vectors: np.ndarray  # column k is the eigenvector of weights[k]
    space: Space
    discarded_mass: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def _amplitude_grid(gs: GroundState) -> np.ndarray:
    indexer = gs.indexer
    return np.asarray(gs.vector).reshape(indexer.boson_dim, indexer.spin_dim)


def _retained(weights: np.ndarray, vectors: np.ndarray, space: Space) -> SpectralDecomposition:
    """Keep the descending weights above DEFAULT_WEIGHT_FLOOR and their vectors."""
    keep = weights > DEFAULT_WEIGHT_FLOOR
    return SpectralDecomposition(weights[keep], vectors[:, keep], space,
                                 float(np.sum(weights[~keep])))


def schmidt_decompose(gs: GroundState) -> tuple[SpectralDecomposition, SpectralDecomposition]:
    """(field, atoms) reduced states of a ground state from one thin SVD.

    The grid is real, so the SVD runs in real arithmetic: psi = U S V^T.
    The field eigenvectors are the columns of U, the atomic ones those of
    V = vh.T, and both carry the weights S^2 above DEFAULT_WEIGHT_FLOOR.
    """
    try:
        u, s, vh = scipy.linalg.svd(_amplitude_grid(gs), full_matrices=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"Schmidt decomposition failed: {exc}") from exc
    return _retained(s**2, u, "boson"), _retained(s**2, vh.T, "spin")

