"""Reduced states of the ground state in spectral form, for one state or a stack.

In the boson-major basis the ground state is a real (n_cutoff+1) x (N+1)
grid psi, and one thin SVD psi = U S V^T (its Schmidt decomposition) gives
both reduced states with the shared weights S^2, so no density matrix is
formed.  ``schmidt_stack`` decomposes many ground states of one N at once:
it runs one batched SVD over their zero-padded amplitude grids, which
``model`` alone lays out (``model.amplitude_grids``), each in the first
rows of a slab of its ``model.padded_shape``.  The padding depends on the
point alone, so a point's bits do not depend on the stack it is decomposed
in; ``schmidt_decompose`` is the same SVD on a stack of one, and
``schmidt_runs`` cuts any list of states into the stacks it takes.

A SpectralDecomposition holds one state, or a stack of states along a
leading axis.  Weights at or below DEFAULT_WEIGHT_FLOOR are set to 0 with
their eigenvectors kept, so every state of a stack has one rank, and each
reports its own discarded mass so downstream QFI errors can be bounded.  A
hand-built state enters as a SpectralDecomposition of its weights and
eigenvectors.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby
from typing import Literal

import numpy as np

from .errors import SolverError
from .model import amplitude_grids, padded_shape
from .solver import GroundState, fitting_runs

#: the subsystem a reduced state lives on: the field mode or the collective spin
Space = Literal["boson", "spin"]

#: weights at or below this floor are set to 0 in Schmidt decompositions
DEFAULT_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """States on one subsystem: weights, descending, with eigenvectors.

    For one state ``weights`` has shape (rank,), ``vectors`` (rows, rank)
    and ``discarded_mass`` and ``levels`` are numbers; a stack adds a
    leading axis to each.  ``levels`` is the dimension of each state's
    truncated space: its vectors' rows from there on are zero padding, and
    no operator acts across them.  Left out, it is filled in as every row,
    one count per state of a stack.
    """

    weights: np.ndarray
    vectors: np.ndarray  # column k is the eigenvector of weights[..., k]
    space: Space
    discarded_mass: float | np.ndarray
    levels: int | np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.levels is None:
            levels = self.dim if self.weights.ndim == 1 else np.full(len(self.weights), self.dim)
            object.__setattr__(self, "levels", levels)

    @property
    def dim(self) -> int:
        """Rows of each eigenvector, the padding included."""
        return self.vectors.shape[-2]

    def as_stack(self) -> SpectralDecomposition:
        """This decomposition as a stack: itself if it is one, else a stack of one state."""
        if self.weights.ndim > 1:
            return self
        return SpectralDecomposition(
            self.weights[None], self.vectors[None], self.space,
            np.reshape(self.discarded_mass, 1), np.reshape(self.levels, 1))

    def __getitem__(self, i: int) -> SpectralDecomposition:
        """State ``i`` of a stack, as a decomposition of one state."""
        return SpectralDecomposition(
            self.weights[i], self.vectors[i], self.space, float(self.discarded_mass[i]),
            int(self.levels[i]))


def schmidt_bytes(gs: GroundState) -> int:
    """Bytes a state holds in a batched Schmidt step and the sweep observables formed from it.

    About eight arrays of its padded grid's size: tracemalloc peaks of a run's
    ``schmidt_stack`` and ``metrology.sweep_observables`` together were 6.2 to
    7.4 times its grids, from N = 1 to 300.
    """
    rows, columns = padded_shape(gs.params.n_atoms, gs.n_cutoff)
    return 64 * rows * columns


def schmidt_stack(
    states: Sequence[GroundState],
) -> tuple[SpectralDecomposition, SpectralDecomposition]:
    """Stacked (field, atoms) reduced states of ground states of one padded shape, from one SVD.

    The grids are real, so the SVD runs in real arithmetic: each slab is
    U S V^T by ``np.linalg.svd``, which decomposes the slabs one by one, so a
    state's bits do not depend on the others.  The field eigenvectors are
    the columns of U, the atomic ones those of V, and both carry the
    weights S^2, with those at or below DEFAULT_WEIGHT_FLOOR set to 0 and
    summed into the state's discarded mass.  A failed SVD raises SolverError.
    """
    shapes = {padded_shape(gs.params.n_atoms, gs.n_cutoff) for gs in states}
    if len(shapes) != 1:
        raise ValueError(f"schmidt_stack takes states of one padded shape, not {sorted(shapes)}")
    try:
        grids = amplitude_grids(states[0].params.n_atoms, [gs.vector for gs in states],
                                [gs.n_cutoff for gs in states])
        u, s, vt = np.linalg.svd(grids, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Schmidt decomposition failed: {exc}") from None
    weights = s**2
    kept = weights > DEFAULT_WEIGHT_FLOOR
    discarded = np.where(kept, 0.0, weights).sum(axis=-1)
    weights = np.where(kept, weights, 0.0)
    levels = np.array([gs.n_cutoff + 1 for gs in states])
    return (SpectralDecomposition(weights, u, "boson", discarded, levels),
            SpectralDecomposition(weights, np.ascontiguousarray(vt.swapaxes(-1, -2)), "spin",
                                  discarded))


def schmidt_runs(
    states: Sequence[GroundState],
) -> Iterator[tuple[list[GroundState], SpectralDecomposition, SpectralDecomposition]]:
    """Each run of consecutive ``states`` whose amplitude grids pad to one shape and whose
    ``schmidt_bytes`` fit the solver's memory budget together (``solver.fitting_runs``),
    with its stacked (field, atoms) reduced states from one ``schmidt_stack``, formed as
    the run is taken."""
    for _, run in groupby(states, key=lambda gs: padded_shape(gs.params.n_atoms, gs.n_cutoff)):
        for part in fitting_runs(list(run), schmidt_bytes):
            yield part, *schmidt_stack(part)


def schmidt_decompose(gs: GroundState) -> tuple[SpectralDecomposition, SpectralDecomposition]:
    """(field, atoms) reduced states of one ground state: ``schmidt_stack`` on a stack of one."""
    field, atoms = schmidt_stack([gs])
    return field[0], atoms[0]
