"""Ground state of the parity-reduced Dicke Hamiltonian with cutoff control.

The finite-N ground state lives in the even n+m+j sector, so only that
block is diagonalized; this halves the matrix and avoids the near-degenerate
even/odd mixing a full-space eigensolver produces deep in the superradiant
regime.  The eigensolver is picked from the block size: blocks of dimension
up to SPARSE_MIN_DIM are solved by dense LAPACK ``eigh``, larger ones are
built as CSR and solved by implicitly restarted Lanczos (ARPACK ``eigsh``)
from a fixed start vector, in O(dim) memory.  Cutoff convergence doubles
n_cutoff until the Fock tail population and the energy shift across one
doubling both drop below tolerance.  Each solve after the first starts
Lanczos from the previous cutoff's ground state, zero-padded to the larger
Fock space; that start is nearly converged, so the warm-started solve takes
the Lanczos path from the smaller size WARM_SPARSE_MIN_DIM.  The warm start
stays inside one (N, lambda) point, so results do not depend on the order
or the process in which points are solved.  Every ground state carries its
residual ||H psi - E psi|| on the even block as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, SolverError
from .model import BasisIndexer, HermitianOperator, ModelParams, build_hamiltonian_block, parity_block_indices

#: default tolerance for both the tail-population and energy-shift tests
DEFAULT_TOL = 1e-10

#: largest Fock cutoff converge_cutoff will attempt
HARD_CAP = 2**14

#: even blocks above this dimension go to sparse Lanczos, the rest to dense
#: LAPACK; with one BLAS thread the two cost about the same at dim 400-500,
#: and below that ARPACK's fixed cost per call dominates
SPARSE_MIN_DIM = 512

#: the same threshold for a solve warm-started from the previous cutoff's
#: ground state at N > 2.  Timed on the doubled solve (one BLAS thread):
#: the warm start converges in 21-61 matrix-vector products, against
#: 90-180 cold, and ties dense ``eigh`` near dim 190 for N >= 5 and near
#: dim 260 for N = 3, 4 (dim 256, N = 6: 1.6 ms against 2.8 ms; dim 1397,
#: N = 20: 4.8 ms against 262 ms).  At N <= 2 it needs 90-140 products and
#: still loses at dim 277 (N = 1: 4.9 ms against 4.2 ms), so those blocks
#: keep SPARSE_MIN_DIM
WARM_SPARSE_MIN_DIM = SPARSE_MIN_DIM // 2


@dataclass(frozen=True)
class CutoffStep:
    """One solve of the cutoff-doubling trajectory."""

    n_cutoff: int
    energy: float
    tail_population: float


@dataclass(frozen=True)
class ConvergenceInfo:
    """Tail population of the final state and energy shift over the last doubling.

    ``residual`` is ||H psi - E psi|| of the unit-norm state on the even block.
    """

    tail_population: float
    energy_shift: float | None
    residual: float
    steps: tuple[CutoffStep, ...] = ()


@dataclass(frozen=True)
class GroundState:
    """Ground energy and unit-norm state vector on the full product basis."""

    energy: float
    vector: np.ndarray
    params: ModelParams
    n_cutoff: int
    convergence: ConvergenceInfo

    @property
    def indexer(self) -> BasisIndexer:
        return BasisIndexer(self.n_cutoff, self.params.n_atoms)


def tail_population(vector: np.ndarray, indexer: BasisIndexer) -> float:
    """Total probability in the top 10% of Fock levels."""
    start = math.ceil(0.9 * indexer.boson_dim)
    psi = np.asarray(vector).reshape(indexer.boson_dim, indexer.spin_dim)
    return float(np.sum(np.abs(psi[start:, :]) ** 2))


def ground_state(
    params: ModelParams, n_cutoff: int, previous: GroundState | None = None
) -> GroundState:
    """Lowest eigenpair of H restricted to the even-parity block.

    Blocks above SPARSE_MIN_DIM are solved by sparse Lanczos, smaller ones
    by dense ``eigh``.  ``previous``, a ground state of the same model at a
    lower cutoff, is the Lanczos start vector, and then blocks above
    WARM_SPARSE_MIN_DIM take the Lanczos path (for N > 2).  The block
    eigenvector is embedded back into the product basis and phase-fixed so
    the largest-magnitude amplitude is real positive.
    """
    if n_cutoff < 1:
        raise ValueError("n_cutoff must be >= 1")
    if previous is not None and (previous.params != params or previous.n_cutoff > n_cutoff):
        raise ValueError("previous must be a ground state of the same model at a lower cutoff")
    indexer = BasisIndexer(n_cutoff, params.n_atoms)
    even, _ = parity_block_indices(indexer)
    warm = previous is not None and params.n_atoms > 2
    if even.size > (WARM_SPARSE_MIN_DIM if warm else SPARSE_MIN_DIM):
        block = build_hamiltonian_block(params, indexer, even, sparse=True)
        start = _start_vector(indexer, even, previous)
        energy, amplitudes = _lanczos_lowest(block, start, n_cutoff)
    else:
        block = build_hamiltonian_block(params, indexer, even)
        try:
            energies, vecs = scipy.linalg.eigh(block, subset_by_index=[0, 0])
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise SolverError(f"eigh failed at n_cutoff={n_cutoff}: {exc}", n_cutoff) from exc
        energy, amplitudes = energies[0], vecs[:, 0]
    residual = float(np.linalg.norm(block @ amplitudes - energy * amplitudes))
    vector = np.zeros(indexer.dimension, dtype=complex)
    vector[even] = amplitudes
    vector /= np.linalg.norm(vector)
    pivot = int(np.argmax(np.abs(vector)))
    phase = vector[pivot] / abs(vector[pivot])
    vector = vector * phase.conjugate()
    tail = tail_population(vector, indexer)
    return GroundState(
        energy=float(energy),
        vector=vector,
        params=params,
        n_cutoff=n_cutoff,
        convergence=ConvergenceInfo(tail_population=tail, energy_shift=None, residual=residual),
    )


def _start_vector(
    indexer: BasisIndexer, even: np.ndarray, previous: GroundState | None
) -> np.ndarray:
    """Lanczos start on the even block: ``previous`` zero-padded, or (-1)^n.

    The previous amplitude grid fills the first Fock levels of the larger
    grid.  Without one the start is (-1)^n: conjugating H by
    D = diag((-1)^n) makes every off-diagonal element non-positive, so the
    ground state is D times a positive vector and overlaps this start
    vector strictly.
    """
    if previous is None:
        return np.where((even // indexer.spin_dim) % 2 == 0, 1.0, -1.0)
    grid = np.zeros((indexer.boson_dim, indexer.spin_dim))
    old = previous.indexer
    grid[: old.boson_dim] = previous.vector.real.reshape(old.boson_dim, old.spin_dim)
    return grid.ravel()[even]


def _lanczos_lowest(block, start: np.ndarray, n_cutoff: int) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a sparse block by ARPACK, deterministic for fixed input.

    A fixed seed covers the random restarts ARPACK draws after a Lanczos
    breakdown.
    """
    # imported here: scipy.sparse.linalg adds import time and memory to every
    # run of the CLI, and only large blocks need it
    import scipy.sparse.linalg

    try:
        energies, vecs = scipy.sparse.linalg.eigsh(block, k=1, which="SA", v0=start, rng=0)
    except scipy.sparse.linalg.ArpackError as exc:  # ArpackNoConvergence included
        msg = f"Lanczos eigensolver failed at n_cutoff={n_cutoff}: {exc}"
        raise SolverError(msg, n_cutoff) from exc
    return energies[0], vecs[:, 0]


def initial_cutoff(params: ModelParams) -> int:
    """Doubling start point: max(20, ceil(nb + 8*sqrt(nb)) + 10), nb = lam^2*N/omega^2.

    In mean field the field is a coherent state of amplitude
    lam*sqrt(N)*sin(theta)/omega, so nb bounds its boson number.  The Fock
    occupation is a peak of width ~sqrt(nb) at or below nb, and 8 widths plus
    10 levels reach past where it falls below 1e-14.  Starting there, and
    not at a multiple of nb, makes the second solve of the doubling loop (at
    twice this cutoff) the converged one, so each point solves a space sized
    to the Fock range it occupies.  A start that is too low costs one more
    doubling, never a wrong answer.
    """
    nb = params.lam**2 * params.n_atoms / params.omega**2
    return max(20, math.ceil(nb + 8 * math.sqrt(nb)) + 10)


def converge_cutoff(
    params: ModelParams,
    tol: float = DEFAULT_TOL,
    *,
    n_start: int | None = None,
    hard_cap: int | None = None,
) -> tuple[int, GroundState]:
    """Double the Fock cutoff until the ground state is converged.

    Convergence requires tail_population < tol and an energy shift below
    tol * max(1, |E|) across the last doubling.  A state whose tail is
    exactly zero (decoupled limit) is accepted at the starting cutoff.
    Raises ConvergenceError if the cutoff would exceed ``hard_cap``
    (module-level HARD_CAP when not given); a SolverError from any step
    carries the steps completed before it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if hard_cap is None:
        hard_cap = HARD_CAP
    n_cutoff = initial_cutoff(params) if n_start is None else int(n_start)
    if n_cutoff < 1:
        raise ValueError("starting cutoff must be >= 1")

    steps: list[CutoffStep] = []
    gs = None
    while True:
        try:
            gs = ground_state(params, n_cutoff, gs)
        except SolverError as exc:
            raise SolverError(str(exc), n_cutoff, steps) from exc
        tail = gs.convergence.tail_population
        if steps:
            shift = abs(gs.energy - steps[-1].energy)
            done = tail < tol and shift < tol * max(1.0, abs(gs.energy))
        else:  # decoupled limit: a zero tail is accepted at the starting cutoff
            shift, done = None, tail == 0.0
        steps.append(CutoffStep(n_cutoff, gs.energy, tail))
        if done:
            info = ConvergenceInfo(tail, shift, gs.convergence.residual, tuple(steps))
            return n_cutoff, GroundState(gs.energy, gs.vector, params, n_cutoff, info)
        if 2 * n_cutoff > hard_cap:
            msg = (f"Fock cutoff would exceed the hard cap {hard_cap} "
                   f"(lam={params.lam}, N={params.n_atoms}, tol={tol})")
            raise ConvergenceError(msg, n_cutoff, steps)
        n_cutoff *= 2


def solve(
    params: ModelParams, tol: float = DEFAULT_TOL, fock_cutoff: int | None = None
) -> GroundState:
    """Ground state at a fixed Fock cutoff, or by converge_cutoff when none is given."""
    if fock_cutoff is not None:
        return ground_state(params, fock_cutoff)
    return converge_cutoff(params, tol)[1]


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
