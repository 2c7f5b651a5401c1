"""Ground state of the parity-reduced Dicke Hamiltonian with cutoff control.

The finite-N ground state lives in the even n+m+j sector, so only that
block is diagonalized; this halves the matrix and avoids the near-degenerate
even/odd mixing a full-space eigensolver produces deep in the superradiant
regime.  In ascending index order the block is banded, with half-bandwidth
kd = (N+1)//2 + 1 (kd = 1 at N = 1) whatever the cutoff.  Blocks with
N <= BANDED_MAX_ATOMS are solved by shifted inverse iteration on the band:
LAPACK ``dpbtrf`` factors H - sigma I, which succeeds exactly when sigma
lies below the lowest eigenvalue, and ``dpbtrs`` applies the inverse, in
O(dim kd^2) time and O(dim kd) memory.  Each successful factorization proves
sigma < E0, and a solve returns only after one has succeeded within
2 r + BRACKET_RTOL max(1, |E|) of the returned Rayleigh quotient E, where
r = ||H psi - E psi||; so E0 is bracketed, E - delta < E0 <= E.  Its time
is set by the number of factorizations: about three for a cold solve and
one for a doubled one.  Blocks of larger N are solved by implicitly
restarted Lanczos (ARPACK ``eigsh``) in O(dim) memory.  Both paths apply
the block as ``build_even_block`` gives it, its diagonals by offset.  A
banded solve lays them out as a LAPACK band once, and each of its
factorizations copies that band and shifts its diagonal.

A ground state holds only its even-sector amplitudes, in ascending full
index; ``states.schmidt_decompose`` alone lays them on the product grid.
Cutoff convergence doubles n_cutoff until the Fock tail population and the
energy shift across one doubling both drop below tolerance.  The first
solve of a point starts from the even-parity part of the mean-field state,
a coherent field times a spin coherent state, which depends on the point
alone.  Each solve after the first starts from the previous cutoff's ground
state zero-padded, a prefix copy, whose energy bounds the new one from
above; a banded one also takes the previous lower bound as its shift.  The
warm start stays inside one (N, lambda) point, so results do
not depend on the order or the process in which points are solved.  Every
ground state carries its residual ||H psi - E psi|| on the even block, and
a banded one its certified lower bound on the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ConvergenceError, SolverError
from .model import (
    BasisIndexer,
    EvenBlock,
    ModelParams,
    build_even_block,
    even_sector,
    log_factorials,
)

#: largest Fock cutoff the solver attempts, its starting one included
HARD_CAP = 2**14

#: default tolerance for both the tail-population and energy-shift tests
DEFAULT_TOL = 1e-10

#: even blocks of up to this many atoms (kd <= 51) take the banded solver,
#: larger N Lanczos.  The banded path is the faster one at every N timed,
#: but its band holds dim * kd floats against Lanczos' O(dim), so past this N
#: it costs up to 4.5x the memory; README's table gives both paths' time and
#: peak memory at N = 200 and 400
BANDED_MAX_ATOMS = 100

#: relative slack of the energy bracket: a banded solve returns once a
#: factorization has succeeded within 2 r + BRACKET_RTOL * max(1, |E|) of E
BRACKET_RTOL = 1e-12

#: inverse-iteration steps after which a banded solve is declared failed;
#: converged solves take 2 to 12
MAX_INVERSE_ITERATIONS = 100


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
    ``lower_bound`` is a shift sigma at which H - sigma I had a Cholesky
    factor, so sigma < E0 <= energy; at lam = 0 it is the exact energy, and
    it is None for a Lanczos solve.
    """

    tail_population: float
    energy_shift: float | None
    residual: float
    steps: tuple[CutoffStep, ...] = ()
    lower_bound: float | None = None


@dataclass(frozen=True)
class GroundState:
    """Ground energy and real unit-norm state, its (dim + 1) // 2 even-sector amplitudes."""

    energy: float
    vector: np.ndarray
    params: ModelParams
    n_cutoff: int
    convergence: ConvergenceInfo

    @property
    def indexer(self) -> BasisIndexer:
        return BasisIndexer(self.n_cutoff, self.params.n_atoms)


def tail_population(vector: np.ndarray, indexer: BasisIndexer) -> float:
    """Total probability in the top 10% of Fock levels, from full index i at position (i+1)//2."""
    tail = vector[(math.ceil(0.9 * indexer.boson_dim) * indexer.spin_dim + 1) // 2:]
    return float(tail @ tail)


def ground_state(
    params: ModelParams, n_cutoff: int, previous: GroundState | None = None
) -> GroundState:
    """Lowest eigenpair of H restricted to the even-parity block.

    Up to BANDED_MAX_ATOMS atoms the block is solved by certified shifted
    inverse iteration on the band, above it by sparse Lanczos.
    ``previous``, a ground state of the same model at a lower cutoff, is the
    start vector and its energy an upper bound; without it the start is the
    mean-field state.  At lam = 0 the block is diagonal and the exact unit
    vector |0>|j,-j> is returned.  The block eigenvector is kept as the
    eigensolver returns it, unit-norm, only sign-fixed so the
    largest-magnitude amplitude is positive.  A MemoryError while the cutoff
    is built or solved is raised as SolverError with this cutoff.
    """
    if n_cutoff < 1:
        raise ValueError("n_cutoff must be >= 1")
    if previous is not None and (previous.params != params or previous.n_cutoff > n_cutoff):
        raise ValueError("previous must be a ground state of the same model at a lower cutoff")
    indexer = BasisIndexer(n_cutoff, params.n_atoms)
    try:
        start = _start_vector(params, indexer, previous)
        if params.lam == 0:
            # the diagonal is lowest at |0>|j,-j>, even index 0, which the start is
            energy = lower_bound = -params.omega0 * params.j
            residual = 0.0
            amplitudes = start
        elif params.n_atoms <= BANDED_MAX_ATOMS:
            energy, amplitudes, residual, lower_bound = _banded_lowest(
                build_even_block(params, indexer), start, params, previous, n_cutoff
            )
        else:
            energy, amplitudes, residual = _lanczos_lowest(
                build_even_block(params, indexer), start, n_cutoff
            )
            lower_bound = None
    except MemoryError as exc:
        raise SolverError(f"out of memory at n_cutoff={n_cutoff}: {exc}", n_cutoff) from exc
    vector = -amplitudes if amplitudes[np.argmax(np.abs(amplitudes))] < 0 else amplitudes
    tail = tail_population(vector, indexer)
    info = ConvergenceInfo(tail, None, residual, lower_bound=lower_bound)
    return GroundState(float(energy), vector, params, n_cutoff, info)


def _start_vector(
    params: ModelParams, indexer: BasisIndexer, previous: GroundState | None
) -> np.ndarray:
    """Start vector on the even block: ``previous`` zero-padded, or the mean-field state.

    The previous cutoff's even positions are the first of this one's, at the
    same full indices, so its amplitudes fill the first entries and the rest
    stay zero.  Without it the start is the even-parity restriction of
    the mean-field product state: |0>|j,-j> at or below lambda_cr; above it a
    coherent field of amplitude alpha = -lam sqrt(N) sin(theta)/omega times
    a spin coherent state with cos(theta) = lambda_cr^2/lam^2, formed only
    at the even positions.  Each factor is built in log space and scaled to a
    largest amplitude of 1, so no factorial overflows and the product peaks
    near 1.  Conjugating H by D = diag((-1)^n) makes every off-diagonal
    element non-positive, so the ground state is D times a positive vector.
    The start is D times a non-negative, nonzero vector (alpha < 0, and the
    spin amplitudes cos(theta/2)^(N-k) sin(theta/2)^k are non-negative), so
    it overlaps the ground state strictly.
    """
    if previous is not None or params.lam <= params.lambda_cr:
        # previous, or |0>|j,-j> at even index 0, zero-padded
        head = np.ones(1) if previous is None else previous.vector
        return np.concatenate((head, np.zeros((indexer.dimension + 1) // 2 - head.size)))
    # lam > lambda_cr makes cos(theta) < 1, so every logarithm below is finite
    cos_theta = (params.lambda_cr / params.lam) ** 2
    sin_theta = math.sqrt(1.0 - cos_theta**2)
    log_alpha = math.log(params.lam * math.sqrt(params.n_atoms) * sin_theta / params.omega)
    n_atoms = params.n_atoms
    log_factorial = log_factorials(max(indexer.n_cutoff, n_atoms))
    # |alpha|^n / sqrt(n!) and sqrt(C(N, k)) cos(theta/2)^(N-k) sin(theta/2)^k
    n = np.arange(indexer.boson_dim)
    log_field = n * log_alpha - 0.5 * log_factorial[: indexer.boson_dim]
    k = np.arange(indexer.spin_dim)
    log_spin = (0.5 * (log_factorial[n_atoms] - log_factorial[: n_atoms + 1]
                       - log_factorial[n_atoms::-1])
                + (n_atoms - k) * (0.5 * math.log((1.0 + cos_theta) / 2))
                + k * (0.5 * math.log((1.0 - cos_theta) / 2)))
    field = np.exp(log_field - log_field.max())
    field[1::2] *= -1.0
    spin = np.exp(log_spin - log_spin.max())
    sector = even_sector(indexer)
    return field[sector.n] * spin[sector.k]


def _banded_lowest(
    block: EvenBlock,
    start: np.ndarray,
    params: ModelParams,
    previous: GroundState | None,
    n_cutoff: int,
) -> tuple[float, np.ndarray, float, float]:
    """Lowest eigenpair of a banded block: (energy, unit vector, residual, lower bound).

    Shifted inverse iteration x = (H - sigma I)^-1 psi from ``start``.  Its
    cost is the number of Cholesky factorizations, each worth about five
    solves at these bandwidths.  A doubled solve factors first at the lower
    bound of ``previous``.  That bound lay below E0 at the smaller cutoff;
    the new E0 is lower still by the truncation error, so the factorization
    normally succeeds, and since the new E is at most the previous energy it
    normally certifies at once.  Only if it fails does the shift step down
    from 1e-3 |U| below the previous energy U.  A cold solve starts
    (omega + omega0)/8, about the zero-point energy the mean field misses,
    below the Rayleigh quotient U of the mean-field start, and steps down by
    that much, doubling, until a factorization exists.  Each step yields the
    Rayleigh quotient E and residual r of the iterate.  Some eigenvalue lies
    within r of E, so once the iterate is near the ground state E0 > E - 2r.
    The shift moves up to E - 2r - slack/2 only when the last solve cut the
    residual by 20x or less: convergence is slow, or r is at its floor and
    the shift is still too far below E to certify.  A solve returns once
    the residual has stopped halving, E has settled to within the slack,
    and the current shift, a proven lower bound, lies within 2r + slack of
    E.  A residual that stops halving while E still moves is no floor: far
    from convergence the residual can grow for a step while E drops.
    """
    band = _band(block)
    vector = start / _norm(start)
    if previous is not None:
        shift = previous.convergence.lower_bound
        factor, info = _shifted_cholesky(band, shift)
        if info != 0:
            upper = previous.energy
            step = 1e-3 * abs(upper)
            factor, shift = _factor_below(block, band, upper - step, step, n_cutoff)
    else:
        upper = float(vector @ _block_matvec(block, vector))
        step = (params.omega + params.omega0) / 8
        factor, shift = _factor_below(block, band, upper - step, step, n_cutoff)
    last_energy = last_residual = math.inf
    for _ in range(MAX_INVERSE_ITERATIONS):
        solved, _ = lapack.dpbtrs(factor, vector)
        vector = solved / _norm(solved)
        applied = _block_matvec(block, vector)
        energy = float(vector @ applied)
        # the residual H psi - E psi overwrites H psi, which is not read again
        applied -= energy * vector
        residual = _norm(applied)
        slack = BRACKET_RTOL * max(1.0, abs(energy))
        bracketed = energy - shift <= 2 * residual + slack
        stalled = 2 * residual >= last_residual
        if bracketed and stalled and abs(energy - last_energy) <= slack:
            return energy, vector, residual, shift
        if not bracketed and 20 * residual >= last_residual:
            # a failed factorization steps down by r + slack/4, which still
            # brackets E when r is at its floor, well below the slack
            target = energy - 2 * residual - slack / 2
            factor, shift = _factor_below(block, band, target, residual + slack / 4, n_cutoff)
        last_energy, last_residual = energy, residual
    msg = (f"banded inverse iteration did not converge in {MAX_INVERSE_ITERATIONS} steps "
           f"at n_cutoff={n_cutoff}")
    raise SolverError(msg, n_cutoff)


def _factor_below(
    block: EvenBlock, band: np.ndarray, shift: float, step: float, n_cutoff: int
) -> tuple[np.ndarray, float]:
    """Cholesky factor of H - shift I, stepping the shift down until one exists.

    ``band`` is ``block`` laid out by ``_band``; the block itself is read
    only for the Gershgorin bound.

    A failed factorization means the shift was not below E0 (or rounding
    put it there); the next attempt lies ``step`` lower and the step
    doubles.  Once a shift below the Gershgorin bound of H, under which
    H - shift I is positive definite, has failed too, the factorization
    itself is broken and SolverError is raised.
    """
    floor = None
    while True:
        factor, info = _shifted_cholesky(band, shift)
        if info == 0:
            return factor, shift
        if floor is None:
            diagonal, upper = block
            # |couplings| times a vector of ones: each row's Gershgorin radius
            absolute = (np.zeros(diagonal.size), {d: np.abs(c) for d, c in upper.items()})
            floor = float(np.min(diagonal - _block_matvec(absolute, np.ones(diagonal.size))))
        if not shift >= floor:
            msg = f"banded Cholesky factorization failed at n_cutoff={n_cutoff} (info={info})"
            raise SolverError(msg, n_cutoff)
        shift -= step
        step *= 2


def _band(block: EvenBlock) -> np.ndarray:
    """H in LAPACK upper band storage: row kd - d holds offset d, the diagonal is the last row."""
    diagonal, upper = block
    kd = max(upper)
    band = np.zeros((kd + 1, diagonal.size))
    band[kd] = diagonal
    for d, coupling in upper.items():
        band[kd - d, d:] = coupling
    return band


def _shifted_cholesky(band: np.ndarray, shift: float) -> tuple[np.ndarray, int]:
    """LAPACK ``dpbtrf`` of H - shift I, H as ``_band`` lays it out: the factor and info.

    info is 0 exactly on success.  The factorization overwrites a copy, so
    ``band`` serves every shift of the solve.
    """
    shifted = band.copy()
    shifted[-1] -= shift
    return lapack.dpbtrf(shifted, overwrite_ab=1)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array, the bits of ``np.linalg.norm`` without its dispatch."""
    return math.sqrt(x @ x)


def _block_matvec(block: EvenBlock, x: np.ndarray) -> np.ndarray:
    """H x: each row adds its diagonal term, then for each offset upward both couplings."""
    diagonal, upper = block
    y = diagonal * x
    for d, coupling in upper.items():
        y[:-d] += coupling * x[d:]
        y[d:] += coupling * x[:-d]
    return y


def _lanczos_lowest(
    block: EvenBlock, start: np.ndarray, n_cutoff: int
) -> tuple[float, np.ndarray, float]:
    """Lowest eigenpair of the block by ARPACK and its residual, deterministic for fixed input.

    A fixed seed covers the random restarts ARPACK draws after a Lanczos
    breakdown.  Each row of H x is summed from left to right: lower
    couplings, diagonal, upper couplings.  Another order changes the
    rounding, and through ARPACK the output bits.
    """
    # imported here: scipy.sparse.linalg adds import time and memory to every
    # run of the CLI, and only large blocks need it
    import scipy.sparse.linalg

    diagonal, upper = block
    # every call writes the same two buffers, and ARPACK copies each product
    # into its workspace: a fresh dim-sized array per call page-faults anew
    # whenever the allocator has handed the last one back to the system
    y = np.empty_like(diagonal)
    term = np.empty_like(diagonal)

    def matvec(x: np.ndarray) -> np.ndarray:
        x = x.ravel()
        y.fill(0.0)
        for d, coupling in reversed(upper.items()):
            y[d:] += np.multiply(coupling, x[:-d], out=term[d:])
        y[:] += np.multiply(diagonal, x, out=term)
        for d, coupling in upper.items():
            y[:-d] += np.multiply(coupling, x[d:], out=term[:-d])
        return y

    operator = scipy.sparse.linalg.LinearOperator((diagonal.size,) * 2, matvec=matvec, dtype=float)
    try:
        energies, vecs = scipy.sparse.linalg.eigsh(operator, k=1, which="SA", v0=start, rng=0)
    except scipy.sparse.linalg.ArpackError as exc:  # ArpackNoConvergence included
        msg = f"Lanczos eigensolver failed at n_cutoff={n_cutoff}: {exc}"
        raise SolverError(msg, n_cutoff) from exc
    vector = vecs[:, 0]
    return energies[0], vector, float(np.linalg.norm(matvec(vector) - energies[0] * vector))


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
) -> tuple[int, GroundState]:
    """Double the Fock cutoff until the ground state is converged.

    Convergence requires tail_population < tol and an energy shift below
    tol * max(1, |E|) across the last doubling.  At lam = 0 the state is
    exact and is accepted at the starting cutoff; at any lam > 0 a tail that
    underflows to zero is no proof, so at least one doubling is solved.
    Raises ConvergenceError if the cutoff would exceed HARD_CAP, the
    starting one included: a start above the cap fails with no steps and
    allocates nothing.  A SolverError from any step carries the steps
    completed before it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_cutoff = initial_cutoff(params) if n_start is None else int(n_start)
    if n_cutoff < 1:
        raise ValueError("starting cutoff must be >= 1")
    if n_cutoff > HARD_CAP:
        msg = (f"starting Fock cutoff {n_cutoff} exceeds the hard cap {HARD_CAP} "
               f"(lam={params.lam}, N={params.n_atoms})")
        raise ConvergenceError(msg, n_cutoff)

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
        else:  # decoupled limit: the exact state is accepted at the starting cutoff
            shift, done = None, params.lam == 0
        steps.append(CutoffStep(n_cutoff, gs.energy, tail))
        if done:
            info = ConvergenceInfo(tail, shift, gs.convergence.residual, tuple(steps),
                                   gs.convergence.lower_bound)
            return n_cutoff, GroundState(gs.energy, gs.vector, params, n_cutoff, info)
        if 2 * n_cutoff > HARD_CAP:
            msg = (f"Fock cutoff would exceed the hard cap {HARD_CAP} "
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

