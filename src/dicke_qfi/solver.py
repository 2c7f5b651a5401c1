"""Ground state of the parity-reduced Dicke Hamiltonian with cutoff control.

The finite-N ground state lives in the even n+m+j sector, so only that
block is diagonalized; this halves the matrix and avoids the near-degenerate
even/odd mixing a full-space eigensolver produces deep in the superradiant
regime.  In ascending index order the block is banded, with half-bandwidth
kd = ``model.band_width`` whatever the cutoff.  Every lam > 0 point is
solved by shifted inverse iteration on the band, or refused: one byte
budget, MEMORY_BUDGET, bounds every solve, and ``checked_bytes`` gives a
point's bytes at a cutoff by ``solve_bytes``, or past the budget a
ConvergenceError before anything of its round is allocated.
LAPACK ``dpbtrf`` factors H - sigma I, which succeeds exactly when sigma
lies below the lowest eigenvalue, and ``dpbtrs`` applies the inverse, in
O(dim kd^2) time and O(dim kd) memory.  Both routines come from scipy's
compiled LAPACK extension, ``scipy.linalg._flapack``, which ``_load_flapack``
loads from its file without running ``scipy``'s package init.  Each
successful factorization proves sigma < E0, and a solve returns only after
one has succeeded within 2 r + BRACKET_RTOL max(1, |E|) of the returned
Rayleigh quotient E, where r = ||H psi - E psi||; so E0 is bracketed,
E - delta < E0 <= E.  Its time is set by the number of factorizations:
about three per solve, and at most MAX_INVERSE_ITERATIONS steps.

Points are solved in stacks: consecutive points of one N, as ``stacks``
groups them.  ``model.even_band`` writes the banded blocks of a round end
to end into one band, each after kd zero rows, so one ``dpbtrs`` and one
matrix-vector product per iteration serve every point.  Each block keeps
its own shift, factored by its own ``dpbtrf`` into its columns of the
shared factor, its own stop and re-shift decisions, and its own failure.
The rule, ``_banded_lowest``, reads only each block's E, r and factor
outcome; the linear algebra is ``_Band``'s, and its operations
``factor_below``, ``step``, ``measure``, ``settled`` and ``isolate`` are
all that the rule calls.  The zero rows give
every block the same neighbourhood in any stack, so a point's results do
not depend on the stack it was solved in; ``solve`` is the stacked code on
a stack of one.  A round whose banded blocks would not fit the budget
together is solved in runs that do (``fitting_runs``), one band per run.

A ground state holds only its even-sector amplitudes, in ascending full
index; ``model`` alone knows their layout, and gives the solver each
round's band with its blocks written, each start vector, each tail
population and each leakage, the coupling out of the top Fock level.  Every solve is
cold: it starts from ``model.start_vectors``, which depend on the point
alone, so results do not depend on the order, the stack or the process in
which points are solved.  Cutoff convergence accepts a point at the first
cutoff where its Fock tail population and its leakage both drop below
tolerance, and otherwise solves it again at twice the cutoff, until the
budget refuses the cutoff; a stack is solved in rounds, each round solving
the points still open.  The first cutoff, ``initial_cutoff``, is chosen so
that nearly every point is accepted in one solve.  Every ground state
carries its tail population, its leakage, its residual ||H psi - E psi||
on the even block and its certified lower bound on the energy, all formed
by ``_record``, the one place a point's GroundState is built;
``converge_stack`` alone keeps a point's rejected solves, and attaches
them as its ``steps`` when the point leaves the stack.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
import numpy as np

from .errors import ConvergenceError, SolverError
from .model import (
    TAIL_START,
    ModelParams,
    band_width,
    even_band,
    even_size,
    leakage,
    padded_shape,
    start_vectors,
    tail_population,
)


def _load_flapack():
    """scipy's compiled LAPACK wrapper, ``scipy.linalg._flapack``, loaded from its file.

    ``scipy.linalg.lapack`` would run ``scipy.linalg``'s package init, whose
    array-API shim imports numpy.f2py, numpy.testing and numpy.ma: about
    0.25 s and 20 MiB in every process, for the two routines the solver
    calls.  ``scipy``'s own init, which imports ``tempfile`` and
    ``subprocess``, runs only if the extension fails to load without it:
    delvewheel-patched Windows wheels add their DLL directory there.  The
    module is not left in ``sys.modules``, so a later ``import scipy.linalg``
    loads its own copy.
    """
    package = importlib.util.find_spec("scipy")
    spec = package and importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(path, "linalg") for path in package.submodule_search_locations])
    if spec is None:
        import scipy
        raise ImportError(f"scipy {scipy.__version__} has no compiled LAPACK extension "
                          "scipy.linalg._flapack")
    try:
        module = importlib.util.module_from_spec(spec)
    except ImportError:
        import scipy  # noqa: F401
        module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython files a single-phase extension module under its bare name
    if sys.modules.get(spec.name) is module:
        del sys.modules[spec.name]
    return module


#: the solver's LAPACK routines, ``dpbtrf`` and ``dpbtrs``
lapack = _load_flapack()

#: bytes that one point's solve may hold, and that a round's run of banded
#: blocks, by ``solve_bytes``, or a run of batched Schmidt steps, by
#: ``states.schmidt_bytes``, may hold together.  Fixed rather than read from
#: the host, so that which points are refused does not depend on the host.
#: 2 GiB holds the first cutoff of every point up to N = 567 at lambda = 2
#: (2.0 GiB there) and fits a CI runner
MEMORY_BUDGET = 2**31

#: default tolerance for both the tail-population and leakage tests
DEFAULT_TOL = 1e-10

#: relative slack of the energy bracket: a banded solve returns once a
#: factorization has succeeded within 2 r + BRACKET_RTOL * max(1, |E|) of E
BRACKET_RTOL = 1e-12

#: inverse-iteration steps after which a banded solve is declared failed;
#: converged solves take 2 to 12
MAX_INVERSE_ITERATIONS = 100

#: band elements a stack may hold at its first cutoffs.  Each point is
#: charged its band, (kd + 1)(dim + kd), and STACK_ELEMENTS // 32 besides, so
#: a stack holds at most 32 points.  At 2^15 the band takes 0.25 MiB at the
#: first cutoffs.  On the gated sweeps 2^16 and 64 points were at most 4%
#: faster but held about 0.5 MiB more at the peak;
#: 2^14 cut 21 couplings of N = 20 into stacks of 2 to 4, about 10% slower
STACK_ELEMENTS = 2**15


@dataclass(frozen=True)
class CutoffStep:
    """One solve of a point's cutoff trajectory."""

    n_cutoff: int
    energy: float
    tail_population: float


@dataclass(frozen=True)
class GroundState:
    """Ground energy and real unit-norm state, its ``model.even_size`` even-sector amplitudes,
    and the certificate of its cutoff.

    ``tail_population`` and ``leakage`` are ``model``'s, the weight of the
    top Fock levels and the coupling out of the top one.  ``residual`` is
    ||H psi - E psi|| on the even block.  ``lower_bound`` is a shift sigma at
    which H - sigma I had a Cholesky factor, so sigma < E0 <= energy; at
    lam = 0 it is the exact energy.  ``steps`` are the point's earlier
    solves, each rejected, which ``converge_stack`` attaches, as to a
    SolverError: none at its first cutoff or at a fixed one.
    """

    energy: float
    vector: np.ndarray
    params: ModelParams
    n_cutoff: int
    tail_population: float
    leakage: float
    residual: float
    lower_bound: float
    steps: tuple[CutoffStep, ...] = ()

    @property
    def step(self) -> CutoffStep:
        """This solve as the step of the point's trajectory after ``steps``."""
        return CutoffStep(self.n_cutoff, self.energy, self.tail_population)


def _as_cutoff(value: int, name: str) -> int:
    """A cutoff as a Python int, from any integer, numpy's included; a float, whole or
    not, or a cutoff below 1 is a ValueError."""
    try:
        cutoff = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if cutoff < 1:
        raise ValueError(f"{name} must be >= 1")
    return cutoff


def solve_bytes(params: ModelParams, n_cutoff: int) -> int:
    """Estimated bytes of the point's solve at ``n_cutoff`` with its sweep row.

    With dim = ``even_size(N, n_cutoff)``, the solve holds about
    dim (kd + 22) floats: the band its block is written into, the band's
    factor, and the vectors of the iteration and the Schmidt step.  That
    was within 3% of the peak RSS, less the interpreter's 34 MiB, of single
    converged points from N = 101 to 400 at lambda = 1 and 2.  A lam = 0 point holds no
    block: it is charged its state vector and its zero-padded Schmidt grid.
    """
    n_atoms = params.n_atoms
    dim = even_size(n_atoms, n_cutoff)
    if params.lam == 0:
        return 8 * (dim + math.prod(padded_shape(n_atoms, n_cutoff)))
    return 8 * dim * (band_width(n_atoms) + 22)


def checked_bytes(params: ModelParams, n_cutoff: int) -> int:
    """The bytes of the point's solve at ``n_cutoff`` by ``solve_bytes``, within MEMORY_BUDGET;
    past it, the point is refused by the memory budget: ConvergenceError names N, the
    cutoff, the bytes and the budget."""
    held = solve_bytes(params, n_cutoff)
    if held > MEMORY_BUDGET:
        msg = (f"n_cutoff={n_cutoff} at N={params.n_atoms} needs {held} bytes, "
               f"past the memory budget of {MEMORY_BUDGET} bytes")
        raise ConvergenceError(msg, n_cutoff)
    return held


def fitting_runs(
    items: Sequence, held: Callable[..., int], budget: int | None = None,
    max_items: int | None = None,
) -> Iterator[list]:
    """``items`` in order, cut into runs whose ``held`` sizes sum to at most ``budget``,
    MEMORY_BUDGET when None, each of at most ``max_items`` items when that is given.

    A run ends before the item that would take it past the budget or the
    count, so an item past the budget alone is a run of its own.
    """
    budget = MEMORY_BUDGET if budget is None else budget
    run: list = []
    used = 0
    for item in items:
        cost = held(item)
        if run and (used + cost > budget or (max_items is not None and len(run) >= max_items)):
            yield run
            run, used = [], 0
        run.append(item)
        used += cost
    if run:
        yield run


def stacks(
    points: Sequence[ModelParams], n_start: int | None = None, max_points: int | None = None
) -> list[list[ModelParams]]:
    """``points`` in order, cut into the stacks that ``solve_stack`` and ``converge_stack`` take.

    A stack is a run of consecutive points of one N, at most ``max_points``
    of them, whose bands at the first cutoff (``n_start``, or each point's
    ``initial_cutoff``) fit STACK_ELEMENTS with each point's fixed charge,
    cut by ``fitting_runs``.
    """
    n_start = None if n_start is None else _as_cutoff(n_start, "n_start")

    def charge(params: ModelParams) -> int:
        kd = band_width(params.n_atoms)
        n_cutoff = initial_cutoff(params) if n_start is None else n_start
        return (kd + 1) * (even_size(params.n_atoms, n_cutoff) + kd) + STACK_ELEMENTS // 32

    return [stack for _, run in itertools.groupby(points, key=operator.attrgetter("n_atoms"))
            for stack in fitting_runs(list(run), charge, STACK_ELEMENTS, max_points)]


def ground_states(
    points: Sequence[ModelParams], cutoffs: Sequence[int]
) -> list[GroundState | SolverError]:
    """Lowest eigenpair of each point's even-parity block, a stack of one N, each at its cutoff.

    Each solve starts cold, from ``model.start_vectors``; at lam = 0 the
    state is the exact |0>|j,-j>.  Each point gets its GroundState by
    ``_record``, sign-fixed so its largest amplitude is positive, with its
    tail population and ``leakage``, or the SolverError it failed with at
    its cutoff, neither with steps.  No error of a point escapes: a
    MemoryError while its record is formed is its SolverError, and one in a
    run's band or iteration that of every point of the run not yet settled.
    ``checked_bytes`` refuses each point past the budget before anything of
    the round is allocated; the lam > 0 blocks are written and solved in
    ``fitting_runs``, one band per run.
    """
    cutoffs = [_as_cutoff(n_cutoff, "n_cutoff") for n_cutoff in cutoffs]
    if len(points) != len(cutoffs):
        raise ValueError("points and cutoffs must have one entry per point")
    if len({params.n_atoms for params in points}) > 1:
        raise ValueError("a stack holds points of one atom number")
    # every point's bytes are checked before anything of the round is allocated
    solved: list = [None] * len(points)
    held: list = [0] * len(points)
    for i, (params, n_cutoff) in enumerate(zip(points, cutoffs)):
        try:
            held[i] = checked_bytes(params, n_cutoff)
        except SolverError as exc:
            solved[i] = exc
    banded = [i for i, params in enumerate(points) if solved[i] is None and params.lam > 0]
    for run in fitting_runs(banded, held.__getitem__):
        outcomes = _banded_lowest([points[i] for i in run], [cutoffs[i] for i in run])
        for i, outcome in zip(run, outcomes):
            solved[i] = outcome
    return [outcome if isinstance(outcome, SolverError) else _record(params, n_cutoff, outcome)
            for params, n_cutoff, outcome in zip(points, cutoffs, solved)]


def _record(params: ModelParams, n_cutoff: int, solved: tuple | None) -> GroundState | SolverError:
    """The point's GroundState at ``n_cutoff``: the exact lam = 0 state when ``solved`` is None,
    else a banded solve's (energy, vector, residual, lower bound); a MemoryError while it is
    formed is the point's SolverError."""
    try:
        if solved is None:
            # the diagonal is lowest at |0>|j,-j>, even index 0
            vector = np.zeros(even_size(params.n_atoms, n_cutoff))
            vector[0] = 1.0
            energy = float(-params.omega0 * params.j)
            solved = (energy, vector, 0.0, energy)
        energy, vector, residual, lower_bound = solved
        return GroundState(energy, vector, params, n_cutoff,
                           tail_population(vector, params.n_atoms, n_cutoff),
                           leakage(vector, params, n_cutoff), residual, lower_bound)
    except MemoryError as exc:
        return _out_of_memory(exc, n_cutoff)


def _out_of_memory(exc: MemoryError, n_cutoff: int) -> SolverError:
    error = SolverError(f"out of memory at n_cutoff={n_cutoff}: {exc}", n_cutoff)
    error.__cause__ = exc
    return error


def _banded_lowest(points: Sequence[ModelParams], cutoffs: Sequence[int]) -> list:
    """Lowest eigenpairs of the banded blocks of points of one N: per block (energy, unit
    vector, its largest amplitude positive, residual, lower bound), or its SolverError.

    Shifted inverse iteration x = (H - sigma I)^-1 psi from each start, as
    ``model.start_vectors`` gives it.  Its cost is the number of Cholesky
    factorizations, each worth about five solves at these bandwidths.  A
    solve starts (omega + omega0)/8, about the zero-point energy the mean
    field misses, below the Rayleigh quotient U of the start, and
    steps down by that much, doubling, until a factorization exists.  Each
    step yields the Rayleigh quotient E and residual r of the iterate.  Some
    eigenvalue lies within r of E, so once the iterate is near the ground
    state E0 > E - 2r.  The shift moves up to E - 2r - slack/2 only when the
    last solve cut the residual by 20x or less: convergence is slow, or r is
    at its floor and the shift is still too far below E to certify.  A block
    settles once its residual has stopped halving, E has settled to within
    the slack, and its shift, a proven lower bound, lies within 2r + slack
    of E.  A residual that stops halving while E still moves is no floor:
    far from convergence the residual can grow for a step while E drops.
    Nor does a re-shift settle the iterate that asked for it, though it
    brackets that E: its residual was taken under the far shift, and the
    one solve under the near one still shrinks the low-lying error that the
    residual's floor hides.

    A MemoryError anywhere in the round, its ``_Band`` included, is the
    SolverError of every point not yet settled, at its cutoff.
    """
    count = len(points)
    outcomes: list = [None] * count
    try:
        band = _Band(points, cutoffs)
        # the blocks still iterating, and per block its shift and last step's E and r
        iterating = list(range(count))
        shift = [0.0] * count
        last_energy = [math.inf] * count
        last_residual = [math.inf] * count

        def factor_or_isolate(b: int, target: float, step: float) -> None:
            try:
                shift[b] = band.factor_below(b, target, step, cutoffs[b])
            except SolverError as exc:
                outcomes[b] = exc
                iterating.remove(b)
                band.isolate(b)

        rayleigh, _ = band.measure()
        for b, params in enumerate(points):
            step = (params.omega + params.omega0) / 8
            factor_or_isolate(b, rayleigh[b] - step, step)
        for _ in range(MAX_INVERSE_ITERATIONS):
            if not iterating:
                break
            energies, residuals = band.step()
            for b in tuple(iterating):
                energy, residual = energies[b], residuals[b]
                slack = BRACKET_RTOL * max(1.0, abs(energy))
                bracketed = energy - shift[b] <= 2 * residual + slack
                stalled = 2 * residual >= last_residual[b]
                if bracketed and stalled and abs(energy - last_energy[b]) <= slack:
                    outcomes[b] = (energy, band.settled(b), residual, shift[b])
                    iterating.remove(b)
                    continue
                if not bracketed and 20 * residual >= last_residual[b]:
                    # a failed factorization steps down by r + slack/4, which still
                    # brackets E when r is at its floor, well below the slack
                    factor_or_isolate(b, energy - 2 * residual - slack / 2, residual + slack / 4)
                last_energy[b], last_residual[b] = energy, residual
        for b in iterating:
            msg = (f"banded inverse iteration did not converge in {MAX_INVERSE_ITERATIONS} "
                   f"steps at n_cutoff={cutoffs[b]}")
            outcomes[b] = SolverError(msg, cutoffs[b])
    except MemoryError as exc:
        outcomes = [_out_of_memory(exc, n_cutoff) if outcome is None else outcome
                    for outcome, n_cutoff in zip(outcomes, cutoffs)]
    return outcomes


class _Band:
    """A round's band from one ``model.even_band`` call, its factor and its stacked iterate:
    the linear algebra of ``_banded_lowest``, which names a block by its index b.  Every
    per-block sum runs over a block and the kd zero rows after it, so it is the same sum
    in any stack; a settled block's rows go on being solved, unread.
    """

    def __init__(self, points: Sequence[ModelParams], cutoffs: Sequence[int]) -> None:
        self.matrix, first, self.blocks = even_band(points, cutoffs)
        total = self.matrix[0].size
        self.rows = [slice(row, row + d.size) for row, (d, _) in zip(first, self.blocks)]
        self.vector = np.zeros(total)
        for row, start in zip(first, start_vectors(points, cutoffs)):
            self.vector[row:row + start.size] = start
        self.factor = np.zeros((max(self.matrix[1]) + 1, total), order="F")
        self.factor[-1] = 1.0
        self.columns = [self.factor[:, rows] for rows in self.rows]
        self.bounds = np.array(first)
        # rows per block when a per-block value is spread over the band: its own
        # rows and the kd zero rows after them, the first block's leading ones too
        self.spread = np.diff([0, *first[1:], total])

    def measure(self) -> tuple[list[float], list[float]]:
        """Normalize each block of the iterate; per block its E and r, as lists."""
        vector, bounds, spread = self.vector, self.bounds, self.spread
        vector /= np.sqrt(np.add.reduceat(vector * vector, bounds)).repeat(spread)
        applied = _block_matvec(self.matrix, vector)
        energies = np.add.reduceat(vector * applied, bounds)
        # the residual H psi - E psi overwrites H psi, which is not read again
        applied -= energies.repeat(spread) * vector
        return energies.tolist(), np.sqrt(np.add.reduceat(applied * applied, bounds)).tolist()

    def step(self) -> tuple[list[float], list[float]]:
        """One ``dpbtrs`` of the whole iterate by the factor, then ``measure``."""
        # the solve overwrites the iterate, which is not read again
        self.vector, _ = lapack.dpbtrs(self.factor, self.vector, overwrite_b=1)
        return self.measure()

    def settled(self, b: int) -> np.ndarray:
        """A copy of block b's rows of the iterate, its largest amplitude positive."""
        psi = self.vector[self.rows[b]]
        return -psi if psi[np.abs(psi).argmax()] < 0 else psi.copy()

    def isolate(self, b: int) -> None:
        """Make block b's factor the identity and its rows a unit vector: every factor in the
        band stays valid and every iterate finite, so no 0 x inf reaches a neighbour."""
        self.columns[b][:] = 0.0
        self.columns[b][-1] = 1.0
        self.vector[self.rows[b]] = 0.0
        self.vector[self.rows[b].start] = 1.0

    def factor_below(self, b: int, shift: float, step: float, n_cutoff: int) -> float:
        """LAPACK ``dpbtrf`` of block b's H - shift I in its columns of the factor, stepping the
        shift down until a factor exists; the shift.

        The columns, Fortran-ordered (kd + 1, dim), are filled with H - shift I
        in upper band storage, row kd - d holding offset d and the last row the
        diagonal.  The block's couplings rewrite the rows of its offsets, a run
        of consecutive d, so only the rows below its smallest, which hold the
        last factorization's fill-in, are zeroed: none at N = 1 and 2.  A failed
        factorization means the shift was not below E0 (or rounding put it
        there); the next attempt lies ``step`` lower and the step doubles.  Once
        a shift below the Gershgorin bound of H, under which H - shift I is
        positive definite, has failed too, the factorization itself is broken
        and SolverError is raised.
        """
        (diagonal, upper), factor = self.blocks[b], self.columns[b]
        floor = None
        while True:
            # the rows of offsets past the block's largest start at zero and stay so: the
            # factor of a band matrix has its band, and dpbtrf only rescales their zeros
            if min(upper) > 1:
                factor[-min(upper):-1] = 0.0
            np.subtract(diagonal, shift, out=factor[-1])
            for d, coupling in upper.items():
                factor[-1 - d, d:] = coupling
            _, info = lapack.dpbtrf(factor, overwrite_ab=1)
            if info == 0:
                return shift
            if floor is None:
                # |couplings| times a vector of ones: each row's Gershgorin radius
                absolute = (np.zeros(diagonal.size), {d: np.abs(c) for d, c in upper.items()})
                floor = float(np.min(diagonal - _block_matvec(absolute, np.ones(diagonal.size))))
            if not shift >= floor:
                msg = f"banded Cholesky factorization failed at n_cutoff={n_cutoff} (info={info})"
                raise SolverError(msg, n_cutoff)
            shift -= step
            step *= 2


def _block_matvec(block: tuple, x: np.ndarray) -> np.ndarray:
    """H x: each row adds its diagonal term, then for each offset upward both couplings."""
    diagonal, upper = block
    y = diagonal * x
    for d, coupling in upper.items():
        y[:-d] += coupling * x[d:]
        y[d:] += coupling * x[:-d]
    return y


def initial_cutoff(params: ModelParams) -> int:
    """The first cutoff: ceil((nb + 10*sqrt(nb))/TAIL_START) + 20, nb = lam^2*N/omega^2.

    In mean field the field is a coherent state of amplitude
    lam*sqrt(N)*sin(theta)/omega, so nb bounds its boson number.  The Fock
    occupation is a peak of width ~sqrt(nb) at or below nb.  The top 10% of
    the levels, whose weight is the tail population, begin 10 widths past
    nb and about 19 levels further, past where the tail and the coupling out
    of the top level fall below 1e-10, so ``converge_stack`` accepts every
    point of the benchmark sweeps, and N = 300 at lambda = 2 (nb = 1200),
    at this cutoff, in one solve sized to the Fock range it occupies.  At
    nb = 0 it is 20.  A start that is too low costs one more solve, never a
    wrong answer.

    Where lam^2 or omega^2 leaves the float range, nb is formed from the
    ratio lam/omega instead; where nb itself, or nb/TAIL_START, does, the
    start is MEMORY_BUDGET // 8, past the budget at every N: its block has
    more than that many positions, each a float.
    """
    try:
        nb = params.lam**2 * params.n_atoms / params.omega**2
    except (OverflowError, ZeroDivisionError):
        nb = math.inf
    if not math.isfinite(nb):
        # a product or quotient of floats overflows to inf and underflows to 0, never raises
        ratio = params.lam / params.omega
        nb = ratio * ratio * params.n_atoms
    start = (nb + 10 * math.sqrt(nb)) / TAIL_START
    if not math.isfinite(start):
        return MEMORY_BUDGET // 8
    return math.ceil(start) + 20


def converge_stack(
    points: Sequence[ModelParams],
    tol: float = DEFAULT_TOL,
    n_start: int | None = None,
) -> list[GroundState | SolverError]:
    """Each point's ground state at the first cutoff its own certificate accepts, or its
    SolverError.

    A point solved at cutoff C is accepted once its tail_population < tol
    and its ``leakage`` l < tol * max(1, |E|).  Then E0 <= E for the
    untruncated H, and some exact eigenvalue lies within sqrt(r^2 + l^2) of
    E, r its residual on the block; that it is E0, and the state's error,
    need a bound on the gap above E0 as well (Kato-Temple).  At lam = 0, g = 0
    makes l = 0, and the exact state is accepted at its first cutoff.
    Otherwise the point is reopened, cold, at 2C.

    The stack is solved in rounds of ``ground_states``, the first at each
    point's first cutoff, ``n_start`` or its ``initial_cutoff``, each later
    one on the points still open.  A point leaves the stack when it is
    accepted or fails, with its own cutoff and its rejected solves as its
    steps; ``ground_states`` refuses any cutoff past MEMORY_BUDGET.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    n_start = None if n_start is None else _as_cutoff(n_start, "n_start")
    converged: list = [None] * len(points)
    # per open point: its index, cutoff and rejected steps
    open_points = [(i, initial_cutoff(params) if n_start is None else n_start, ())
                   for i, params in enumerate(points)]
    while open_points:
        solved = ground_states([points[i] for i, _, _ in open_points],
                               [n_cutoff for _, n_cutoff, _ in open_points])
        still_open = []
        for (i, _, steps), gs in zip(open_points, solved):
            if isinstance(gs, SolverError):
                gs.steps = steps
                converged[i] = gs
            elif gs.tail_population < tol and gs.leakage < tol * max(1.0, abs(gs.energy)):
                converged[i] = replace(gs, steps=steps) if steps else gs
            else:
                still_open.append((i, 2 * gs.n_cutoff, (*steps, gs.step)))
        open_points = still_open
    return converged


def solve(
    params: ModelParams, tol: float = DEFAULT_TOL, fock_cutoff: int | None = None
) -> GroundState:
    """``solve_stack`` of one point: its ground state at ``fock_cutoff``, or converged when None."""
    [outcome] = solve_stack([params], tol, fock_cutoff)
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome


def solve_stack(
    points: Sequence[ModelParams], tol: float = DEFAULT_TOL, fock_cutoff: int | None = None
) -> list[GroundState | SolverError]:
    """``solve`` for each point of a stack of one N: its GroundState or its SolverError."""
    if fock_cutoff is not None:
        return ground_states(points, [_as_cutoff(fock_cutoff, "fock_cutoff")] * len(points))
    return converge_stack(points, tol)
