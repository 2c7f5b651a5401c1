"""Parameters, basis and even-parity block of the single-mode Dicke model.

The Hamiltonian is

    H = omega * b'b  +  omega0 * Jz  +  (lam / sqrt(N)) * (b' + b)(J+ + J-)

acting on |n>|j,m> with Fock number n <= n_cutoff and collective spin
j = N/2.  It commutes with the parity P = exp[i*pi*(b'b + Jz + j)], and the
ground state lies in the even sector, so its <P> is its squared norm.
The solver's band holds that block, its main diagonal and at most three
upper diagonals, never densely.  The basis is boson-major,
idx(n, m) = n*(N+1) + (m+j); even-sector position p holds full index 2p
or 2p + 1, so no index array is stored.  A basis is named by its two ints,
N and n_cutoff, and this module alone knows its even-sector layout: its
size (``even_size``), the offsets (``coupling_offsets``, ``band_width``),
the band of a round's blocks (``even_band``), the Fock tail and the
coupling out of its top level (``tail_population``, ``leakage``), every
solve's start (``start_vectors``) and the zero-padded grids of the
Schmidt step (``padded_shape``, ``amplitude_grids``).  One rule places the
sector on the (n, m+j) grid: ``amplitude_grids`` writes a vector there,
and its inverse ``_even`` reads the even positions of any array formed on
the grid.

The part that does not depend on omega, omega0 or lam, the couplings at
g = 1, has a closed form.  The basis at cutoff c is a prefix of any larger
one, so ``even_band`` forms these units, and the diagonal, which does not
depend on lam either, once per round at its largest cutoff; each block
copies prefixes of them.  No block is cached: only ``spin_ladder`` is
kept, for each of the last four N.  The odd sector is never built: the
block does not couple it, and the ground state has no weight there.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: the fraction of a cutoff's Fock levels 0 .. C below its tail: ``tail_population``
#: sums the top 10%, from level ceil(TAIL_START (C + 1)) on, and at least level C
TAIL_START = 0.9


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: boson frequency, atomic splitting, coupling, atom number."""

    omega: float
    omega0: float
    lam: float
    n_atoms: int

    def __post_init__(self) -> None:
        check_couplings(self.omega, self.omega0, self.lam)
        try:
            # any integer, numpy's included, is stored as a Python int; a float is no atom number
            object.__setattr__(self, "n_atoms", operator.index(self.n_atoms))
        except TypeError:
            raise ValueError(f"n_atoms must be an integer, not {self.n_atoms!r}") from None
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be a positive integer")

    @property
    def j(self) -> float:
        """Collective spin length j = N/2."""
        return self.n_atoms / 2

    @property
    def lambda_cr(self) -> float:
        """Critical coupling sqrt(omega0 * omega) / 2."""
        return math.sqrt(self.omega * self.omega0) / 2


def check_couplings(omega: float, omega0: float, lam: float = 0.0) -> None:
    """Raise ValueError unless omega > 0, omega0 > 0 and lam >= 0, all three finite."""
    if not all(math.isfinite(v) for v in (omega, omega0, lam)):
        raise ValueError("omega, omega0 and lam must be finite")
    if omega <= 0 or omega0 <= 0:
        raise ValueError("omega and omega0 must be positive")
    if lam < 0:
        raise ValueError("coupling lam must be non-negative")


def _even(n_atoms: int, grids: np.ndarray) -> np.ndarray:
    """The even-sector entries of a (rows, N+1) grid of (n, k), k = m + j, or of a stack
    of them, in ascending full index: the inverse of ``amplitude_grids``' write.

    The sector is n + k even: for even N every second full index, a view;
    for odd N the even k of even rows and the odd k of odd rows.
    """
    *stack, rows, columns = grids.shape
    if n_atoms % 2 == 0:
        return grids.reshape(*stack, rows * columns)[..., ::2]
    even = np.empty((*stack, rows, columns // 2))
    even[..., 0::2, :] = grids[..., 0::2, 0::2]
    even[..., 1::2, :] = grids[..., 1::2, 1::2]
    return even.reshape(*stack, -1)


def _units(n_atoms: int, n_cutoff: int) -> dict[int, np.ndarray]:
    """The couplings at g = 1 of N atoms' even block at ``n_cutoff``, by offset.

    Per coupling offset d, the units for positions 0 .. size - d - 1, zero
    where the ladder ends: sqrt((n+1)(k+1)(N-k)) for b'J+ and
    sqrt((n+1) k (N+1-k)) for b'J-, k = m + j, formed on the (n, k) grid and
    read off at the even positions.  For odd N the offset of a coupling
    depends on the parity of its row n, so each offset reads its even rows
    from one ladder and its odd rows from the other.
    """
    rung = np.arange(1.0, n_cutoff + 2)[:, None]
    k = np.arange(n_atoms + 1)
    ladders = []
    for coefficient in ((k + 1) * (n_atoms - k), k * (n_atoms + 1 - k)):
        grid = rung * coefficient
        ladders.append(_even(n_atoms, np.sqrt(grid, out=grid)))
    plus, minus = ladders
    half = (n_atoms + 1) // 2
    if n_atoms % 2 == 0:
        by_offset = {half: minus, half + 1: plus}
    else:
        plus_rows, minus_rows = (ladder.reshape(n_cutoff + 1, half) for ladder in ladders)
        middle = plus_rows.copy()
        middle[1::2] = minus_rows[1::2]
        minus_rows[1::2] = 0.0
        plus_rows[0::2] = 0.0
        by_offset = {half - 1: minus, half: middle.reshape(-1), half + 1: plus}
    size = even_size(n_atoms, n_cutoff)
    return {d: by_offset[d][: size - d] for d in coupling_offsets(n_atoms, n_cutoff)}


def capacity(n_cutoff: int) -> int:
    """The power of two at or above ``n_cutoff``: the cutoff that serves it.

    The basis at c is the first (c+1)(N+1) indices of any larger one, so a
    zero-padded amplitude grid built at this capacity holds the cutoff's:
    the states of one capacity share a padded shape, and the mean-field
    starts of one capacity are formed as one grid.
    """
    return 1 << (n_cutoff - 1).bit_length()


def even_size(n_atoms: int, n_cutoff: int) -> int:
    """The number of even positions of N atoms times Fock levels 0 .. n_cutoff.

    Of the (n_cutoff+1)(N+1) full indices the even sector holds every
    second one from index 0, so half of them rounded up.
    """
    return ((n_cutoff + 1) * (n_atoms + 1) + 1) // 2


def coupling_offsets(n_atoms: int, n_cutoff: int) -> tuple[int, ...]:
    """The ascending offsets at which N atoms' even block at ``n_cutoff`` has couplings.

    A coupling moves (n, m+j) to (n + 1, m+j +- 1), full index i to
    i + N + 1 +- 1: offset N/2 or N/2 + 1 for even N, (N-1)/2 to (N+3)/2 by
    the parity of i for odd N, but 1 alone at N = 1, and no (N+3)/2 at cutoff 1.
    """
    half = (n_atoms + 1) // 2
    if n_atoms == 1:
        return (1,)
    if n_atoms % 2 == 0:
        return half, half + 1
    return (half - 1, half) if n_cutoff == 1 else (half - 1, half, half + 1)


def band_width(n_atoms: int) -> int:
    """kd, the largest offset of N atoms' even block past cutoff 1: (N+1)//2 + 1, or 1 at N = 1."""
    return coupling_offsets(n_atoms, 2)[-1]


def _diagonal(n_atoms: int, n_cutoff: int, omega: float, omega0: float) -> np.ndarray:
    """The diagonal omega n + omega0 (k - j) of N atoms' even block at ``n_cutoff``."""
    n, k = np.arange(n_cutoff + 1.0)[:, None], np.arange(n_atoms + 1)
    return _even(n_atoms, omega * n + omega0 * (k - n_atoms / 2))


def even_band(
    points: Sequence[ModelParams], cutoffs: Sequence[int]
) -> tuple[tuple[np.ndarray, dict[int, np.ndarray]], list[int], list[tuple]]:
    """The even-parity blocks P H P of a round of points of one N, each at its cutoff, in
    one band: the band as (diagonal, upper), each block's first row, and each block as
    views of the band, its diagonal and its couplings by ascending offset.

    The band holds every offset of the round, kd the largest; each block
    follows kd zero rows, and kd zero rows end the band.  A block writes its
    own ``coupling_offsets`` and nothing else: H is real in this basis and
    never couples the odd sector.  The units and a diagonal per (omega,
    omega0) are formed once, at the round's largest cutoff, and each block
    copies their prefixes, its couplings times g = lam / sqrt(N): the same
    floating-point operations as a build from scratch.
    """
    if any(n_cutoff < 1 for n_cutoff in cutoffs):
        raise ValueError("n_cutoff must be >= 1")
    n_atoms, largest = points[0].n_atoms, max(cutoffs)
    offsets = sorted({d for n_cutoff in cutoffs for d in coupling_offsets(n_atoms, n_cutoff)})
    kd = offsets[-1]
    sizes = [even_size(n_atoms, n_cutoff) for n_cutoff in cutoffs]
    *rows, total = itertools.accumulate((size + kd for size in sizes), initial=kd)
    diagonal = np.zeros(total)
    upper = {d: np.zeros(total - d) for d in offsets}
    units = _units(n_atoms, largest)
    diagonals = {key: _diagonal(n_atoms, largest, *key)
                 for key in {(params.omega, params.omega0) for params in points}}
    blocks = []
    for params, n_cutoff, row, size in zip(points, cutoffs, rows, sizes):
        end = row + size
        diagonal[row:end] = diagonals[params.omega, params.omega0][:size]
        g = params.lam / math.sqrt(n_atoms)
        couplings = {d: upper[d][row:end - d] for d in coupling_offsets(n_atoms, n_cutoff)}
        for d, coupling in couplings.items():
            np.multiply(g, units[d][: size - d], out=coupling)
        blocks.append((diagonal[row:end], couplings))
    return (diagonal, upper), rows, blocks


def tail_population(vector: np.ndarray, n_atoms: int, n_cutoff: int) -> float:
    """Total probability in the top 10% of Fock levels, those from ceil(TAIL_START (n_cutoff+1))
    on, or in the top level alone below cutoff 9, where the top 10% hold no whole level."""
    first = min(math.ceil(TAIL_START * (n_cutoff + 1)), n_cutoff)
    tail = vector[even_size(n_atoms, first - 1):]
    return float(tail @ tail)


def leakage(vector: np.ndarray, params: ModelParams, n_cutoff: int) -> float:
    """l = g sqrt(C+1) ||(J+ + J-) psi_C||, the coupling out of the top Fock level C = n_cutoff.

    The untruncated H takes the state out of the cutoff space only through
    b' acting on level C, whose row psi_C holds the amplitudes at n = C.
    That part, sqrt(C+1) |C+1> times g (J+ + J-) psi_C, is orthogonal to the
    truncated residual H psi - E psi, so the state's residual on the whole
    Fock space is sqrt(r^2 + l^2).  (J+ + J-) moves k = m + j to k + 1 with
    sqrt((k+1)(N-k)) and to k - 1 with sqrt(k(N+1-k)).  The row's even
    positions hold, in ascending order, every k of the parity of C, so each
    move writes distinct entries, every second one, and no block unit is read:
    the coefficients are the slices of ``spin_ladder`` at that parity.
    At g = 0, lam = 0, it is 0.
    """
    n_atoms = params.n_atoms
    parity = n_cutoff % 2
    ladder = spin_ladder(n_atoms)
    top = vector[even_size(n_atoms, n_cutoff - 1):]
    # entry i of the image is its component at k = i - 1, so that k = -1 and N + 1 fit
    image = np.zeros(n_atoms + 3)
    np.multiply(ladder[parity + 1::2], top, out=image[parity + 2::2])
    image[parity:n_atoms + 1:2] += ladder[parity:n_atoms + 1:2] * top
    g = params.lam / math.sqrt(n_atoms)
    # the dot product that np.linalg.norm takes, without its dispatch
    return g * math.sqrt(n_cutoff + 1) * math.sqrt(image @ image)


@functools.lru_cache(maxsize=4)
def spin_ladder(n_atoms: int) -> np.ndarray:
    """sqrt(k(N+1-k)) for k = 0 .. N+1, read-only: the J+ factor from k - 1 to k, k = m + j, 0 at
    both ends; each product is an exact integer, so a slice has the bits of its own formula."""
    k = np.arange(n_atoms + 2.0)
    ladder = np.sqrt(k * (n_atoms + 1 - k))
    ladder.flags.writeable = False
    return ladder


def start_vectors(points: Sequence[ModelParams], cutoffs: Sequence[int]) -> list[np.ndarray]:
    """Each point's start on its even block, without the trailing zeros that fill it.

    The points are of one N.  The start is |0>|j,-j>, even index 0, at or
    below lambda_cr, and above it the point's ``_mean_field_starts`` row.
    """
    unit = np.ones(1)  # read, never written
    starts = [unit] * len(points)
    above = [i for i, params in enumerate(points) if params.lam > params.lambda_cr]
    if above:
        rows = _mean_field_starts([points[i] for i in above], [cutoffs[i] for i in above])
        for i, row in zip(above, rows):
            starts[i] = row
    return starts


def _mean_field_starts(points: Sequence[ModelParams], cutoffs: Sequence[int]) -> list[np.ndarray]:
    """The mean-field start of each point of one N above lambda_cr, on its even block.

    The even-parity restriction of the mean-field product state: a coherent
    field of amplitude alpha = -lam sqrt(N) sin(theta)/omega times a spin
    coherent state with cos(theta) = lambda_cr^2/lam^2, formed on the (n, k)
    grid and read off at the even positions.  Each factor is built in log space and scaled to a
    largest amplitude of 1 over the point's own levels, so no factorial
    overflows, the product peaks near 1, and a point's start does not
    depend on the others.  Conjugating H by D = diag((-1)^n) makes every
    off-diagonal element non-positive, so the ground state is D times a
    positive vector.  The start is D times a non-negative, nonzero vector
    (alpha < 0, and the spin amplitudes cos(theta/2)^(N-k) sin(theta/2)^k are
    non-negative), so it overlaps the ground state strictly.  The points of
    one capacity are formed together: their factors as the rows of one array
    each, and their products as the rows of one grid at the group's largest
    cutoff, each start its row's prefix.  A row is thus at most about twice
    its start, whatever cutoffs the run mixes.
    """
    n_atoms = points[0].n_atoms
    log_factorial = log_factorials(max(cutoffs))
    scalars = []
    for params in points:
        # lam > lambda_cr makes cos(theta) < 1, so every logarithm is finite
        cos_theta = (params.lambda_cr / params.lam) ** 2
        sin_theta = math.sqrt(1.0 - cos_theta**2)
        scalars.append((math.log(params.lam * math.sqrt(n_atoms) * sin_theta / params.omega),
                        0.5 * math.log((1.0 + cos_theta) / 2),
                        0.5 * math.log((1.0 - cos_theta) / 2)))
    scalars = np.array(scalars)
    log_alpha = scalars[:, 0:1]
    log_spin = log_spin_amplitudes(n_atoms, scalars[:, 1:2], scalars[:, 2:3])
    spin = np.exp(log_spin - np.maximum.reduce(log_spin, axis=1, keepdims=True))
    groups: dict[int, list[int]] = {}
    for i, n_cutoff in enumerate(cutoffs):
        groups.setdefault(capacity(n_cutoff), []).append(i)
    starts: list = [None] * len(points)
    for rows in groups.values():
        own = np.array([cutoffs[i] for i in rows])
        largest = int(own.max())
        # |alpha|^n / sqrt(n!) on each row's own levels n <= cutoff, scaled by their maximum
        n = np.arange(largest + 1)
        log_field = np.where(n <= own[:, None],
                             n * log_alpha[rows] - 0.5 * log_factorial[: largest + 1], -math.inf)
        field = np.exp(log_field - np.maximum.reduce(log_field, axis=1, keepdims=True))
        field[:, 1::2] *= -1.0
        grid = _even(n_atoms, field[:, :, None] * spin[rows][:, None, :])
        for i, row, n_cutoff in zip(rows, grid, own.tolist()):
            starts[i] = row[:even_size(n_atoms, n_cutoff)]
    return starts


def log_spin_amplitudes(n_atoms: int, log_cos: np.ndarray, log_sin: np.ndarray) -> np.ndarray:
    """log(sqrt(binom(N, k)) cos(theta/2)^(N-k) sin(theta/2)^k), k = 0 .. N on a last axis, from
    columns of log|cos(theta/2)| and log|sin(theta/2)|: the spin-coherent magnitudes on
    |j, m>, k = m + j, whole in log space, as sqrt(binom(N, k)) alone overflows from N ~ 2050."""
    log_factorial = log_factorials(n_atoms)
    k = np.arange(n_atoms + 1)
    return (0.5 * (log_factorial[n_atoms] - log_factorial - log_factorial[::-1])
            + (n_atoms - k) * log_cos + k * log_sin)


def padded_shape(n_atoms: int, n_cutoff: int) -> tuple[int, int]:
    """Rows and columns of a state's zero-padded amplitude grid, capacity+1 by N+1; the
    states of one padded shape are decomposed by one batched SVD."""
    return capacity(n_cutoff) + 1, n_atoms + 1


def amplitude_grids(n_atoms: int, vectors: list[np.ndarray], cutoffs: list[int]) -> np.ndarray:
    """psi[n, k], k = m + j, of each even-sector vector in the first n_cutoff+1 rows of its
    zero slab, the first cutoff's ``padded_shape``; odd-sector entries stay zero.

    Strided copies: for even N the even sector is every second full index,
    for odd N the even k of even rows and the odd k of odd rows.
    """
    slabs = np.zeros((len(vectors), *padded_shape(n_atoms, cutoffs[0])))
    for slab, vector, n_cutoff in zip(slabs, vectors, cutoffs):
        if n_atoms % 2 == 0:
            slab.reshape(-1)[: vector.size * 2 : 2] = vector
        else:
            half = vector.reshape(n_cutoff + 1, (n_atoms + 1) // 2)
            slab[0 : n_cutoff + 1 : 2, 0::2] = half[0::2]
            slab[1 : n_cutoff + 1 : 2, 1::2] = half[1::2]
    return slabs


def log_factorials(m: int) -> np.ndarray:
    """log(n!) for n = 0..m, as running sums of log(n).

    Every coherent-state expansion (the mean-field start, the Husimi
    kernels) takes its factorials from this one table, so none
    overflows and all of them round alike.
    """
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, m + 1)))))
