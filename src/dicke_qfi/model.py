"""Parameters, basis and even-parity block of the single-mode Dicke model.

The Hamiltonian is

    H = omega * b'b  +  omega0 * Jz  +  (lam / sqrt(N)) * (b' + b)(J+ + J-)

acting on |n>|j,m> with Fock number n <= n_cutoff and collective spin
j = N/2.  It commutes with the parity P = exp[i*pi*(b'b + Jz + j)], and the
ground state lies in the even sector, so its <P> is its squared norm.
``build_even_block`` gives that block as its main diagonal and at most
three nonzero upper diagonals, never as a dense array.  The basis is
boson-major, idx(n, m) = n*(N+1) + (m+j), so a partial trace over either
subsystem is a contiguous block operation.

Everything that does not depend on omega, omega0 or lam is built once
per atom number N: the even index set, n and m+j at each even position,
and the couplings at g = 1 for each offset.  The odd sector is never
built: the block does not couple it, and the ground state has no weight
there.  The basis at cutoff c is the first (c+1)(N+1) indices of any
larger one, so one skeleton, built at the largest cutoff asked for so far,
serves every smaller cutoff of that N as prefix views; ``build_even_block``
and ``even_sector`` read it.  A request above it rebuilds it at
max(c, min(2 * capacity, HARD_CAP)), so it grows geometrically, a doubling
sweep builds it a handful of times, and it never exceeds twice the largest
request, nor the hard cap unless a request does.  Its arrays are
read-only, indices int32 and n and m+j small unsigned integers, so it
costs about 24 bytes per even position: 5.2 MiB at N = 400 and
n_cutoff = 1140, two thirds of it the float64 couplings.
Only the skeleton of the last atom number asked for stays cached: the CLI
walks N outer and lambda inner, so each process, a ``--workers`` pool's
included, asks for one N's cutoffs together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: a real symmetric block: its main diagonal and its upper diagonals keyed by offset
EvenBlock = tuple[np.ndarray, dict[int, np.ndarray]]

#: largest Fock cutoff the solver attempts, its starting one included; a
#: skeleton grows to at most this unless a single request is larger
HARD_CAP = 2**14


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: boson frequency, atomic splitting, coupling, atom number."""

    omega: float
    omega0: float
    lam: float
    n_atoms: int

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.omega, self.omega0, self.lam)):
            raise ValueError("omega, omega0 and lam must be finite")
        if self.omega <= 0 or self.omega0 <= 0:
            raise ValueError("omega and omega0 must be positive")
        if self.lam < 0:
            raise ValueError("coupling lam must be non-negative")
        if int(self.n_atoms) != self.n_atoms or self.n_atoms < 1:
            raise ValueError("n_atoms must be a positive integer")

    @property
    def j(self) -> float:
        """Collective spin length j = N/2."""
        return self.n_atoms / 2

    @property
    def lambda_cr(self) -> float:
        """Critical coupling sqrt(omega0 * omega) / 2."""
        return math.sqrt(self.omega * self.omega0) / 2


@dataclass(frozen=True)
class BasisIndexer:
    """Boson-major indexing of the truncated product basis {|n>|j,m>}.

    idx(n, m) = n*(N+1) + (m+j) with n in [0, n_cutoff] and m+j in [0, N];
    half-integer m for odd N is handled through the integer offset m+j.
    """

    n_cutoff: int
    n_atoms: int

    def __post_init__(self) -> None:
        if self.n_cutoff < 1:
            raise ValueError("n_cutoff must be >= 1")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")

    @property
    def j(self) -> float:
        return self.n_atoms / 2

    @property
    def spin_dim(self) -> int:
        return self.n_atoms + 1

    @property
    def boson_dim(self) -> int:
        return self.n_cutoff + 1

    @property
    def dimension(self) -> int:
        return self.boson_dim * self.spin_dim


class EvenSector(NamedTuple):
    """The even n+m+j sector of a basis, position by position, as read-only views.

    ``index`` holds the full indices in ascending order, int32 (int64 past
    2^31); ``n`` and ``k`` the Fock number and m + j at each, in the
    smallest unsigned type that holds them.
    """

    index: np.ndarray
    n: np.ndarray
    k: np.ndarray


class _Skeleton(NamedTuple):
    """The parameter-free part of one basis: its even sector and the block's unit pieces.

    ``units`` pairs each coupling offset with sqrt((n+1) * ladder), the
    coupling at g = 1.  n and k are typed at the cutoff the skeleton was
    built at.
    """

    sector: EvenSector
    units: tuple[tuple[int, np.ndarray], ...]


#: the last atom number asked for, alone: the cutoff its skeleton was built
#: at, the skeleton, and its prefix views handed out so far, by cutoff
_skeletons: dict[int, tuple[int, _Skeleton, dict[int, _Skeleton]]] = {}


def _skeleton(indexer: BasisIndexer) -> _Skeleton:
    """The skeleton of ``indexer``'s basis: a prefix view of its atom number's skeleton.

    Another atom number, or a cutoff above the cached skeleton's, replaces
    it; a larger cutoff of the same N builds at max(n_cutoff,
    min(2 * capacity, HARD_CAP)).  The views of the old skeleton are dropped
    with it, so that it is freed once no caller holds them.
    """
    n_atoms, n_cutoff = indexer.n_atoms, indexer.n_cutoff
    entry = _skeletons.get(n_atoms)
    if entry is None or entry[0] < n_cutoff:
        capacity = n_cutoff if entry is None else max(n_cutoff, min(2 * entry[0], HARD_CAP))
        # the old skeleton goes first, so that the cache never holds two
        del entry
        _skeletons.clear()
        entry = _skeletons[n_atoms] = (
            capacity, _build_skeleton(BasisIndexer(capacity, n_atoms)), {})
    _, base, views = entry
    view = views.get(n_cutoff)
    if view is None:
        view = views[n_cutoff] = _prefix(base, indexer)
    return view


def _prefix(base: _Skeleton, indexer: BasisIndexer) -> _Skeleton:
    """``indexer``'s skeleton as views of the first entries of a larger one of the same N.

    The even positions of the smaller basis are the first (dim + 1) // 2 of
    the larger, at the same full indices.  A coupling preserves parity, so
    one from Fock level n_cutoff lands at an even index past dim, outside
    the first size - d entries of its offset d; an offset left without a
    nonzero unit is dropped, as a build from scratch never makes it.
    """
    dim = indexer.dimension
    size = (dim + 1) // 2
    units = tuple((d, unit[: size - d]) for d, unit in base.units
                  if d < size and unit[: size - d].any())
    return _Skeleton(EvenSector(*(array[:size] for array in base.sector)), units)


def _build_skeleton(indexer: BasisIndexer) -> _Skeleton:
    """Build the read-only skeleton of ``indexer``'s basis; see ``build_even_block``."""
    spin_dim = indexer.spin_dim
    # position p holds whichever of the full indices 2p and 2p + 1 is even
    size = (indexer.dimension + 1) // 2
    first = 2 * np.arange(size)
    index = first + (first // spin_dim + first % spin_dim) % 2
    n, k = np.divmod(index, spin_dim)
    j = indexer.j
    m = k - j

    units: dict[int, np.ndarray] = {}
    # ladder factors j(j+1) - m(m+1) of J+ and j(j+1) - m(m-1) of J-; the
    # coupling from position p lands at full index i + N + 1 + dk, whose
    # position fixes the offset, so no element is written twice
    for dk, ladder in ((1, j * (j + 1) - m * (m + 1)), (-1, j * (j + 1) - m * (m - 1))):
        src = np.flatnonzero((n < indexer.n_cutoff) & (k + dk >= 0) & (k + dk < spin_dim))
        unit = np.sqrt((n[src] + 1) * ladder[src])
        offsets = (index[src] + spin_dim + dk) // 2 - src
        for d in np.unique(offsets):
            at = offsets == d
            units.setdefault(int(d), np.zeros(size - d))[src[at]] = unit[at]

    index_type = np.int32 if indexer.dimension <= np.iinfo(np.int32).max else np.int64
    sector = EvenSector(
        index.astype(index_type),
        n.astype(np.min_scalar_type(indexer.n_cutoff)),
        k.astype(np.min_scalar_type(indexer.n_atoms)),
    )
    for array in (*sector, *units.values()):
        array.flags.writeable = False
    return _Skeleton(sector, tuple(sorted(units.items())))


def build_even_block(params: ModelParams, indexer: BasisIndexer) -> EvenBlock:
    """The even-parity block P H P: its main diagonal and its nonzero upper diagonals.

    All matrix elements of H are real in this basis.  ``upper[d][p]`` is
    the element at (p, p + d) of the block in ascending index order; the
    offsets are ascending, at most three of them.  The block never couples
    the odd sector, so no element is lost by the restriction.

    Full index i of the even sector sits at block position i // 2, since
    exactly one of 2p and 2p + 1 has even n + m + j.  A coupling moves
    (n, m+j) to (n + 1, m+j +- 1), i to i + N + 1 +- 1, so its offset is
    N/2 or N/2 + 1 for even N and (N-1)/2 to (N+3)/2 for odd N, set by the
    parity of i; at N = 1 every coupling has offset 1.

    The lambda-free part, n, m and sqrt((n+1) * ladder) per offset, comes
    from the skeleton cache as views; the diagonal omega n + omega0 m and the
    couplings g * unit with g = lam / sqrt(N) are fresh arrays, the same
    floating-point operations as a build from scratch.
    """
    if indexer.n_atoms != params.n_atoms:
        raise ValueError("indexer and params disagree on n_atoms")
    skeleton = _skeleton(indexer)
    sector = skeleton.sector
    # float(): an integer omega times the small unsigned n would wrap around
    diagonal = float(params.omega) * sector.n + params.omega0 * (sector.k - indexer.j)
    g = params.lam / math.sqrt(params.n_atoms)
    return diagonal, {d: g * unit for d, unit in skeleton.units}


def even_sector(indexer: BasisIndexer) -> EvenSector:
    """The even n+m+j sector of ``indexer``'s basis: (index, n, k), read-only views."""
    return _skeleton(indexer).sector


def log_factorials(m: int) -> np.ndarray:
    """log(n!) for n = 0..m, as running sums of log(n).

    Every coherent-state expansion (the solver's mean-field start, the
    Husimi kernels) takes its factorials from this one table, so none
    overflows and all of them round alike.
    """
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, m + 1)))))
