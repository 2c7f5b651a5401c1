"""Parameters, basis and even-parity block of the single-mode Dicke model.

The Hamiltonian is

    H = omega * b'b  +  omega0 * Jz  +  (lam / sqrt(N)) * (b' + b)(J+ + J-)

acting on |n>|j,m> with Fock number n <= n_cutoff and collective spin
j = N/2.  It commutes with the parity P = exp[i*pi*(b'b + Jz + j)], and the
ground state lies in the even sector, so its <P> is its squared norm.
``build_even_block`` gives that block as its main diagonal and at most
three nonzero upper diagonals, never as a dense array.  The basis is
boson-major, idx(n, m) = n*(N+1) + (m+j); even-sector position p holds
full index 2p or 2p + 1, so no index array is stored.  A basis is named by
its two ints, N and n_cutoff, and this module alone knows its even-sector
layout: its size (``even_size``), (n, m+j) at each position
(``even_sector``) and where each amplitude lies on the (n_cutoff+1) x (N+1)
grid (``place_on_grid``).

The part that does not depend on omega, omega0 or lam, n and m+j at each
even position and the couplings at g = 1, has a closed form.  The basis at
cutoff c is a prefix of any larger one, so ``build_even_block`` and
``even_sector`` read views of one skeleton built at the power of two at or
above c, under a ``functools.lru_cache`` that keeps the last two.  The odd
sector is never built: the block does not couple it, and the ground state
has no weight there.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: a real symmetric block: its main diagonal and its upper diagonals keyed by offset
EvenBlock = tuple[np.ndarray, dict[int, np.ndarray]]


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


class EvenSector(NamedTuple):
    """The even n+m+j sector of a basis, position by position, as read-only views.

    ``n`` and ``k`` hold the Fock number and m + j at each position, in
    ascending full index, in the smallest unsigned type that holds them.
    """

    n: np.ndarray
    k: np.ndarray


@functools.lru_cache(maxsize=2)
def _skeleton(n_atoms: int, capacity: int) -> tuple[EvenSector, tuple]:
    """The read-only skeleton of N atoms' even block at cutoff ``capacity``.

    (n, k) at each even position, k = m + j, and per coupling offset d the
    units at g = 1 for positions 0 .. size - d - 1, zero where the ladder
    ends: sqrt((n+1)(k+1)(N-k)) for b'J+ and sqrt((n+1) k (N+1-k)) for b'J-.
    Even N place them at offsets N/2 + 1 and N/2, odd N by row parity.  An
    offset without a coupling is left out: at N = 1 offsets 0 and 2, for
    odd N at capacity 1 offset (N+3)/2.  Every other offset has one in the
    first rows, so in every prefix a larger capacity serves.
    """
    spin_dim = n_atoms + 1
    size = even_size(n_atoms, capacity)
    half = spin_dim // 2
    if n_atoms % 2 == 0:
        n, k = np.divmod(2 * np.arange(size), spin_dim)
    else:
        n, k = np.divmod(np.arange(size), half)
        k = 2 * k + n % 2
    rung = n + 1.0
    plus = np.sqrt(rung * ((k + 1) * (n_atoms - k)))
    minus = np.sqrt(rung * (k * (spin_dim - k)))
    if n_atoms % 2 == 0:
        by_offset = {half: minus, half + 1: plus}
    else:
        even_row = n % 2 == 0
        by_offset = {half - 1: np.where(even_row, minus, 0.0),
                     half: np.where(even_row, plus, minus),
                     half + 1: np.where(even_row, 0.0, plus)}
    sector = EvenSector(n.astype(np.min_scalar_type(capacity)),
                        k.astype(np.min_scalar_type(n_atoms)))
    prefixes = ((d, unit[: size - d]) for d, unit in by_offset.items())
    units = tuple((d, unit) for d, unit in prefixes if unit.any())
    for array in (*sector, *(unit for _, unit in units)):
        array.flags.writeable = False
    return sector, units


def capacity(n_cutoff: int) -> int:
    """The power of two at or above ``n_cutoff``: the cutoff that serves it.

    The basis at c is the first (c+1)(N+1) indices of any larger one, so a
    skeleton, or a zero-padded amplitude grid, built at this capacity holds
    the cutoff's, and a doubling pair (c, 2c) reads two capacities.
    """
    return 1 << (n_cutoff - 1).bit_length()


def even_size(n_atoms: int, n_cutoff: int) -> int:
    """The number of even positions of N atoms times Fock levels 0 .. n_cutoff.

    Of the (n_cutoff+1)(N+1) full indices the even sector holds every
    second one from index 0, so half of them rounded up.
    """
    return ((n_cutoff + 1) * (n_atoms + 1) + 1) // 2


def _cached(n_atoms: int, n_cutoff: int) -> tuple[EvenSector, tuple, int]:
    """The skeleton that serves the basis, built at its cutoff's capacity, and the
    number of the basis' even positions."""
    if n_cutoff < 1:
        raise ValueError("n_cutoff must be >= 1")
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    sector, units = _skeleton(n_atoms, capacity(n_cutoff))
    return sector, units, even_size(n_atoms, n_cutoff)


def build_even_block(params: ModelParams, n_cutoff: int) -> EvenBlock:
    """The even-parity block P H P at ``n_cutoff``: its main and nonzero upper diagonals.

    All matrix elements of H are real in this basis.  ``upper[d][p]`` is
    the element at (p, p + d) of the block in ascending index order; the
    offsets are ascending, at most three of them.  The block never couples
    the odd sector, so no element is lost by the restriction.

    Full index i of the even sector sits at block position i // 2.  A
    coupling moves (n, m+j) to (n + 1, m+j +- 1), i to i + N + 1 +- 1, so
    its offset is N/2 or N/2 + 1 for even N and (N-1)/2 to (N+3)/2 for odd
    N, set by the parity of i; at N = 1 every coupling has offset 1.  n,
    m + j and the unit couplings are prefix views of the cached skeleton;
    no coupling from level n_cutoff lands inside the block.  The diagonal
    omega n + omega0 m and the couplings g * unit, g = lam / sqrt(N), are
    fresh arrays, the same floating-point operations as a build from scratch.
    """
    (n, k), units, size = _cached(params.n_atoms, n_cutoff)
    # float(): an integer omega times the small unsigned n would wrap around
    diagonal = float(params.omega) * n[:size] + params.omega0 * (k[:size] - params.j)
    g = params.lam / math.sqrt(params.n_atoms)
    return diagonal, {d: g * unit[: size - d] for d, unit in units}


def even_sector(n_atoms: int, n_cutoff: int) -> EvenSector:
    """The even n+m+j sector of N atoms at ``n_cutoff``: (n, k), read-only views."""
    (n, k), _, size = _cached(n_atoms, n_cutoff)
    return EvenSector(n[:size], k[:size])


def place_on_grid(grid: np.ndarray, vector: np.ndarray, n_atoms: int, n_cutoff: int) -> None:
    """Write the even-sector amplitudes ``vector`` into ``grid`` as psi[n, k], k = m + j.

    ``grid`` is a C-contiguous array of N+1 columns and more than n_cutoff
    rows; its odd-sector entries are not written.  Strided copies: for even
    N the even sector is every second full index, for odd N the even k of
    even rows and the odd k of odd rows.
    """
    if n_atoms % 2 == 0:
        grid.reshape(-1)[: vector.size * 2 : 2] = vector
    else:
        half = vector.reshape(n_cutoff + 1, (n_atoms + 1) // 2)
        grid[0 : n_cutoff + 1 : 2, 0::2] = half[0::2]
        grid[1 : n_cutoff + 1 : 2, 1::2] = half[1::2]


def log_factorials(m: int) -> np.ndarray:
    """log(n!) for n = 0..m, as running sums of log(n).

    Every coherent-state expansion (the solver's mean-field start, the
    Husimi kernels) takes its factorials from this one table, so none
    overflows and all of them round alike.
    """
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, m + 1)))))
