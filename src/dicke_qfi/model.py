"""Parameters, basis and even-parity block of the single-mode Dicke model.

The Hamiltonian is

    H = omega * b'b  +  omega0 * Jz  +  (lam / sqrt(N)) * (b' + b)(J+ + J-)

acting on |n>|j,m> with Fock number n <= n_cutoff and collective spin
j = N/2.  It commutes with the parity exp[i*pi*(b'b + Jz + j)], and the
ground state lies in the even sector.  ``build_even_block`` gives that
block as its main diagonal and at most three nonzero upper diagonals,
never as a dense array.  The basis is boson-major,
idx(n, m) = n*(N+1) + (m+j), so a partial trace over either subsystem is
a contiguous block operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def idx(self, n: int, m: float) -> int:
        """Flat index of |n>|j,m>."""
        k = m + self.j
        ki = int(round(k))
        if abs(k - ki) > 1e-9:
            raise ValueError(f"m={m} is not on the ladder for j={self.j}")
        if not 0 <= n <= self.n_cutoff:
            raise ValueError(f"Fock number n={n} outside [0, {self.n_cutoff}]")
        if not 0 <= ki <= self.n_atoms:
            raise ValueError(f"projection m={m} outside [-j, +j]")
        return n * self.spin_dim + ki

    def nm(self, index: int) -> tuple[int, float]:
        """Inverse of idx: flat index -> (n, m)."""
        if not 0 <= index < self.dimension:
            raise ValueError(f"index {index} outside [0, {self.dimension})")
        n, k = divmod(index, self.spin_dim)
        return n, k - self.j


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
    """
    if indexer.n_atoms != params.n_atoms:
        raise ValueError("indexer and params disagree on n_atoms")
    spin_dim = indexer.spin_dim
    # position p holds whichever of the full indices 2p and 2p + 1 is even
    size = (indexer.dimension + 1) // 2
    first = 2 * np.arange(size)
    index = first + (first // spin_dim + first % spin_dim) % 2
    n, k = np.divmod(index, spin_dim)
    j = indexer.j
    m = k - j
    diagonal = params.omega * n + params.omega0 * m

    g = params.lam / math.sqrt(params.n_atoms)
    upper: dict[int, np.ndarray] = {}
    # ladder factors j(j+1) - m(m+1) of J+ and j(j+1) - m(m-1) of J-; the
    # coupling from position p lands at full index i + N + 1 + dk, whose
    # position fixes the offset, so no element is written twice
    for dk, ladder in ((1, j * (j + 1) - m * (m + 1)), (-1, j * (j + 1) - m * (m - 1))):
        src = np.flatnonzero((n < indexer.n_cutoff) & (k + dk >= 0) & (k + dk < spin_dim))
        amp = g * np.sqrt((n[src] + 1) * ladder[src])
        offsets = (index[src] + spin_dim + dk) // 2 - src
        for d in np.unique(offsets):
            at = offsets == d
            upper.setdefault(int(d), np.zeros(size - d))[src[at]] = amp[at]
    return diagonal, dict(sorted(upper.items()))


def parity_signs(indexer: BasisIndexer) -> np.ndarray:
    """Diagonal of the parity operator: (-1)^(n+m+j) at idx(n, m)."""
    flat = np.arange(indexer.dimension)
    exponent = flat // indexer.spin_dim + flat % indexer.spin_dim
    return np.where(exponent % 2 == 0, 1.0, -1.0)


def parity_block_indices(indexer: BasisIndexer) -> tuple[np.ndarray, np.ndarray]:
    """Partition of the basis into even and odd n+m+j sectors (ascending indices)."""
    signs = parity_signs(indexer)
    return np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
