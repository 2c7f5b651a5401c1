"""Operators of the single-mode Dicke model on a truncated product basis.

The Hamiltonian is

    H = omega * b'b  +  omega0 * Jz  +  (lam / sqrt(N)) * (b' + b)(J+ + J-)

acting on |n>|j,m> with Fock number n <= n_cutoff and collective spin
j = N/2.  Operators are dense matrices, except the even-parity block the
ground-state solver diagonalizes, which is built as a symmetric band
(``build_hamiltonian_band``) or as a CSR matrix (``build_hamiltonian_block``)
and never as a dense array.  The basis is boson-major,
idx(n, m) = n*(N+1) + (m+j), so a partial trace over either subsystem is
a contiguous block operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

Space = Literal["product", "boson", "spin"]

#: max-norm tolerance used when validating Hermiticity of constructed matrices
HERMITICITY_TOL = 1e-12


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


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix tagged with the basis it acts on."""

    matrix: np.ndarray
    space: Space
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        dev = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dim", mat.shape[0])


class SpinOperators(NamedTuple):
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray


def build_boson_ops(n_cutoff: int) -> tuple[np.ndarray, HermitianOperator]:
    """Annihilation operator b and number operator b'b on the truncated Fock space.

    <n-1|b|n> = sqrt(n); the commutator [b, b'] equals the identity on all
    rows/columns except the top truncated level.
    """
    if n_cutoff < 1:
        raise ValueError("n_cutoff must be >= 1")
    dim = n_cutoff + 1
    annihilate = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    annihilate[ns - 1, ns] = np.sqrt(ns)
    number = HermitianOperator(np.diag(np.arange(dim, dtype=float)).astype(complex), "boson")
    return annihilate, number


def build_spin_ops(n_atoms: int) -> SpinOperators:
    """Collective spin matrices for j = N/2 in the |j,m> basis (m ascending).

    J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>, Jx = (J+ + J-)/2,
    Jy = (J+ - J-)/(2i), Jz = diag(-j..+j).
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    j = n_atoms / 2
    dim = n_atoms + 1
    m = np.arange(dim) - j
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(
        j * (j + 1) - m[:-1] * (m[:-1] + 1)
    )
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    jz = np.diag(m).astype(complex)
    return SpinOperators(jx, jy, jz, jplus, jminus)


def build_hamiltonian_block(params: ModelParams, indexer: BasisIndexer, indices: np.ndarray):
    """Restriction of the Hamiltonian to a set of basis indices, as a real CSR matrix.

    All matrix elements of H are real in this basis, so the block is a
    float64 ``scipy.sparse.csr_array``.  Couplings leading outside the index
    set are dropped, which is the projector restriction P H P; for a
    parity-closed index set no coupling is lost.
    """
    # imported here: scipy.sparse adds import time and memory to every run of
    # the CLI, and only blocks too wide for the banded solver need it
    import scipy.sparse

    size = np.asarray(indices).size
    rows, cols, values = _block_triplets(params, indexer, indices)
    return scipy.sparse.csr_array((values, (rows, cols)), shape=(size, size))


def build_hamiltonian_band(
    params: ModelParams, indexer: BasisIndexer, indices: np.ndarray
) -> np.ndarray:
    """P H P in LAPACK upper symmetric band storage, shape (kd + 1, len(indices)).

    ``band[kd + i - j, j] = H[i, j]`` for ``max(0, j - kd) <= i <= j``, where
    kd is the largest |i - j| of a coupling in the order of ``indices``.  The
    elements are the same triplets ``build_hamiltonian_block`` assembles.
    """
    rows, cols, values = _block_triplets(params, indexer, indices)
    upper = rows <= cols
    rows, cols, values = rows[upper], cols[upper], values[upper]
    kd = int(np.max(cols - rows))
    band = np.zeros((kd + 1, np.asarray(indices).size))
    band[kd + rows - cols, cols] = values
    return band


def _block_triplets(
    params: ModelParams, indexer: BasisIndexer, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero elements of P H P as (row, col, value) arrays, each position once."""
    if indexer.n_atoms != params.n_atoms:
        raise ValueError("indexer and params disagree on n_atoms")
    indices = np.asarray(indices, dtype=np.int64)
    spin_dim = indexer.spin_dim
    j = indexer.j
    size = indices.size
    pos = np.full(indexer.dimension, -1, dtype=np.int64)
    pos[indices] = np.arange(size)

    n = indices // spin_dim
    k = indices % spin_dim
    diag = np.arange(size)
    rows, cols = [diag], [diag]
    values = [params.omega * n + params.omega0 * (k - j)]

    g = params.lam / math.sqrt(params.n_atoms)
    m = k - j
    # raising ladder factors sqrt(j(j+1) - m(m+1)) for J+ and m(m-1) for J-;
    # each coupling moves n by one and the two ladders move k in opposite
    # directions, so no position is emitted twice
    for dk, ladder in ((1, j * (j + 1) - m * (m + 1)), (-1, j * (j + 1) - m * (m - 1))):
        src_ok = (n < indexer.n_cutoff) & (k + dk >= 0) & (k + dk < spin_dim)
        src = np.flatnonzero(src_ok)
        tgt = pos[(n[src] + 1) * spin_dim + (k[src] + dk)]
        keep = tgt >= 0
        src, tgt = src[keep], tgt[keep]
        amp = g * np.sqrt((n[src] + 1) * ladder[src])
        rows += [tgt, src]
        cols += [src, tgt]
        values += [amp, amp]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def build_parity(params: ModelParams, indexer: BasisIndexer) -> HermitianOperator:
    """Parity operator exp[i*pi*(b'b + Jz + j)]: diagonal (-1)^(n+m+j)."""
    if indexer.n_atoms != params.n_atoms:
        raise ValueError("indexer and params disagree on n_atoms")
    signs = parity_signs(indexer)
    return HermitianOperator(np.diag(signs).astype(complex), "product")


def parity_signs(indexer: BasisIndexer) -> np.ndarray:
    """Diagonal of the parity operator: (-1)^(n+m+j) at idx(n, m)."""
    flat = np.arange(indexer.dimension)
    exponent = flat // indexer.spin_dim + flat % indexer.spin_dim
    return np.where(exponent % 2 == 0, 1.0, -1.0)


def parity_block_indices(indexer: BasisIndexer) -> tuple[np.ndarray, np.ndarray]:
    """Partition of the basis into even and odd n+m+j sectors (ascending indices)."""
    signs = parity_signs(indexer)
    return np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
