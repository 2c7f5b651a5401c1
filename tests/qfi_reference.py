"""Dense operators, reduced states and QFI oracles for the checks, as plain ndarrays.

The library computes every observable from a Schmidt decomposition and
ladder rules; the dense forms here are what those are checked against.
"""

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from dicke_qfi.metrology import QfiResult, _moments, _qfi
from dicke_qfi.model import BasisIndexer, EvenBlock, ModelParams, build_even_block
from dicke_qfi.states import DEFAULT_WEIGHT_FLOOR, SpectralDecomposition, Space, _retained


class SpinOperators(NamedTuple):
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray


def build_boson_ops(n_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
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
    return annihilate, np.diag(np.arange(dim, dtype=complex))


def build_spin_ops(n_atoms: int) -> SpinOperators:
    """Collective spin matrices for j = N/2 in the |j,m> basis (m ascending).

    J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>, Jx = (J+ + J-)/2,
    Jy = (J+ - J-)/(2i), Jz = diag(-j..+j).
    """
    j = n_atoms / 2
    dim = n_atoms + 1
    m = np.arange(dim) - j
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jminus = jplus.conj().T
    return SpinOperators((jplus + jminus) / 2, (jplus - jminus) / 2j,
                         np.diag(m).astype(complex), jplus, jminus)


def build_hamiltonian(params: ModelParams, indexer: BasisIndexer) -> np.ndarray:
    """Full Dicke Hamiltonian on the product space, assembled by Kronecker products."""
    if indexer.n_atoms != params.n_atoms:
        raise ValueError("indexer and params disagree on n_atoms")
    annihilate, number = build_boson_ops(indexer.n_cutoff)
    spin = build_spin_ops(params.n_atoms)
    eye_b = np.eye(indexer.boson_dim)
    eye_s = np.eye(indexer.spin_dim)
    coupling = params.lam / math.sqrt(params.n_atoms)
    return (
        params.omega * np.kron(number, eye_s)
        + params.omega0 * np.kron(eye_b, spin.jz)
        + coupling * np.kron(annihilate + annihilate.conj().T, spin.jplus + spin.jminus)
    )


def even_block_from_scratch(params: ModelParams, indexer: BasisIndexer) -> EvenBlock:
    """The even block in closed form, rebuilt on every call with no cache.

    The same arithmetic as ``model.build_even_block``, which must match it
    bit for bit; the couplings carry g = lam / sqrt(N) from the start.
    """
    spin_dim = indexer.spin_dim
    size = (indexer.dimension + 1) // 2
    first = 2 * np.arange(size)
    index = first + (first // spin_dim + first % spin_dim) % 2
    n, k = np.divmod(index, spin_dim)
    j = indexer.j
    m = k - j
    diagonal = params.omega * n + params.omega0 * m
    g = params.lam / math.sqrt(params.n_atoms)
    upper: dict[int, np.ndarray] = {}
    for dk, ladder in ((1, j * (j + 1) - m * (m + 1)), (-1, j * (j + 1) - m * (m - 1))):
        src = np.flatnonzero((n < indexer.n_cutoff) & (k + dk >= 0) & (k + dk < spin_dim))
        amp = g * np.sqrt((n[src] + 1) * ladder[src])
        offsets = (index[src] + spin_dim + dk) // 2 - src
        for d in np.unique(offsets):
            at = offsets == d
            upper.setdefault(int(d), np.zeros(size - d))[src[at]] = amp[at]
    return diagonal, dict(sorted(upper.items()))


def idx(indexer: BasisIndexer, n: int, m: float) -> int:
    """Flat index n*(N+1) + (m+j) of |n>|j,m>; half-integer m enters through m + j."""
    k = m + indexer.j
    ki = int(round(k))
    if abs(k - ki) > 1e-9:
        raise ValueError(f"m={m} is not on the ladder for j={indexer.j}")
    if not 0 <= n <= indexer.n_cutoff:
        raise ValueError(f"Fock number n={n} outside [0, {indexer.n_cutoff}]")
    if not 0 <= ki <= indexer.n_atoms:
        raise ValueError(f"projection m={m} outside [-j, +j]")
    return n * indexer.spin_dim + ki


def nm(indexer: BasisIndexer, index: int) -> tuple[int, float]:
    """Inverse of idx: flat index -> (n, m)."""
    if not 0 <= index < indexer.dimension:
        raise ValueError(f"index {index} outside [0, {indexer.dimension})")
    n, k = divmod(index, indexer.spin_dim)
    return n, k - indexer.j


def parity_signs_from_scratch(indexer: BasisIndexer) -> np.ndarray:
    """(-1)^(n+m+j) at idx(n, m) as float64, computed from the flat index."""
    flat = np.arange(indexer.dimension)
    exponent = flat // indexer.spin_dim + flat % indexer.spin_dim
    return np.where(exponent % 2 == 0, 1.0, -1.0)


def full_grid_start_vector(params: ModelParams, indexer: BasisIndexer, previous=None) -> np.ndarray:
    """The solver's start vector formed on the full (n_cutoff+1) x (N+1) grid, then restricted.

    ``previous`` (a ground state at a lower cutoff) is zero-padded to the
    larger grid; without it the mean-field product state is formed as the
    outer product of its field and spin factors, each built in log space.
    The even entries are then read off through the parity signs.
    """
    even = np.flatnonzero(parity_signs_from_scratch(indexer) == 1)
    if previous is not None:
        grid = np.zeros((indexer.boson_dim, indexer.spin_dim))
        old = previous.indexer
        grid[: old.boson_dim] = previous.vector.reshape(old.boson_dim, old.spin_dim)
        return grid.ravel()[even]
    if params.lam <= params.lambda_cr:
        start = np.zeros(even.size)
        start[0] = 1.0
        return start
    cos_theta = (params.lambda_cr / params.lam) ** 2
    sin_theta = math.sqrt(1.0 - cos_theta**2)
    log_alpha = math.log(params.lam * math.sqrt(params.n_atoms) * sin_theta / params.omega)
    n_atoms = params.n_atoms
    log_factorial = np.cumsum(np.log(np.arange(1.0, max(indexer.n_cutoff, n_atoms) + 1)))
    log_factorial = np.concatenate(([0.0], log_factorial))
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
    return np.outer(field, spin).ravel()[even]


def dense_hamiltonian_block(params: ModelParams, indexer: BasisIndexer) -> np.ndarray:
    """The even-parity block P H P as a dense float64 array, for ``scipy.linalg.eigh`` oracles."""
    diagonal, upper = build_even_block(params, indexer)
    block = np.diag(diagonal)
    rows = np.arange(diagonal.size)
    for d, coupling in upper.items():
        block[rows[:-d], rows[d:]] = coupling
        block[rows[d:], rows[:-d]] = coupling
    return block


def _grid(gs) -> np.ndarray:
    return np.asarray(gs.vector).reshape(gs.indexer.boson_dim, gs.indexer.spin_dim)


def partial_trace_atoms(gs) -> np.ndarray:
    """Field state rho_B: (rho_B)_{n,n'} = sum_m psi(n,m) psi*(n',m)."""
    psi = _grid(gs)
    rho = psi @ psi.conj().T
    return (rho + rho.conj().T) / 2


def partial_trace_field(gs) -> np.ndarray:
    """Atomic state rho_A: (rho_A)_{m,m'} = sum_n psi(n,m) psi*(n,m')."""
    psi = _grid(gs)
    rho = psi.T @ psi.conj()
    return (rho + rho.conj().T) / 2


def spectral_decompose(rho: np.ndarray, space: Space) -> SpectralDecomposition:
    """Eigenpairs of a density matrix with weights above DEFAULT_WEIGHT_FLOOR, descending."""
    evals, evecs = scipy.linalg.eigh(rho)
    order = np.argsort(evals)[::-1]
    return _retained(evals[order], evecs[:, order], space)


def mean_and_variance(state: SpectralDecomposition, op: np.ndarray) -> tuple[float, float]:
    """Tr(rho A) and Tr(rho A^2) - Tr(rho A)^2 with a dense A."""
    return _moments(state, op @ state.vectors)


def qfi_mixed(decomp: SpectralDecomposition, generator: np.ndarray) -> QfiResult:
    """The library's pair-sum QFI with a dense generator G, fed the products G v_k."""
    return _qfi(decomp, generator @ decomp.vectors)


def sld_qfi_oracle(decomp: SpectralDecomposition, generator: np.ndarray) -> float:
    """Independent QFI evaluation in symmetric-logarithmic-derivative form.

    The retained decomposition is reassembled into a density matrix, which is
    re-diagonalized over the complete basis (zero-weight complement included).
    Then

        F = sum_{m,n: p_m + p_n > floor} 2 (p_m - p_n)^2 / (p_m + p_n) |G_mn|^2.

    Equal to the pair-sum form whenever the dropped mass is zero.
    """
    rho = (decomp.vectors * decomp.weights) @ decomp.vectors.conj().T
    evals, evecs = scipy.linalg.eigh(rho)
    overlap = evecs.conj().T @ (generator @ evecs)
    pm_sum = evals[:, None] + evals[None, :]
    pm_diff = evals[:, None] - evals[None, :]
    mask = pm_sum > DEFAULT_WEIGHT_FLOOR
    terms = np.zeros_like(pm_sum)
    np.divide(2.0 * pm_diff**2, pm_sum, out=terms, where=mask)
    return float(np.sum(terms * np.abs(overlap) ** 2, where=mask))


def expectation(state, op: np.ndarray) -> complex:
    """<psi|A|psi> for a state vector or Tr(rho A) for a density matrix.

    Accepts a GroundState or a bare ndarray (1-D vector / 2-D density
    matrix).  The full complex value is returned so callers can monitor the
    imaginary part as a diagnostic.
    """
    matrix = np.asarray(op)
    array = np.asarray(state.vector if hasattr(state, "vector") else state)
    if array.ndim == 1:
        if array.shape[0] != matrix.shape[0]:
            raise ValueError("state and operator dimensions do not match")
        return complex(np.vdot(array, matrix @ array))
    if array.ndim == 2:
        if array.shape != matrix.shape:
            raise ValueError("state and operator dimensions do not match")
        return complex(np.trace(array @ matrix))
    raise ValueError("state must be a vector or a density matrix")


def number_operator(dim: int) -> np.ndarray:
    """Dense b'b on a Fock space of the given dimension."""
    return build_boson_ops(dim - 1)[1]


def quadrature_operator(dim: int, sigma: float) -> np.ndarray:
    """Dense X_sigma = (b e^{-i sigma} + b' e^{i sigma}) / 2 on the truncated space."""
    annihilate, _ = build_boson_ops(dim - 1)
    return (annihilate * np.exp(-1j * sigma) + annihilate.conj().T * np.exp(1j * sigma)) / 2


def jx_operator(n_atoms: int) -> np.ndarray:
    """Dense Jx for j = N/2."""
    return build_spin_ops(n_atoms).jx


def spin_operator(n_atoms: int, phi: float) -> np.ndarray:
    """Dense J_phi = Jx cos(phi) + Jy sin(phi) for j = N/2."""
    spin = build_spin_ops(n_atoms)
    return spin.jx * math.cos(phi) + spin.jy * math.sin(phi)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def haar_basis(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Random density matrix with exactly ``rank`` nonzero eigenvalues.

    The nonzero weights are kept well above the spectral floor (>= 1e-4) so
    the decomposition keeps all of them.
    """
    basis = haar_basis(rng, dim)
    weights = rng.dirichlet(np.ones(rank)) * 0.9 + 0.1 / rank
    spectrum = np.zeros(dim)
    spectrum[:rank] = weights
    rho = (basis * spectrum) @ basis.conj().T
    return (rho + rho.conj().T) / 2


def pure_state_qfi(vector: np.ndarray, generator: np.ndarray) -> float:
    """4 * variance of the generator in a pure state."""
    mean = np.vdot(vector, generator @ vector).real
    mean_sq = np.vdot(generator @ vector, generator @ vector).real
    return 4.0 * (mean_sq - mean**2)
