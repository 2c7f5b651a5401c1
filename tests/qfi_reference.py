"""Dense operators, reduced states and QFI oracles for the checks, as plain ndarrays.

The library computes every observable from a Schmidt decomposition and
ladder rules; the dense forms here are what those are checked against.
The library names a basis by (N, n_cutoff) alone; the boson-major
``BasisIndexer``, its flat index and the parity signs read off it serve
only these dense forms.  ``stacks_from_scratch`` is the solver's stack cut
written as one loop.  ``ultrastrong_reference`` gives the deep-coupling
limits the finite-N results approach.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from dicke_qfi.metrology import QfiResult, _qfi
from dicke_qfi.model import ModelParams, band_width, even_size
from dicke_qfi.solver import STACK_ELEMENTS, initial_cutoff
from dicke_qfi.states import DEFAULT_WEIGHT_FLOOR, SpectralDecomposition, Space


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


def even_block_from_scratch(
    params: ModelParams, indexer: BasisIndexer
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The even block in closed form, rebuilt on every call with no cache: its main diagonal
    and its nonzero upper diagonals by ascending offset.

    The same arithmetic as ``model.even_band``, which must match it
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


def even_indices(indexer: BasisIndexer) -> np.ndarray:
    """Full indices of the even n+m+j sector in ascending order, from the parity signs."""
    return np.flatnonzero(parity_signs_from_scratch(indexer) == 1)


def product_vector(gs) -> np.ndarray:
    """A ground state's even-sector amplitudes embedded in the full product basis."""
    indexer = BasisIndexer(gs.n_cutoff, gs.params.n_atoms)
    vector = np.zeros(indexer.dimension)
    vector[even_indices(indexer)] = gs.vector
    return vector


def leakage_from_scratch(params: ModelParams, vector: np.ndarray, n_cutoff: int) -> float:
    """||Q H psi||, Q the projector on Fock level n_cutoff + 1, with the dense H one level up.

    The even-sector ``vector`` at ``n_cutoff`` is embedded in the full grid
    one Fock level larger, where H is built from its operators; the part of
    H psi in the added level is the coupling out of the cutoff space.
    """
    indexer = BasisIndexer(n_cutoff, params.n_atoms)
    grid = np.zeros((n_cutoff + 2, indexer.spin_dim))
    grid.reshape(-1)[even_indices(indexer)] = vector
    image = build_hamiltonian(params, BasisIndexer(n_cutoff + 1, params.n_atoms)) @ grid.ravel()
    # hypot scales, so entries near the float minimum do not square to zero
    return math.hypot(*np.abs(image.reshape(n_cutoff + 2, -1)[-1]).tolist())


def full_grid_start_vector(params: ModelParams, indexer: BasisIndexer) -> np.ndarray:
    """The solver's start vector formed on the full (n_cutoff+1) x (N+1) grid, then restricted.

    The mean-field product state is formed as the outer product of its
    field and spin factors, each built in log space.  The even entries are
    then read off through the parity signs.
    """
    even = even_indices(indexer)
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


def stacks_from_scratch(
    points: list[ModelParams], n_start: int | None = None, max_points: int | None = None
) -> list[list[ModelParams]]:
    """``solver.stacks`` as one greedy loop: a point joins the last stack when that
    stack is of its N, holds fewer than ``max_points`` points and has room for its
    charge within STACK_ELEMENTS; otherwise it starts a stack of its own."""
    cut: list[list[ModelParams]] = []
    used = 0
    for params in points:
        n_atoms = params.n_atoms
        kd = band_width(n_atoms)
        n_cutoff = initial_cutoff(params) if n_start is None else n_start
        cost = (kd + 1) * (even_size(n_atoms, n_cutoff) + kd) + STACK_ELEMENTS // 32
        last = cut[-1] if cut else None
        if (last is not None and last[0].n_atoms == n_atoms
                and used + cost <= STACK_ELEMENTS
                and (max_points is None or len(last) < max_points)):
            last.append(params)
            used += cost
        else:
            cut.append([params])
            used = cost
    return cut


def dense_hamiltonian_block(params: ModelParams, indexer: BasisIndexer) -> np.ndarray:
    """The even-parity block P H P as a dense float64 array, for ``scipy.linalg.eigh`` oracles."""
    diagonal, upper = even_block_from_scratch(params, indexer)
    block = np.diag(diagonal)
    rows = np.arange(diagonal.size)
    for d, coupling in upper.items():
        block[rows[:-d], rows[d:]] = coupling
        block[rows[d:], rows[:-d]] = coupling
    return block


def _grid(gs) -> np.ndarray:
    indexer = BasisIndexer(gs.n_cutoff, gs.params.n_atoms)
    return product_vector(gs).reshape(indexer.boson_dim, indexer.spin_dim)


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
    weights, vectors = evals[order], evecs[:, order]
    keep = weights > DEFAULT_WEIGHT_FLOOR
    return SpectralDecomposition(weights[keep], vectors[:, keep], space,
                                 float(np.sum(weights[~keep])))


def mean_and_variance(state: SpectralDecomposition, op: np.ndarray) -> tuple[float, float]:
    """Tr(rho A) and Tr(rho A^2) - Tr(rho A)^2 with a dense A.

    Tr(rho A) = sum_k p_k <v_k|A|v_k> and Tr(rho A^2) = sum_k p_k ||A v_k||^2.
    """
    av = op @ state.vectors
    mean = float(state.weights @ np.real(np.sum(state.vectors.conj() * av, axis=0)))
    mean_sq = float(state.weights @ np.sum(np.abs(av) ** 2, axis=0))
    return mean, mean_sq - mean**2


def qfi_mixed(decomp: SpectralDecomposition, generator: np.ndarray) -> QfiResult:
    """The library's SLD-form QFI with a dense generator G, fed the products G v_k."""
    return _qfi(decomp, generator @ decomp.vectors)


def sld_qfi_oracle(decomp: SpectralDecomposition, generator: np.ndarray) -> float:
    """Independent QFI evaluation in symmetric-logarithmic-derivative form.

    The given eigenvectors V are completed to an orthonormal basis of the
    truncated space by the last columns of a complete QR of V, and the
    complement takes weight zero.  Then, over every pair of that basis,

        F = sum_{m,n: p_m + p_n > 0} 2 (p_m - p_n)^2 / (p_m + p_n) |G_mn|^2.

    The weights are used as given, not re-diagonalized from a density
    matrix, so a small weight keeps its relative accuracy.  The library's
    form sums the same terms, with the complement of V taken whole through
    a projection instead of pair by pair.
    """
    rank = decomp.weights.size
    complete, _ = np.linalg.qr(decomp.vectors, mode="complete")
    basis = np.concatenate((decomp.vectors, complete[:, rank:]), axis=1)
    weights = np.concatenate((decomp.weights, np.zeros(basis.shape[1] - rank)))
    overlap = basis.conj().T @ (generator @ basis)
    pm_sum = weights[:, None] + weights[None, :]
    pm_diff = weights[:, None] - weights[None, :]
    terms = np.zeros_like(pm_sum)
    np.divide(2.0 * pm_diff**2, pm_sum, out=terms, where=pm_sum > 0)
    return float(np.sum(terms * np.abs(overlap) ** 2))


def expectation(state, op: np.ndarray) -> complex:
    """<psi|A|psi> for a state vector or Tr(rho A) for a density matrix.

    Accepts a GroundState, embedded in the full product basis, or a bare
    ndarray (1-D vector / 2-D density matrix).  The full complex value is
    returned so callers can monitor the imaginary part as a diagnostic.
    """
    matrix = np.asarray(op)
    array = product_vector(state) if hasattr(state, "vector") else np.asarray(state)
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


@dataclass(frozen=True)
class UltrastrongReference:
    """Mean-field limits of the deep-coupling regime for finite-N comparison."""

    alpha0: float
    qfi_atoms_scaled: float
    qfi_field_scaled: float
    var_jy: float
    var_x90: float
    var_x0: float
    var_jx: float


def ultrastrong_reference(params: ModelParams) -> UltrastrongReference:
    """Deep-coupling asymptotics: each subsystem is a 50:50 mixture of two branches.

    The field settles into coherent states |+-alpha0| with alpha0 =
    lam*sqrt(N)/omega and the atoms into the two extremal Jx eigenstates;
    the branch variances give F_A -> 0 and F_B -> 4*nbar.
    """
    alpha0 = params.lam * math.sqrt(params.n_atoms) / params.omega
    n = params.n_atoms
    return UltrastrongReference(
        alpha0=alpha0,
        qfi_atoms_scaled=0.0,
        qfi_field_scaled=1.0,
        var_jy=n / 4.0,
        var_x90=0.25,
        var_x0=alpha0**2 + 0.25,
        var_jx=n**2 / 4.0,
    )
