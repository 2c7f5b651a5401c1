"""Quantum Fisher information, squeezing, and Husimi distributions.

For a state with spectral weights {p_n} and eigenvectors {|psi_n>} the QFI
with respect to a phase generated by G takes the symmetric-logarithmic-
derivative form of Braunstein and Caves (PRL 72, 3439, 1994),

    F = 2 sum_{m,n} (p_m - p_n)^2 / (p_m + p_n) |G_mn|^2
        + 4 sum_n p_n ||G psi_n - V V^H G psi_n||^2,

with V the retained eigenvectors, so the second sum pairs each of them
with the complement of their span in the truncated space.  Every term is
non-negative, so nothing cancels: a nearly pure state keeps its digits.

The atomic QFI is evaluated directly with G = Jx: the Ramsey sequence
(pi/2 pulse about Jy, then phase accumulation under Jz) conjugates the
generator into Jx, and the QFI is invariant under that fixed unitary.

Functions of one reduced state take its SpectralDecomposition {p_k, |v_k>}
and form no density matrix: Tr(rho A) = sum_k p_k <v_k|A|v_k>.  Everything
above needs A only through the products A v_k.  For the field observables
b'b and X_sigma, and the spin observables J_phi = Jx cos(phi) + Jy sin(phi),
those come from the diagonal and bidiagonal ladder rules in O(dim * rank),
so no dense field or spin matrix is built.  A ladder observable at any
angle is cos X + sin Y, and the products X v and -i Y v both come from the
two shifted products L v and L'v, so Jx and Jy (X_0 and X_{pi/2}) share
them.  The arithmetic follows the dtype of the eigenvectors: the real
Schmidt vectors of a ground state take real arithmetic, and a hand-built
complex state complex, in the same code.

The kernels take a stack of states, a leading axis on every array, through
``matmul`` and ``vecdot``; a weight set to 0 below the Schmidt floor, and a
zero padding row, change no value.  ``sweep_observables`` gives every sweep
column of a stack in one pass, as arrays, and the public one-state
functions run the same kernels on a stack of one, so a state's bits do not
depend on the stack it is evaluated in.

The Husimi kernels expand coherent states in log space, with the factorials
from ``model.log_factorials``, the table the solver's start vector uses, so
scipy.special is never imported.  One chunked sum, ``_husimi``, serves
both: it forms their amplitudes in chunks of at most HUSIMI_CHUNK_ELEMENTS,
so their memory grows with neither the cutoff nor N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import log_factorials, log_spin_amplitudes, spin_ladder
from .states import SpectralDecomposition

#: points per axis of the default Husimi grids
FIELD_GRID_POINTS = 201
ATOM_GRID_POINTS = 181

#: largest (grid points x levels) array of coherent-state amplitudes that
#: husimi_field and husimi_atoms form at once; each element costs about 80
#: bytes at the peak of coherent_amplitudes, so a chunk stays near 20 MiB at
#: any cutoff or atom number
HUSIMI_CHUNK_ELEMENTS = 2**18

#: the sweep columns that ``sweep_observables`` forms, in the order it returns them
SWEEP_OBSERVABLES = ("nbar", "F_B", "F_B_scaled", "F_A", "F_A_scaled", "xi2", "quad_var_scaled")


@dataclass(frozen=True)
class QfiResult:
    """QFI value and its classical-limit ratio.

    Floats for one state; arrays, one entry a state, for a stack.
    """

    value: float | np.ndarray
    scaled: float | np.ndarray


def _check_space(state: SpectralDecomposition, space: str, caller: str) -> None:
    if state.space != space:
        raise ValueError(f"{caller} expects a {space}-space state")


def _check_one(state: SpectralDecomposition, space: str, caller: str) -> None:
    _check_space(state, space, caller)
    if state.weights.ndim != 1:
        raise ValueError(f"{caller} takes one state, not a stack")


def _one_state(state: SpectralDecomposition, space: str, caller: str) -> SpectralDecomposition:
    """A state of ``space`` as the stack of one that the kernels take."""
    _check_one(state, space, caller)
    return state.as_stack()


def _vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum conj(a) b over the last two axes, one value per state: a ``vdot`` for each."""
    return np.vecdot(a.reshape(*a.shape[:-2], -1), b.reshape(*b.shape[:-2], -1))


def _mean_number(field: SpectralDecomposition) -> np.ndarray:
    """<b'b> = sum_k p_k sum_n n |v_k(n)|^2 of each state, from the diagonal of b'b."""
    return np.vecdot(field.weights, np.arange(field.dim) @ np.abs(field.vectors) ** 2)


def mean_number(field: SpectralDecomposition) -> float:
    """<b'b> of a field state."""
    return float(_mean_number(_one_state(field, "boson", "mean_number"))[0])


def _ladder(vectors: np.ndarray, raising: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X v and -i Y v for each column v, with X = (L + L')/2 and Y = i(L' - L)/2.

    L lowers by one level and L' raises; X and Y are Hermitian.  Both
    products come from the two shifted ones, L v / 2 and L'v / 2, in the
    dtype of v, so a real state keeps real arithmetic.  ``raising[..., n]``,
    n = 0..dim, is the factor of L' from level n-1 to n:
    (L'v)[n] = raising[n] v[n-1] and (L v)[n] = raising[n+1] v[n+1].  Both
    are taken on v padded with a zero level at each end, so the bottom of
    L'v and the top of L v are zero.  A leading axis of ``raising`` runs
    over the states of a stack.
    """
    half = raising[..., :, None] / 2
    padded = np.zeros((*vectors.shape[:-2], vectors.shape[-2] + 2, vectors.shape[-1]),
                      vectors.dtype)
    padded[..., 1:-1, :] = vectors
    lowered = half[..., 1:, :] * padded[..., 2:, :]
    raised = half[..., :-1, :] * padded[..., :-2, :]
    return lowered + raised, raised - lowered


def _field_ladder(field: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The quadratures X = X_0 and Y = X_{pi/2}: L = b, L' = b', (b'v)[n] = sqrt(n) v[n-1].

    Each state's b' stops at the top of its truncated space: the factors
    into its padding rows are 0.
    """
    level = np.arange(field.dim + 1)
    raising = np.sqrt(level + 0.0) * (level < np.reshape(field.levels, (-1, 1)))
    return _ladder(field.vectors, raising)


def _spin_ladder(atoms: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """X = Jx and Y = -Jy on the |j,m> basis, m ascending, with L = J- and L' = J+.

    J+|j,m-1> = sqrt(j(j+1) - m(m-1)) |j,m>, and with m = k - j this is
    ``model.spin_ladder``'s sqrt(k (N + 1 - k)), 0 at k = 0 and N + 1.
    """
    return _ladder(atoms.vectors, spin_ladder(atoms.dim - 1))


def _variance(
    state: SpectralDecomposition, ladder: tuple[np.ndarray, np.ndarray], angle: float
) -> np.ndarray:
    """Variance of G = cos(angle) X + sin(angle) Y, as <G^2> - <G>^2 on the truncated space.

    ``ladder`` is (x, y) = (X v, -i Y v) for each eigenvector v.  With
    c = cos(angle), s = sin(angle) and G v = c x + i s y, each
    eigenvector has <v|G|v> = c Re(v^H x) - s Im(v^H y) and
    ||G v||^2 = c^2 ||x||^2 + s^2 ||y||^2 - 2 c s Im(x^H y).  Each weighted
    sum sum_k p_k a_k^H b_k is one ``vdot`` of a and b p per state.  The
    imaginary parts are zero for a real state.
    """
    c, s = math.cos(angle), math.sin(angle)
    p, v, (x, y) = state.weights[..., None, :], state.vectors, ladder
    xp, yp = x * p, y * p
    mean = c * _vdot(v, xp).real - s * _vdot(v, yp).imag
    square = ((c * c) * _vdot(x, xp).real + (s * s) * _vdot(y, yp).real
              - (2 * c * s) * _vdot(x, yp).imag)
    return square - mean**2


def _qfi(
    decomp: SpectralDecomposition, gv: np.ndarray, norm: float | np.ndarray = math.nan
) -> QfiResult:
    """SLD-form QFI of each state from the products G v_k, column k of ``gv``, and its
    value / ``norm``.

    The pair term runs over the retained weights; the complement term takes
    the part of each G v_k outside their span, through the full
    truncated-space G.  A pair of zero weights has no SLD term and adds 0,
    and a vector kept at weight 0 is exact: its pair terms with each p_n,
    2 p_n |G_mn|^2 for each ordering, are what the complement term of v_n
    would hold of it.  The arithmetic has the dtype of the vectors and
    ``gv``, and every array may carry a leading stack axis.
    """
    p, v = decomp.weights, decomp.vectors
    overlap = v.conj().swapaxes(-1, -2) @ gv  # overlap[..., m, n] = <psi_m|G|psi_n>
    diff = p[..., :, None] - p[..., None, :]
    total = p[..., :, None] + p[..., None, :]
    pair = np.divide(diff * diff, total, out=np.zeros_like(total), where=total > 0)
    pair_sum = 2.0 * (pair * (overlap.conj() * overlap).real).sum(axis=(-2, -1))
    # G v_k less its projection on the retained vectors; vecdot conjugates its first argument
    outside = gv - v @ overlap
    complement_sum = 4.0 * np.vecdot(p, np.vecdot(outside, outside, axis=-2).real)
    value = pair_sum + complement_sum
    return QfiResult(value, value / norm)


def _first(result: QfiResult) -> QfiResult:
    """The QFI of the one state of a stack of one, as floats."""
    return QfiResult(float(result.value[0]), float(result.scaled[0]))


def _field_qfi(field: SpectralDecomposition, nbar: np.ndarray) -> QfiResult:
    """QFI for b'b, scaled by 4 nbar, NaN where nbar = 0; b'b is diagonal, (b'b v)[n] = n v[n]."""
    return _qfi(field, np.arange(field.dim)[:, None] * field.vectors,
                np.where(nbar > 0, 4.0 * nbar, math.nan))


def qfi_field(field: SpectralDecomposition) -> QfiResult:
    """QFI of the field state for the phase generator b'b, scaled by 4*nbar.

    With nbar = 0 (decoupled vacuum) the scaled ratio is undefined and
    reported as NaN.
    """
    field = _one_state(field, "boson", "qfi_field")
    return _first(_field_qfi(field, _mean_number(field)))


def qfi_atoms(atoms: SpectralDecomposition) -> QfiResult:
    """QFI of the atomic state for the Ramsey generator Jx, scaled by N."""
    atoms = _one_state(atoms, "spin", "qfi_atoms")
    jx_v, _ = _spin_ladder(atoms)
    return _first(_qfi(atoms, jx_v, atoms.dim - 1))


def quadrature_variance(field: SpectralDecomposition, sigma: float) -> float:
    """Variance of X_sigma = (e^{-i sigma} b + e^{i sigma} b') / 2.

    X_sigma = cos(sigma) X_0 + sin(sigma) X_{pi/2}, from the field ladder.
    """
    field = _one_state(field, "boson", "quadrature_variance")
    return float(_variance(field, _field_ladder(field), sigma)[0])


def spin_variance(atoms: SpectralDecomposition, phi: float) -> float:
    """Variance of J_phi = Jx cos(phi) + Jy sin(phi)."""
    atoms = _one_state(atoms, "spin", "spin_variance")
    return float(_variance(atoms, _spin_ladder(atoms), -phi)[0])


def spin_squeezing_xi2(atoms: SpectralDecomposition) -> float:
    """Spin squeezing parameter xi^2 = 4*(dJy)^2 / N, with Jy = J_{pi/2}."""
    return 4.0 * spin_variance(atoms, math.pi / 2) / (atoms.dim - 1)


def sweep_observables(
    field: SpectralDecomposition, atoms: SpectralDecomposition
) -> tuple[np.ndarray, ...]:
    """Every sweep observable of a stack of states in one pass: one array over the stack
    for each ``SWEEP_OBSERVABLES`` name, in that order.

    The stack is (field, atoms) from ``states.schmidt_stack``, or one state,
    taken as a stack of one.  The kernels are those of ``mean_number``,
    ``qfi_field``, ``qfi_atoms``, ``spin_squeezing_xi2`` and
    ``quadrature_variance(field, pi/2)``, which run them on a stack of one;
    nbar is formed once and Jx and Jy share one spin ladder.
    """
    _check_space(field, "boson", "sweep_observables")
    _check_space(atoms, "spin", "sweep_observables")
    field, atoms = field.as_stack(), atoms.as_stack()
    nbar = _mean_number(field)
    spin = _spin_ladder(atoms)  # (Jx v, -i Y v): Jx for F_A, Y = -Jy for xi2
    n_atoms = atoms.dim - 1
    f_b = _field_qfi(field, nbar)
    f_a = _qfi(atoms, spin[0], n_atoms)
    xi2 = 4.0 * _variance(atoms, spin, -math.pi / 2) / n_atoms
    quad_var = _variance(field, _field_ladder(field), math.pi / 2)  # variance of X_{pi/2}
    return nbar, f_b.value, f_b.scaled, f_a.value, f_a.scaled, xi2, 4.0 * quad_var


def coherent_amplitudes(alpha: np.ndarray, dim: int) -> np.ndarray:
    """Fock amplitudes <n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!) for each grid point.

    Factorials are evaluated in log space, so the expansion stays finite well
    past n ~ 170.
    """
    flat = np.asarray(alpha, dtype=complex).ravel()
    n = np.arange(dim)
    mag = np.abs(flat)
    origin = mag == 0
    log_mag = np.log(np.where(origin, 1.0, mag))
    log_amp = (
        -0.5 * mag[:, None] ** 2
        + n[None, :] * log_mag[:, None]
        - 0.5 * log_factorials(dim - 1)[None, :]
    )
    phase = np.exp(1j * n[None, :] * np.angle(flat)[:, None])
    amps = np.exp(log_amp) * phase
    if np.any(origin):
        amps[origin, :] = 0.0
        amps[origin, 0] = 1.0  # |alpha=0> is the vacuum
    return amps


def husimi_field(field: SpectralDecomposition, alpha: np.ndarray) -> np.ndarray:
    """Q_B(alpha) = <alpha|rho_B|alpha> evaluated on a grid of amplitudes.

    The grid should satisfy |alpha|^2 << n_cutoff for the truncated coherent
    states to be faithful.  The coherent states span the state's truncated
    space, its ``levels``: the padding rows below it hold only vectors at
    weight 0.  Grid points are taken in chunks of at most
    HUSIMI_CHUNK_ELEMENTS // levels, so memory does not grow with the cutoff.
    """
    _check_one(field, "boson", "husimi_field")
    flat = np.asarray(alpha, dtype=complex).ravel()
    q = _husimi(field, (flat.size,), lambda rows, levels: coherent_amplitudes(flat[rows], levels))
    return q.reshape(np.shape(alpha))


def default_field_grid(
    nbar: float, points: int = FIELD_GRID_POINTS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square alpha-grid of half-width 1.5*(sqrt(nbar) + 2) centered on the origin.

    The half-width is rounded to 32 significant bits, a move of at most
    2^-32 of it, so the axes do not follow the last bits of nbar, which
    move with the rounding of the state.
    """
    if points < 2:
        raise ValueError("grid needs at least 2 points per axis")
    mantissa, exponent = math.frexp(1.5 * (math.sqrt(max(nbar, 0.0)) + 2.0))
    half = math.ldexp(round(mantissa * 2**32), exponent - 32)
    axis = np.linspace(-half, half, points)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    return axis, axis, re + 1j * im


def spin_coherent_amplitudes(theta: np.ndarray, phi: np.ndarray, n_atoms: int) -> np.ndarray:
    """Overlaps <j,m|theta,phi> on the (theta, phi) product grid.

    <j,m|theta,phi> = binom(2j, j+m)^{1/2} cos(theta/2)^{j-m} sin(theta/2)^{j+m}
                      * exp(-i (j+m) phi).
    Returned shape is (len(theta), len(phi), N+1).

    Each magnitude is formed whole in log space, by
    ``model.log_spin_amplitudes``.  The poles, cos or sin of theta/2
    exactly 0, are set apart.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.arange(n_atoms + 1)
    cos_half, sin_half = np.cos(theta / 2), np.sin(theta / 2)
    inside = (cos_half != 0) & (sin_half != 0)
    c, s = cos_half[inside, None], sin_half[inside, None]
    log_amp = log_spin_amplitudes(n_atoms, np.log(np.abs(c)), np.log(np.abs(s)))
    amp_theta = np.zeros((theta.size, n_atoms + 1))
    amp_theta[inside] = np.sign(c) ** (n_atoms - k) * np.sign(s) ** k * np.exp(log_amp)
    amp_theta[sin_half == 0, 0] = np.sign(cos_half[sin_half == 0]) ** n_atoms
    amp_theta[cos_half == 0, -1] = np.sign(sin_half[cos_half == 0]) ** n_atoms
    phase = np.exp(-1j * k[None, :] * phi[:, None])
    return amp_theta[:, None, :] * phase[None, :, :]


def husimi_atoms(atoms: SpectralDecomposition, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Q_A(theta, phi) = <theta,phi|rho_A|theta,phi> on a product grid.

    The amplitudes are formed for a few theta rows at a time, at most
    HUSIMI_CHUNK_ELEMENTS in a chunk, so memory does not grow with N: the
    whole (theta, phi, N+1) array would be 0.5 GB at N = 1000 on the
    default grid.
    """
    _check_one(atoms, "spin", "husimi_atoms")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return _husimi(atoms, (theta.size, phi.size),
                   lambda rows, levels: spin_coherent_amplitudes(theta[rows], phi, levels - 1))


def _husimi(state: SpectralDecomposition, shape: tuple[int, ...], amplitudes) -> np.ndarray:
    """Q = sum_k p_k |<c|v_k>|^2 of one state at each coherent state c of a grid of ``shape``,
    from ``amplitudes(rows, levels)``: <n|c>, n < levels, on a last axis, for a slice ``rows``
    of the grid's first axis.  It reads the state's first ``levels`` rows at positive weight,
    in chunks of at most HUSIMI_CHUNK_ELEMENTS // (levels x points of a grid row) grid rows.
    """
    levels, positive = int(state.levels), state.weights > 0
    vectors, weights = state.vectors[:levels, positive], state.weights[positive]
    out = np.empty(shape)
    chunk = max(1, HUSIMI_CHUNK_ELEMENTS // max(1, math.prod(shape[1:]) * levels))
    for start in range(0, shape[0], chunk):
        rows = slice(start, start + chunk)
        # held while the next chunk forms, so that the allocator reuses its pages:
        # freed first, a pass of husimi_grid took 3x the page faults and 5% longer
        block = amplitudes(rows, levels)
        out[rows] = np.abs(block.conj() @ vectors) ** 2 @ weights
    return out


def default_atom_grid(points: int = ATOM_GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Default (theta, phi) axes covering the full sphere."""
    if points < 2:
        raise ValueError("grid needs at least 2 points per axis")
    theta = np.linspace(0.0, math.pi, points)
    phi = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    return theta, phi
