"""Quantum Fisher information, squeezing, and Husimi distributions.

For a state with spectral weights {p_n} and eigenvectors {|psi_n>} the QFI
with respect to a phase generated by G is

    F = 4 sum_n p_n (dG)_n^2  -  sum_{m!=n} 8 p_m p_n / (p_m + p_n) |G_mn|^2,

where (dG)_n^2 is the variance of G in |psi_n> evaluated with the full
truncated-space G.

The atomic QFI is evaluated directly with G = Jx: the Ramsey sequence
(pi/2 pulse about Jy, then phase accumulation under Jz) conjugates the
generator into Jx, and the QFI is invariant under that fixed unitary.

Functions of one reduced state take its SpectralDecomposition {p_k, |v_k>}
and form no density matrix: Tr(rho A) = sum_k p_k <v_k|A|v_k>.  Everything
above needs A only through the products A v_k.  For the field observables
b'b and X_sigma, and the spin observables J_phi = Jx cos(phi) + Jy sin(phi),
those come from the diagonal and bidiagonal ladder rules in O(dim * rank),
so no dense field or spin matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .states import SpectralDecomposition

#: points per axis of the default Husimi grids
FIELD_GRID_POINTS = 201
ATOM_GRID_POINTS = 181

#: largest (grid points x Fock levels) array of coherent-state amplitudes
#: husimi_field forms at once; each element costs about 80 bytes at the peak
#: of coherent_amplitudes, so a chunk stays near 20 MiB at any cutoff
HUSIMI_CHUNK_ELEMENTS = 2**18


@dataclass(frozen=True)
class QfiResult:
    """QFI value, its classical-limit ratio, and the two terms of the sum."""

    value: float
    scaled: float
    variance_term: float
    correction_term: float


def _check_space(state: SpectralDecomposition, space: str, caller: str) -> None:
    if state.space != space:
        raise ValueError(f"{caller} expects a {space}-space state")


def _moments(state: SpectralDecomposition, av: np.ndarray) -> tuple[float, float]:
    """Tr(rho A) and Tr(rho A^2) - Tr(rho A)^2 from the products A v_k, column k of ``av``.

    Tr(rho A) = sum_k p_k <v_k|A|v_k> and Tr(rho A^2) = sum_k p_k ||A v_k||^2,
    with A the full truncated-space matrix.
    """
    mean = float(state.weights @ np.real(np.sum(state.vectors.conj() * av, axis=0)))
    mean_sq = float(state.weights @ np.sum(np.abs(av) ** 2, axis=0))
    return mean, mean_sq - mean**2


def mean_number(field: SpectralDecomposition) -> float:
    """<b'b> = sum_k p_k sum_n n |v_k(n)|^2, from the diagonal of b'b."""
    return float(field.weights @ (np.arange(field.dim) @ np.abs(field.vectors) ** 2))


def _ladder_times(vectors: np.ndarray, lowering: np.ndarray, angle: float) -> np.ndarray:
    """(e^{-i angle} L v + e^{i angle} L'v) / 2 for each column v.

    L lowers by one level, (L v)[n] = lowering[n] v[n+1] below the top
    level, and L' raises, (L'v)[n] = lowering[n-1] v[n-1] above the bottom.
    """
    coeff = lowering[:, None]
    out = np.zeros_like(vectors, dtype=complex)
    out[:-1] = coeff * vectors[1:] * np.exp(-1j * angle)
    out[1:] += coeff * vectors[:-1] * np.exp(1j * angle)
    return out / 2


def _quadrature_times(vectors: np.ndarray, sigma: float) -> np.ndarray:
    """X_sigma v = (e^{-i sigma} b v + e^{i sigma} b'v) / 2, with (b v)[n] = sqrt(n+1) v[n+1]."""
    return _ladder_times(vectors, np.sqrt(np.arange(1, vectors.shape[0])), sigma)


def _spin_times(vectors: np.ndarray, phi: float) -> np.ndarray:
    """J_phi v = (e^{i phi} J- v + e^{-i phi} J+ v) / 2 on the |j,m> basis, m ascending.

    (J- v)[k] = sqrt(j(j+1) - m(m+1)) v[k+1] with m = k - j, the rule
    J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1> read backwards.
    """
    j = (vectors.shape[0] - 1) / 2
    m = np.arange(vectors.shape[0] - 1) - j
    return _ladder_times(vectors, np.sqrt(j * (j + 1) - m * (m + 1)), -phi)


def _qfi(decomp: SpectralDecomposition, gv: np.ndarray) -> QfiResult:
    """Mixed-state QFI from the products G v_k, column k of ``gv``.

    Both sums run over the retained weights; the per-eigenvector variances
    use the full truncated-space generator, so matrix elements reaching
    discarded eigenvectors enter the first term automatically.
    """
    p = decomp.weights
    vecs = decomp.vectors
    overlap = vecs.conj().T @ gv  # overlap[m, n] = <psi_m|G|psi_n>
    second_moment = np.sum(np.abs(gv) ** 2, axis=0)
    first_moment = np.real(np.diag(overlap))
    variances = second_moment - first_moment**2
    variance_term = float(4.0 * np.sum(p * variances))

    pm = p[:, None] + p[None, :]
    pair_weight = np.where(pm > 0, 8.0 * p[:, None] * p[None, :] / np.where(pm > 0, pm, 1.0), 0.0)
    np.fill_diagonal(pair_weight, 0.0)
    correction_term = float(np.sum(pair_weight * np.abs(overlap) ** 2))

    value = variance_term - correction_term
    if value < 0 and -value < 1e-10 * max(1.0, variance_term):
        value = 0.0
    return QfiResult(
        value=value,
        scaled=math.nan,
        variance_term=variance_term,
        correction_term=correction_term,
    )


def qfi_field(field: SpectralDecomposition) -> QfiResult:
    """QFI of the field state for the phase generator b'b, scaled by 4*nbar.

    With nbar = 0 (decoupled vacuum) the scaled ratio is undefined and
    reported as NaN.
    """
    _check_space(field, "boson", "qfi_field")
    nbar = mean_number(field)
    # b'b is diagonal: (b'b v)[n] = n v[n]
    result = _qfi(field, np.arange(field.dim)[:, None] * field.vectors)
    return replace(result, scaled=result.value / (4.0 * nbar) if nbar > 0 else math.nan)


def qfi_atoms(atoms: SpectralDecomposition) -> QfiResult:
    """QFI of the atomic state for the Ramsey generator Jx, scaled by N."""
    _check_space(atoms, "spin", "qfi_atoms")
    result = _qfi(atoms, _spin_times(atoms.vectors, 0.0))
    return replace(result, scaled=result.value / (atoms.dim - 1))


def quadrature_variance(field: SpectralDecomposition, sigma: float) -> float:
    """Variance of X_sigma, computed as <X^2> - <X>^2 on the truncated space."""
    _check_space(field, "boson", "quadrature_variance")
    return _moments(field, _quadrature_times(field.vectors, sigma))[1]


def spin_variance(atoms: SpectralDecomposition, phi: float) -> float:
    """Variance of J_phi = Jx cos(phi) + Jy sin(phi)."""
    _check_space(atoms, "spin", "spin_variance")
    return _moments(atoms, _spin_times(atoms.vectors, phi))[1]


def spin_squeezing_xi2(atoms: SpectralDecomposition) -> float:
    """Spin squeezing parameter xi^2 = 4*(dJy)^2 / N, with Jy = J_{pi/2}."""
    return 4.0 * spin_variance(atoms, math.pi / 2) / (atoms.dim - 1)


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
        - 0.5 * gammaln(n + 1)[None, :]
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
    states to be faithful.  Grid points are taken in chunks of at most
    HUSIMI_CHUNK_ELEMENTS // (n_cutoff+1), so memory does not grow with the
    cutoff.
    """
    _check_space(field, "boson", "husimi_field")
    flat = np.asarray(alpha, dtype=complex).ravel()
    out = np.empty(flat.size)
    chunk = max(1, HUSIMI_CHUNK_ELEMENTS // field.dim)
    for start in range(0, flat.size, chunk):
        block = coherent_amplitudes(flat[start : start + chunk], field.dim)
        out[start : start + chunk] = _husimi(block, field)
    return out.reshape(np.shape(alpha))


def default_field_grid(
    nbar: float, points: int = FIELD_GRID_POINTS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square alpha-grid of half-width 1.5*(sqrt(nbar) + 2) centered on the origin."""
    if points < 2:
        raise ValueError("grid needs at least 2 points per axis")
    half = 1.5 * (math.sqrt(max(nbar, 0.0)) + 2.0)
    axis = np.linspace(-half, half, points)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    return axis, axis, re + 1j * im


def spin_coherent_amplitudes(theta: np.ndarray, phi: np.ndarray, n_atoms: int) -> np.ndarray:
    """Overlaps <j,m|theta,phi> on the (theta, phi) product grid.

    <j,m|theta,phi> = binom(2j, j+m)^{1/2} cos(theta/2)^{j-m} sin(theta/2)^{j+m}
                      * exp(-i (j+m) phi).
    Returned shape is (len(theta), len(phi), N+1).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.arange(n_atoms + 1)
    half = theta / 2
    root_binom = np.exp(
        0.5 * (gammaln(n_atoms + 1) - gammaln(k + 1) - gammaln(n_atoms - k + 1))
    )
    # np.power gives 0^0 = 1, so the poles theta = 0, pi come out exact
    cos_pow = np.power(np.cos(half)[:, None], (n_atoms - k)[None, :])
    sin_pow = np.power(np.sin(half)[:, None], k[None, :])
    amp_theta = root_binom[None, :] * cos_pow * sin_pow
    phase = np.exp(-1j * k[None, :] * phi[:, None])
    return amp_theta[:, None, :] * phase[None, :, :]


def husimi_atoms(atoms: SpectralDecomposition, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Q_A(theta, phi) = <theta,phi|rho_A|theta,phi> on a product grid."""
    _check_space(atoms, "spin", "husimi_atoms")
    return _husimi(spin_coherent_amplitudes(theta, phi, atoms.dim - 1), atoms)


def _husimi(amps: np.ndarray, state: SpectralDecomposition) -> np.ndarray:
    """sum_k p_k |<c|v_k>|^2 for coherent-state amplitudes <n|c> along the last axis."""
    return np.abs(amps.conj() @ state.vectors) ** 2 @ state.weights


def default_atom_grid(points: int = ATOM_GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Default (theta, phi) axes covering the full sphere."""
    if points < 2:
        raise ValueError("grid needs at least 2 points per axis")
    theta = np.linspace(0.0, math.pi, points)
    phi = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    return theta, phi
