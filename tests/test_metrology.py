import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from qfi_reference import (
    number_operator,
    pure_state_qfi,
    qfi_mixed,
    random_density,
    random_hermitian,
    sld_qfi_oracle,
    spectral_decompose,
)

import dicke_qfi.metrology
from dicke_qfi.metrology import (
    HUSIMI_CHUNK_ELEMENTS,
    coherent_amplitudes,
    default_atom_grid,
    default_field_grid,
    husimi_atoms,
    husimi_field,
    qfi_atoms,
    qfi_field,
    quadrature_variance,
    spin_coherent_amplitudes,
    spin_squeezing_xi2,
    spin_variance,
)
from dicke_qfi.model import ModelParams
from dicke_qfi.solver import solve
from dicke_qfi.states import SpectralDecomposition, schmidt_decompose, schmidt_stack


def pure_state(vec: np.ndarray, space: str) -> SpectralDecomposition:
    """A hand-built pure state: weight 1 on the normalized ``vec``."""
    return SpectralDecomposition(np.ones(1), (vec / np.linalg.norm(vec))[:, None], space, 0.0)


def coherent_state(alpha: complex, dim: int) -> SpectralDecomposition:
    return pure_state(coherent_amplitudes(np.array([alpha]), dim)[0], "boson")


def vacuum_state(dim: int) -> SpectralDecomposition:
    return coherent_state(0.0, dim)


def atoms_of(params: ModelParams, n_cutoff: int) -> SpectralDecomposition:
    return schmidt_decompose(solve(params, fock_cutoff=n_cutoff))[1]


@pytest.fixture(scope="module")
def squeezed_n20():
    # N=20 slightly above threshold; cutoff checked converged in the solver tests
    field, atoms = schmidt_decompose(solve(ModelParams(1.0, 1.0, 0.54, 20), fock_cutoff=114))
    return atoms, field


# ---------------------------------------------------------------------------
# QFI of reference states

def test_qfi_coherent_field_hits_classical_limit():
    alpha = 1.2
    rho = coherent_state(alpha, 50)
    result = qfi_field(rho)
    assert abs(result.value - 4 * alpha**2) / (4 * alpha**2) < 1e-8
    assert abs(result.scaled - 1.0) < 1e-8


def test_qfi_coherent_spin_state_is_atom_number():
    n_atoms = 7
    result = qfi_atoms(pure_state(np.eye(n_atoms + 1)[0], "spin"))  # |j,-j>
    assert abs(result.value - n_atoms) < 1e-12
    assert abs(result.scaled - 1.0) < 1e-12


def test_qfi_maximally_mixed_qubit_vanishes():
    decomp = spectral_decompose(np.eye(2) / 2, "spin")
    sigma_z_half = np.diag([0.5, -0.5])
    assert qfi_mixed(decomp, sigma_z_half).value == 0.0


def test_qfi_matches_sld_oracle_rank3():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(rng, 3, 3)
        g = random_hermitian(rng, 3)
        decomp = spectral_decompose(rho, "boson")
        direct = qfi_mixed(decomp, g).value
        oracle = sld_qfi_oracle(decomp, g)
        assert abs(direct - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_qfi_matches_sld_oracle_full_rank_4x4():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_density(rng, 4, 4)
        g = random_hermitian(rng, 4)
        decomp = spectral_decompose(rho, "boson")
        assert abs(qfi_mixed(decomp, g).value - sld_qfi_oracle(decomp, g)) < 1e-8


def test_oracle_pure_state_collapses_to_variance():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 5, 1)
    g = random_hermitian(rng, 5)
    decomp = spectral_decompose(rho, "boson")
    expected = pure_state_qfi(decomp.vectors[:, 0], g)
    assert abs(sld_qfi_oracle(decomp, g) - expected) < 1e-10 * max(1.0, expected)


def test_oracle_commuting_case_vanishes():
    rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
    g = np.diag([1.0, 2.0, 5.0])
    assert abs(sld_qfi_oracle(spectral_decompose(rho, "boson"), g)) < 1e-14


def test_zero_weight_pairs_add_nothing():
    # a hand-built state may hold a zero weight, below the floor that
    # schmidt_decompose keeps; the pair of zero weights has no SLD term, so the
    # QFI is the pure state's, with no NaN and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with_zero = qfi_atoms(SpectralDecomposition(np.array([1.0, 0.0]), np.eye(2), "spin", 0.0))
        pure = qfi_atoms(SpectralDecomposition(np.ones(1), np.eye(2)[:, :1], "spin", 0.0))
    assert with_zero.value == pure.value == 1.0  # 4 Var(Jx) of |j, -j> at N = 1


def test_pure_collapse_is_exact():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 6, 1)
    g = random_hermitian(rng, 6)
    decomp = spectral_decompose(rho, "boson")
    expected = pure_state_qfi(decomp.vectors[:, 0], g)
    assert abs(qfi_mixed(decomp, g).value - expected) <= 1e-12 * max(1.0, expected)


def test_qfi_quadratic_in_generator_scale():
    rng = np.random.default_rng(31)
    rho = random_density(rng, 4, 3)
    g = random_hermitian(rng, 4)
    decomp = spectral_decompose(rho, "boson")
    f1 = qfi_mixed(decomp, g).value
    f2 = qfi_mixed(decomp, 2.0 * g).value
    assert abs(f2 - 4.0 * f1) < 1e-10 * max(1.0, abs(f1))


def test_qfi_convexity_sanity():
    # 50:50 mixture of two eigenstates of G has zero QFI
    g = np.diag([0.0, 1.0, 2.0])
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    assert qfi_mixed(spectral_decompose(rho, "boson"), g).value <= 1e-14
    # generic 50:50 mixture never beats the average of its branches
    rng = np.random.default_rng(17)
    g = random_hermitian(rng, 4)
    va = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    va /= np.linalg.norm(va)
    vb_raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vb = vb_raw - va * np.vdot(va, vb_raw)
    vb /= np.linalg.norm(vb)
    mix = 0.5 * np.outer(va, va.conj()) + 0.5 * np.outer(vb, vb.conj())
    mixed = qfi_mixed(spectral_decompose(mix, "boson"), g).value
    average = 0.5 * pure_state_qfi(va, g) + 0.5 * pure_state_qfi(vb, g)
    assert mixed <= average + 1e-10


def test_qfi_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        qfi_mixed(spectral_decompose(np.eye(2) / 2, "spin"), np.eye(3))


def test_field_qfi_vacuum_scaled_undefined():
    result = qfi_field(vacuum_state(12))
    assert result.value == 0.0
    assert math.isnan(result.scaled)


# ---------------------------------------------------------------------------
# quadratures and spin squeezing

def test_quadrature_vacuum_isotropic():
    rho = vacuum_state(12)
    for sigma in (0.0, 0.3, math.pi / 2):
        assert abs(quadrature_variance(rho, sigma) - 0.25) < 1e-12


def test_quadrature_coherent_displacement_invariant():
    rho = coherent_state(1.1 + 0.4j, 60)
    for sigma in (0.0, math.pi / 2):
        assert abs(quadrature_variance(rho, sigma) - 0.25) < 1e-8


def test_quadrature_squeezed_below_vacuum(squeezed_n20):
    _, field = squeezed_n20
    assert quadrature_variance(field, math.pi / 2) < 0.25


def test_optimal_quadrature_dicke(squeezed_n20):
    # the Dicke field is squeezed at sigma = pi/2 and not at 0
    _, field = squeezed_n20
    assert quadrature_variance(field, math.pi / 2) < 0.25 < quadrature_variance(field, 0.0)


def test_spin_variance_css_isotropic():
    n_atoms = 9
    css = pure_state(np.eye(n_atoms + 1)[0], "spin")
    for phi in (0.0, 0.7, math.pi / 2):
        assert abs(spin_variance(css, phi) - n_atoms / 4) < 1e-12


def test_spin_variance_ultrastrong_antisqueezed(ultrastrong_n6):
    var_jx = spin_variance(ultrastrong_n6["atoms"], 0.0)
    n = ultrastrong_n6["params"].n_atoms
    assert abs(var_jx - n**2 / 4) < 0.1 * n**2 / 4


def test_spin_squeezing_decoupled_unity():
    xi2 = spin_squeezing_xi2(atoms_of(ModelParams(1.0, 1.0, 0.0, 6), 8))
    assert abs(xi2 - 1.0) < 1e-12


def test_spin_squeezing_dip(squeezed_n20):
    atoms, _ = squeezed_n20
    assert spin_squeezing_xi2(atoms) < 1.0
    # Jy = J_{pi/2} is the squeezed axis, and Jx the stretched one
    assert spin_variance(atoms, math.pi / 2) < spin_variance(atoms, 0.0)
    assert spin_variance(atoms, math.pi / 2) < 20 / 4


def test_spin_squeezing_ultrastrong_returns_to_unity(ultrastrong_n6):
    xi2 = spin_squeezing_xi2(ultrastrong_n6["atoms"])
    assert xi2 <= 1.0 + 1e-9
    assert abs(xi2 - 1.0) < 0.1


# ---------------------------------------------------------------------------
# Husimi distributions

def test_husimi_field_vacuum_gaussian():
    rho = vacuum_state(16)
    axis = np.linspace(-2, 2, 21)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    alpha = re + 1j * im
    q = husimi_field(rho, alpha)
    assert_allclose(q, np.exp(-np.abs(alpha) ** 2), atol=1e-12)


def test_husimi_field_bounds_and_normalization(ultrastrong_n6):
    rho_b = ultrastrong_n6["rho_b"]
    nbar = np.trace(rho_b @ number_operator(rho_b.shape[0])).real
    re_axis, im_axis, alpha = default_field_grid(nbar, 121)
    q = husimi_field(ultrastrong_n6["field"], alpha)
    # Q is bounded below by rho's smallest eigenvalue, which is PSD to 1e-10
    assert np.all(q >= -1e-10)
    assert np.all(q <= 1.0 + 1e-12)
    cell = (re_axis[1] - re_axis[0]) * (im_axis[1] - im_axis[0])
    assert abs(q.sum() * cell / math.pi - 1.0) < 1e-3


@pytest.mark.parametrize("nbar", [0.0, 1e-9, 0.3, 0.58, 2.5, 17.0, 1234.5])
def test_field_grid_ignores_the_last_bits_of_nbar(nbar):
    # the half-width is rounded to 32 significant bits, so an nbar one ulp
    # away gives the same axes, which move by at most 2^-32 of the half-width
    axes = default_field_grid(nbar, 21)
    nudged = default_field_grid(math.nextafter(nbar, math.inf), 21)
    for axis, other in zip(axes, nudged):
        assert axis.tobytes() == other.tobytes()
    half = 1.5 * (math.sqrt(nbar) + 2.0)
    assert abs(axes[0][-1] - half) <= 2.0**-32 * half
    assert axes[0][0] == -axes[0][-1]


def test_husimi_field_chunks_bounded_at_large_cutoff(monkeypatch):
    # at cutoff 2000 a chunk is 131 grid points, so the 41 x 41 grid takes 13 chunks;
    # Q must equal the single-chunk evaluation over the 2001 levels of the
    # truncated space, below which the Schmidt vectors are padded, bit for bit
    field, _ = schmidt_decompose(solve(ModelParams(1.0, 1.0, 0.5, 2), fock_cutoff=2000))
    assert field.levels == 2001 and field.dim == 2049
    axis = np.linspace(-3.0, 3.0, 41)
    alpha = axis[:, None] + 1j * axis[None, :]
    amps = coherent_amplitudes(alpha.ravel(), field.levels)
    single = np.abs(amps.conj() @ field.vectors[: field.levels]) ** 2 @ field.weights

    rows = []
    real = dicke_qfi.metrology.coherent_amplitudes

    def record_rows(points, dim):
        rows.append(np.size(points))
        return real(points, dim)

    monkeypatch.setattr(dicke_qfi.metrology, "coherent_amplitudes", record_rows)
    q = husimi_field(field, alpha)
    assert len(rows) > 1 and sum(rows) == alpha.size
    assert max(rows) * field.levels <= HUSIMI_CHUNK_ELEMENTS
    assert np.array_equal(q.ravel(), single)


def test_husimi_field_ultrastrong_lobes(ultrastrong_n6):
    rho_b = ultrastrong_n6["rho_b"]
    params = ultrastrong_n6["params"]
    alpha0 = params.lam * math.sqrt(params.n_atoms) / params.omega
    nbar = np.trace(rho_b @ number_operator(rho_b.shape[0])).real
    re_axis, _, alpha = default_field_grid(nbar, 161)
    field = ultrastrong_n6["field"]
    q = husimi_field(field, alpha)
    i, j = np.unravel_index(np.argmax(q), q.shape)
    spacing = re_axis[1] - re_axis[0]
    assert abs(abs(re_axis[i]) - alpha0) < 2 * spacing
    assert abs(q[i, j] - 0.5) < 0.1
    # mirror lobe carries the same weight
    mirrored = husimi_field(field, np.array([-re_axis[i] + 0j]))[0]
    assert abs(mirrored - q[i, j]) < 1e-6


def test_husimi_field_two_lobes_n20():
    # above threshold the field splits into two displaced lobes at +-alpha0
    params = ModelParams(1.0, 1.0, 1.0, 20)
    # converged cutoff per the solver tests
    field, _ = schmidt_decompose(solve(params, fock_cutoff=340))
    alpha0 = params.lam * math.sqrt(params.n_atoms) / params.omega
    axis = np.linspace(-1.5 * alpha0, 1.5 * alpha0, 81)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    q = husimi_field(field, re + 1j * im)
    spacing = axis[1] - axis[0]
    i, j = np.unravel_index(np.argmax(q), q.shape)
    assert abs(abs(axis[i]) - alpha0) < 2 * spacing
    assert abs(axis[j]) < 2 * spacing
    # the mirrored lobe has its own local maximum of equal height
    mirror = q[::-1, :]
    assert abs(mirror[i, j] - q[i, j]) < 1e-3 * q[i, j]


def test_husimi_atoms_decoupled_closed_form():
    # Q_A of |j,-j> is cos^(2N)(theta/2); from N ~ 2050 on sqrt(binom(N, k))
    # alone overflows, and inf * 0 once made every cell NaN
    theta, phi = default_atom_grid(61)
    for n_atoms in (10, 2060):
        q = husimi_atoms(atoms_of(ModelParams(1.0, 1.0, 0.0, n_atoms), 8), theta, phi)
        assert np.all(np.isfinite(q))
        expected = np.cos(theta / 2) ** (2 * n_atoms)
        assert_allclose(q, expected[:, None] * np.ones_like(phi)[None, :], rtol=1e-12, atol=1e-300)
        assert abs(q.max() - 1.0) < 1e-12


def test_husimi_atoms_bounds(squeezed_n20):
    atoms, _ = squeezed_n20
    theta, phi = default_atom_grid(61)
    q = husimi_atoms(atoms, theta, phi)
    assert np.all(q >= -1e-14)
    assert np.all(q <= 1.0 + 1e-12)


def test_husimi_atoms_chunks_bounded_at_large_n(monkeypatch):
    # at N = 2000 one theta row of a 21-point grid is 42021 amplitudes, so a
    # chunk holds 6 rows and the grid takes 4; Q must match the whole product
    n_atoms = 2000
    theta, phi = default_atom_grid(21)
    centers = spin_coherent_amplitudes(np.array([0.9, 1.6, 2.4]), np.array([0.3, 3.5]), n_atoms)
    vectors, _ = np.linalg.qr(centers.reshape(-1, n_atoms + 1).T)
    atoms = SpectralDecomposition(np.array([0.3, 0.25, 0.2, 0.1, 0.1, 0.05]), vectors, "spin", 0.0)
    amplitudes = spin_coherent_amplitudes(theta, phi, n_atoms)
    whole = np.abs(amplitudes.conj() @ vectors) ** 2 @ atoms.weights

    rows = []
    real = dicke_qfi.metrology.spin_coherent_amplitudes

    def record_rows(theta_rows, phi_axis, n):
        rows.append(np.size(theta_rows))
        return real(theta_rows, phi_axis, n)

    monkeypatch.setattr(dicke_qfi.metrology, "spin_coherent_amplitudes", record_rows)
    q = husimi_atoms(atoms, theta, phi)
    assert len(rows) > 1 and sum(rows) == theta.size
    assert max(rows) * phi.size * (n_atoms + 1) <= HUSIMI_CHUNK_ELEMENTS
    assert whole.max() > 0.1
    assert_allclose(q, whole, rtol=1e-14, atol=1e-14 * whole.max())


def test_space_tags_enforced(squeezed_n20):
    atoms, field = squeezed_n20
    with pytest.raises(ValueError):
        qfi_field(atoms)
    with pytest.raises(ValueError):
        qfi_atoms(field)
    with pytest.raises(ValueError):
        quadrature_variance(atoms, 0.0)
    with pytest.raises(ValueError):
        spin_variance(field, 0.0)
    with pytest.raises(ValueError):
        husimi_field(atoms, np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        husimi_atoms(field, np.array([0.0]), np.array([0.0]))


def test_one_state_functions_and_grids_reject_what_they_cannot_take():
    # a stack handed to a one-state function, and a grid of one point per axis
    points = [ModelParams(1.0, 1.0, lam, 2) for lam in (0.3, 0.6)]
    field, atoms = schmidt_stack([solve(params, fock_cutoff=20) for params in points])
    for call, state in ((qfi_field, field), (qfi_atoms, atoms), (spin_squeezing_xi2, atoms),
                        (lambda state: husimi_field(state, np.zeros((2, 2))), field),
                        (lambda state: husimi_atoms(state, *default_atom_grid(11)), atoms)):
        with pytest.raises(ValueError, match="takes one state, not a stack"):
            call(state)
    for grid in (default_atom_grid, lambda size: default_field_grid(1.0, size)):
        with pytest.raises(ValueError, match="at least 2 points per axis"):
            grid(1)
        assert all(axis.size == 2 for axis in grid(2)[:2])
