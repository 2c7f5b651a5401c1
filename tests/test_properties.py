"""Property-based checks of the ground-state solver and the reduced-state observables.

The banded solver's energy, vector, residual and energy bracket are checked
against dense ``eigh`` of the same even block.  The observable invariants
below hold for any pure state of the truncated model, converged or not.
They are checked at a small fixed Fock cutoff and at the cutoff
``solve`` converges to.  The banded field kernels behind ``qfi_field`` and
``quadrature_variance``, and the spin ladder kernels behind ``qfi_atoms``
and ``spin_variance``, are checked against the dense operators on complex
and real mixed states and on real ground states, at random angles; the
sweep's one-pass columns are checked against the public functions bit for
bit.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from qfi_reference import (
    BasisIndexer,
    dense_hamiltonian_block,
    haar_basis,
    jx_operator,
    leakage_from_scratch,
    mean_and_variance,
    number_operator,
    parity_signs_from_scratch,
    partial_trace_field,
    product_vector,
    qfi_mixed,
    quadrature_operator,
    random_density,
    sld_qfi_oracle,
    spectral_decompose,
    spin_operator,
)
from scipy.linalg import lapack

from dicke_qfi.metrology import (
    mean_number,
    qfi_atoms,
    qfi_field,
    quadrature_variance,
    spin_squeezing_xi2,
    spin_variance,
    sweep_observables,
)
from dicke_qfi.cli import (
    SweepConfig,
    compute_husimi_grids,
    compute_sweep_records,
    compute_trajectories,
)
from dicke_qfi.model import ModelParams
from dicke_qfi.solver import (
    BRACKET_RTOL,
    ground_states,
    solve,
    solve_stack,
)
from dicke_qfi.states import SpectralDecomposition, schmidt_decompose

N_CUTOFF = 16


def check_invariants(gs):
    n_atoms = gs.params.n_atoms
    signs = parity_signs_from_scratch(BasisIndexer(gs.n_cutoff, gs.params.n_atoms))
    assert abs(np.sum(signs * np.abs(product_vector(gs)) ** 2) - 1.0) < 1e-12
    field, atoms = schmidt_decompose(gs)
    # the field weights are the spectrum of the atomic reduced state
    atom_spectrum = np.linalg.eigvalsh(partial_trace_field(gs))[::-1]
    assert np.max(np.abs(field.weights - atom_spectrum[: field.weights.size])) < 1e-12
    for state in (field, atoms):
        assert abs(np.sum(state.weights) + state.discarded_mass - 1.0) < 1e-12

    number = number_operator(field.dim)
    _, var_number = mean_and_variance(field, number)
    f_a = qfi_atoms(atoms).value
    f_b = qfi_field(field).value
    assert 0.0 <= f_a <= n_atoms**2 * (1 + 1e-12)
    assert 0.0 <= f_b <= 4.0 * var_number * (1 + 1e-12) + 1e-12

    for state, generator in ((atoms, jx_operator(n_atoms)), (field, number)):
        oracle = sld_qfi_oracle(state, generator)
        assert abs(qfi_mixed(state, generator).value - oracle) <= 1e-8 * max(1.0, oracle)

    # banded field kernels against the dense operators
    assert abs(f_b - sld_qfi_oracle(field, number)) <= 1e-8 * max(1.0, f_b)
    assert abs(f_b - qfi_mixed(field, number).value) <= 1e-12 * max(1.0, f_b)
    for sigma in (0.0, math.pi / 2):
        dense = mean_and_variance(field, quadrature_operator(field.dim, sigma))[1]
        assert abs(quadrature_variance(field, sigma) - dense) <= 1e-12 * max(1.0, dense)
    check_spin_kernels(atoms, 0.0)
    check_spin_kernels(atoms, math.pi / 2)


def check_spin_kernels(atoms, phi):
    """Ladder-rule Jx QFI and J_phi variance against the dense spin matrices."""
    n_atoms = atoms.dim - 1
    f_a = qfi_atoms(atoms).value
    assert abs(f_a - qfi_mixed(atoms, jx_operator(n_atoms)).value) <= 1e-12 * max(1.0, f_a)
    dense = mean_and_variance(atoms, spin_operator(n_atoms, phi))[1]
    assert abs(spin_variance(atoms, phi) - dense) <= 1e-12 * max(1.0, dense)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.integers(1, 40),
    rank=st.integers(1, 4),
    phi=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_spin_kernels_random_states(n_atoms, rank, phi, seed):
    # complex mixed states, which ground states (real amplitudes) never are
    rho = random_density(np.random.default_rng(seed), n_atoms + 1, min(rank, n_atoms + 1))
    check_spin_kernels(spectral_decompose(rho, "spin"), phi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(0.2, 3.0),
    omega0=st.floats(0.2, 3.0),
    lam=st.floats(0.0, 2.0),
    n_atoms=st.integers(1, 6),
)
def test_reduced_state_invariants(omega, omega0, lam, n_atoms):
    check_invariants(solve(ModelParams(omega, omega0, lam, n_atoms), fock_cutoff=N_CUTOFF))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(0.5, 3.0),
    omega0=st.floats(0.2, 3.0),
    lam=st.floats(0.0, 2.0),
    n_atoms=st.integers(1, 6),
)
def test_reduced_state_invariants_converged(omega, omega0, lam, n_atoms):
    check_invariants(solve(ModelParams(omega, omega0, lam, n_atoms), 1e-10))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(0.2, 3.0),
    omega0=st.floats(0.2, 3.0),
    lam=st.floats(0.0, 3.0),
    n_atoms=st.integers(1, 8),
    n_cutoff=st.integers(1, 60),
)
def test_banded_solver_matches_dense_eigh(omega, omega0, lam, n_atoms, n_cutoff):
    # the start and first shift depend on omega and omega0 through the mean field
    params = ModelParams(omega, omega0, lam, n_atoms)
    [gs] = ground_states([params], [n_cutoff])
    indexer = BasisIndexer(n_cutoff, n_atoms)
    block = dense_hamiltonian_block(params, indexer)
    energies, vecs = scipy.linalg.eigh(block)
    e_dense = energies[0]
    scale = max(1.0, abs(e_dense))
    assert abs(gs.energy - e_dense) <= 1e-12 * scale
    psi = gs.vector
    dense = vecs[:, 0] * np.sign(vecs[:, 0] @ psi)
    # the vector error is bounded by the residual over the gap to the next level
    assert np.linalg.norm(psi - dense) <= 1e-12 * max(1.0, scale / (energies[1] - e_dense))
    # the bracket: H - lower_bound I has a Cholesky factor, within 2 r + slack of E
    lower = gs.lower_bound
    width = gs.energy - lower
    assert 0.0 <= width <= 2 * gs.residual + BRACKET_RTOL * max(1.0, abs(gs.energy))
    assert gs.energy <= e_dense + 1e-12 * abs(gs.energy)
    if lam > 0:
        # H - lower I in LAPACK upper band storage, kd = (N+1)//2 + 1 (a zero row at N = 1)
        kd = (n_atoms + 1) // 2 + 1
        shifted = np.zeros((kd + 1, psi.size))
        for d in range(kd + 1):
            shifted[kd - d, d:] = np.diagonal(block, d)
        shifted[kd] -= lower
        assert lapack.dpbtrf(shifted)[1] == 0
    # the coupling out of the top level, against H one Fock level up
    oracle = leakage_from_scratch(params, psi, n_cutoff)
    assert gs.leakage == pytest.approx(oracle, rel=1e-12, abs=1e-300)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    lam=st.floats(0.0, 3.0, exclude_min=True),
    n_atoms=st.integers(1, 6),
)
def test_banded_certificate_against_dense_block(lam, n_atoms):
    # the solve a converged point returns, at its first cutoff
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    gs = solve(params, 1e-10)
    psi = gs.vector
    block = dense_hamiltonian_block(params, BasisIndexer(gs.n_cutoff, gs.params.n_atoms))
    e_dense = scipy.linalg.eigvalsh(block, subset_by_index=[0, 0])[0]
    energy, lower, residual = gs.energy, gs.lower_bound, gs.residual
    scale = max(1.0, abs(energy))
    # the residual the solver returns is the one of the vector it returns
    assert abs(residual - np.linalg.norm(block @ psi - energy * psi)) <= 1e-13 * scale
    # the bracket holds E0, up to rounding of the dense eigenvalue at the top
    assert lower < e_dense <= energy + 1e-13 * scale
    assert energy - lower <= 2 * residual + BRACKET_RTOL * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.0, 3.0), ratio=st.sampled_from((0.5, 1.0, 2.0)))
def test_converged_energy_matches_four_times_the_cutoff(lam, ratio):
    # at N = 1 the accepted energy E_C against a fixed-cutoff solve at 4C.  Both are
    # Rayleigh quotients of H on nested spaces, so E0 <= E_4C <= E_C but for
    # rounding, BRACKET_RTOL * scale each.  On the untruncated space the state's
    # residual is rho = sqrt(r^2 + l^2), r on the block and l its leakage, both
    # below tol * scale once accepted; E0 is the eigenvalue within rho of E_C,
    # as the even-sector gap at N = 1 is of order omega, so
    # E_C - E_4C <= E_C - E0 <= rho <= sqrt(2) tol scale
    tol = 1e-10
    params = ModelParams(1.0, ratio, lam, 1)
    gs = solve(params, tol)
    larger = solve(params, fock_cutoff=4 * gs.n_cutoff)
    scale = max(1.0, abs(gs.energy))
    rho = math.hypot(gs.residual, gs.leakage)
    assert gs.leakage < tol * scale and gs.residual < tol * scale
    slack = 2 * BRACKET_RTOL * scale
    assert -slack <= gs.energy - larger.energy <= rho + slack <= math.sqrt(2) * tol * scale + slack


def random_real_density(rng, dim, rank):
    """A real density matrix with exactly ``rank`` weights, each at least 0.1 / rank."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spectrum = np.zeros(dim)
    spectrum[:rank] = rng.dirichlet(np.ones(rank)) * 0.9 + 0.1 / rank
    rho = (basis * spectrum) @ basis.T
    return (rho + rho.T) / 2


def check_kernels(field, atoms, sigma, phi):
    """The public field and spin functions against the dense operators, to 1e-11."""
    def close(value, dense):
        assert abs(value - dense) <= 1e-11 * max(1.0, abs(dense))

    n_atoms = atoms.dim - 1
    close(qfi_atoms(atoms).value, qfi_mixed(atoms, jx_operator(n_atoms)).value)
    close(spin_variance(atoms, phi), mean_and_variance(atoms, spin_operator(n_atoms, phi))[1])
    close(qfi_field(field).value, qfi_mixed(field, number_operator(field.dim)).value)
    dense = mean_and_variance(field, quadrature_operator(field.dim, sigma))[1]
    close(quadrature_variance(field, sigma), dense)


def check_sweep_columns(field, atoms):
    """The sweep's one-pass columns of a stack of one are the public functions' values, bit
    for bit."""
    def first(column):
        (value,) = column.tolist()
        return value

    f_b, f_a = qfi_field(field), qfi_atoms(atoms)
    expected = (mean_number(field), f_b.value, f_b.scaled, f_a.value, f_a.scaled,
                spin_squeezing_xi2(atoms), 4 * quadrature_variance(field, math.pi / 2))
    # repr tells every float apart by its bits, and shows each NaN as nan
    assert repr(tuple(map(first, sweep_observables(field, atoms)))) == repr(expected)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.integers(1, 30),
    n_fock=st.integers(2, 40),
    rank=st.integers(1, 4),
    sigma=st.floats(0.0, 2 * math.pi),
    phi=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
)
def test_kernels_random_mixed_states(n_atoms, n_fock, rank, sigma, phi, seed, real):
    # real states take real arithmetic in the kernels, complex ones complex
    rng = np.random.default_rng(seed)
    density = random_real_density if real else random_density
    atoms = spectral_decompose(density(rng, n_atoms + 1, min(rank, n_atoms + 1)), "spin")
    field = spectral_decompose(density(rng, n_fock, min(rank, n_fock)), "boson")
    assert np.isrealobj(atoms.vectors) == real
    check_kernels(field, atoms, sigma, phi)
    check_sweep_columns(field, atoms)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.sampled_from([1, 2, 20]),
    lam=st.floats(0.0, 1.5),
    sigma=st.floats(0.0, 2 * math.pi),
    phi=st.floats(0.0, 2 * math.pi),
)
def test_kernels_real_ground_states(n_atoms, lam, sigma, phi):
    field, atoms = schmidt_decompose(solve(ModelParams(1.0, 1.0, lam, n_atoms), 1e-10))
    assert field.vectors.dtype == atoms.vectors.dtype == np.float64
    check_kernels(field, atoms, sigma, phi)
    check_sweep_columns(field, atoms)


def test_kernels_take_a_complex_pure_state():
    # a hand-built complex state: a random unit vector on each subsystem
    rng = np.random.default_rng(3)
    field = SpectralDecomposition(np.ones(1), haar_basis(rng, 12)[:, :1], "boson", 0.0)
    atoms = SpectralDecomposition(np.ones(1), haar_basis(rng, 6)[:, :1], "spin", 0.0)
    check_kernels(field, atoms, 0.7, 2.1)
    check_sweep_columns(field, atoms)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_atoms=st.integers(1, 60), lam=st.floats(1e-3, 3.0))
@example(n_atoms=2, lam=0.00375)
def test_qfi_matches_sld_oracle_to_rounding(n_atoms, lam):
    # every term of the SLD form is non-negative, so F_A and F_B keep the
    # oracle's digits where a variance less a correction would cancel; the
    # oracle keeps the given weights, so weak coupling, where F_B rests on
    # weights near the floor, is covered too
    field, atoms = schmidt_decompose(solve(ModelParams(1.0, 1.0, lam, n_atoms), 1e-10))
    for value, state, generator in ((qfi_atoms(atoms).value, atoms, jx_operator(n_atoms)),
                                    (qfi_field(field).value, field, number_operator(field.dim))):
        oracle = sld_qfi_oracle(state, generator)
        assert abs(value - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("n_atoms,lam", [(2, 0.00375), (60, 2.0)])
def test_qfi_is_stable_under_rounding_of_the_state(n_atoms, lam):
    # F_B at weak coupling and F_A deep in the superradiant phase, where a
    # nearly pure reduced state made the pair-sum form lose digits
    gs = solve(ModelParams(1.0, 1.0, lam, n_atoms), 1e-10)

    def qfis(vector):
        field, atoms = schmidt_decompose(dataclasses.replace(gs, vector=vector))
        return np.array([qfi_atoms(atoms).value, qfi_field(field).value])

    exact = qfis(gs.vector)
    rng = np.random.default_rng(7)
    for _ in range(3):
        signs = rng.choice([-1.0, 1.0], gs.vector.size)
        moved = qfis(gs.vector * (1.0 + 1e-15 * signs))
        assert np.all(np.abs(moved - exact) <= 1e-13 * exact)


def sweep_rows(states, config):
    return [repr(row) for row in compute_sweep_records(states, config)]


def husimi_grids(states, config):
    """Each point's Husimi grids, every array as its bytes."""
    return [[(grid["lambda"], grid["n_atoms"])] + [
        (subsystem, key, value.tobytes() if isinstance(value, np.ndarray) else value)
        for subsystem in ("atoms", "field") for key, value in grid[subsystem].items()]
        for [grid] in compute_husimi_grids(states, config)]


def trajectory_rows(states, config):
    return [repr(rows) for rows in compute_trajectories(states, config)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    point=st.sampled_from((sweep_rows, husimi_grids, trajectory_rows)),
    n_atoms=st.sampled_from((1, 2, 3, 7, 20, 29, 40)),
    lams=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=8),
    fock_cutoff=st.sampled_from((None, None, 4, 13, 16, 33)),
    seed=st.integers(0, 2**16),
)
def test_stacked_sweep_row_matches_point_alone(point, n_atoms, lams, fock_cutoff, seed):
    # every sweep column, every Husimi grid and every cutoff trajectory of a
    # point alone, in its stack and in a shuffled stack, bit for bit: each grid
    # is padded to its own capacity and the batched SVD and observable kernels
    # treat each state of a stack alone.  The fixed cutoffs below N give grids
    # wider than tall, whose SVDs hold more states than the cutoff's, all at
    # weight 0.  A trajectory is a converged point's, so only without a cutoff
    assume(point is not trajectory_rows or fock_cutoff is None)
    config = SweepConfig(mode="sweep", tol=1e-10, fock_cutoff=fock_cutoff, grid_points=11)
    points = [ModelParams(1.0, 1.0, lam, n_atoms) for lam in lams]
    states = solve_stack(points, config.tol, fock_cutoff)
    alone = [result for gs in states for result in point([gs], config)]
    assert point(states, config) == alone
    order = np.random.default_rng(seed).permutation(len(points))
    assert point([states[i] for i in order], config) == [alone[i] for i in order]


def padded_decomposition(state, extra, zero_rows):
    """``state`` with ``extra`` orthonormal vectors of its complement at weight 0, and
    ``zero_rows`` zero rows below its truncated space."""
    rank, dim = state.weights.size, state.dim
    complete, _ = np.linalg.qr(state.vectors, mode="complete")
    vectors = np.concatenate((state.vectors, complete[:, rank : rank + extra]), axis=1)
    vectors = np.concatenate((vectors, np.zeros((zero_rows, vectors.shape[1]))), axis=0)
    weights = np.concatenate((state.weights, np.zeros(vectors.shape[1] - rank)))
    return SpectralDecomposition(weights, vectors, state.space, state.discarded_mass, dim)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.integers(1, 12),
    n_fock=st.integers(2, 24),
    rank=st.integers(1, 4),
    extra=st.integers(0, 6),
    zero_rows=st.integers(0, 9),
    angle=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
)
def test_weight_zero_vectors_and_zero_rows_change_nothing(n_atoms, n_fock, rank, extra,
                                                          zero_rows, angle, seed, real):
    # a Schmidt decomposition keeps the vectors of the weights it sets to 0 and
    # pads each field grid with zero rows; neither moves F, nbar or a variance
    rng = np.random.default_rng(seed)
    density = random_real_density if real else random_density
    atoms = spectral_decompose(density(rng, n_atoms + 1, min(rank, n_atoms + 1)), "spin")
    field = spectral_decompose(density(rng, n_fock, min(rank, n_fock)), "boson")
    padded_atoms = padded_decomposition(atoms, min(extra, n_atoms + 1 - atoms.weights.size), 0)
    padded_field = padded_decomposition(field, min(extra, n_fock - field.weights.size),
                                        zero_rows)

    def close(value, expected, rtol=1e-13):
        assert abs(value - expected) <= rtol * abs(expected)

    for state, padded, qfi, generator in (
            (atoms, padded_atoms, qfi_atoms, jx_operator(n_atoms)),
            (field, padded_field, qfi_field, number_operator(n_fock))):
        value = qfi(padded).value
        close(value, qfi(state).value)
        close(value, sld_qfi_oracle(state, generator), 1e-12)
    close(mean_number(padded_field), mean_number(field))
    close(quadrature_variance(padded_field, angle), quadrature_variance(field, angle))
    close(spin_variance(padded_atoms, angle), spin_variance(atoms, angle))
