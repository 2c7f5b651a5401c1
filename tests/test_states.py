import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfi_reference import (
    BasisIndexer,
    build_boson_ops,
    build_spin_ops,
    expectation,
    partial_trace_atoms,
    partial_trace_field,
    product_vector,
    spectral_decompose,
)

from dicke_qfi.model import (
    ModelParams,
    amplitude_grids,
    capacity,
    padded_shape,
    tail_population,
)
from dicke_qfi.solver import ground_states, solve
from dicke_qfi.states import SpectralDecomposition, schmidt_decompose, schmidt_stack


@pytest.fixture(scope="module")
def dicke_n6():
    params = ModelParams(1.0, 1.0, 0.54, 6)
    gs = solve(params, 1e-10)
    return gs


def test_decoupled_reductions_are_pure():
    gs = solve(ModelParams(1.0, 1.0, 0.0, 4), fock_cutoff=8)
    rho_b = partial_trace_atoms(gs)
    rho_a = partial_trace_field(gs)
    indexer = BasisIndexer(gs.n_cutoff, gs.params.n_atoms)
    vacuum = np.zeros((indexer.boson_dim,) * 2)
    vacuum[0, 0] = 1.0
    assert_allclose(rho_b, vacuum, atol=1e-14)
    lowest = np.zeros((indexer.spin_dim,) * 2)
    lowest[0, 0] = 1.0  # |j,-j> sits at m+j = 0
    assert_allclose(rho_a, lowest, atol=1e-14)
    assert abs(np.trace(rho_b @ rho_b).real - 1.0) < 1e-12


def test_unit_trace_at_strong_coupling():
    gs = solve(ModelParams(1.0, 1.0, 1.0, 20), fock_cutoff=240)
    assert abs(np.trace(partial_trace_field(gs)).real - 1.0) < 1e-12
    assert abs(np.trace(partial_trace_atoms(gs)).real - 1.0) < 1e-12


def test_schmidt_duality(dicke_n6):
    rho_a = partial_trace_field(dicke_n6)
    rho_b = partial_trace_atoms(dicke_n6)
    spec_a = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
    spec_b = np.sort(np.linalg.eigvalsh(rho_b))[::-1]
    k = min(spec_a.size, spec_b.size)
    assert np.max(np.abs(spec_a[:k] - spec_b[:k])) < 1e-10
    assert np.all(spec_b[k:] < 1e-10)


def test_positive_semidefinite(dicke_n6):
    for rho in (partial_trace_field(dicke_n6), partial_trace_atoms(dicke_n6)):
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def test_field_parity_checkerboard(dicke_n6):
    # definite global parity means rho_B couples only Fock states of equal parity
    rho_b = partial_trace_atoms(dicke_n6)
    n = np.arange(rho_b.shape[0])
    odd_pairs = (n[:, None] + n[None, :]) % 2 == 1
    assert np.max(np.abs(rho_b[odd_pairs])) < 1e-12


def test_reduced_coherences_vanish(dicke_n6):
    rho_b = partial_trace_atoms(dicke_n6)
    rho_a = partial_trace_field(dicke_n6)
    b, _ = build_boson_ops(rho_b.shape[0] - 1)
    spin = build_spin_ops(rho_a.shape[0] - 1)
    assert abs(expectation(rho_b, b)) < 1e-10
    assert abs(expectation(rho_a, spin.jplus)) < 1e-10


def test_ultrastrong_mixture_weights(ultrastrong_n6):
    weights = np.sort(np.linalg.eigvalsh(ultrastrong_n6["rho_a"]))[::-1]
    assert abs(weights[0] - 0.5) < 0.05
    assert abs(weights[1] - 0.5) < 0.05


def test_spectral_decompose_pure_state():
    decomp = spectral_decompose(np.diag([1.0, 0.0, 0.0]).astype(complex), "boson")
    assert decomp.weights.size == 1
    assert_allclose(decomp.weights, [1.0])
    assert abs(decomp.discarded_mass) < 1e-12


def test_spectral_decompose_maximally_mixed():
    decomp = spectral_decompose(np.eye(2) / 2, "spin")
    assert_allclose(decomp.weights, [0.5, 0.5])


def test_spectral_decompose_reconstruction(dicke_n6):
    rho = partial_trace_atoms(dicke_n6)
    decomp = spectral_decompose(rho, "boson")
    rebuilt = (decomp.vectors * decomp.weights) @ decomp.vectors.conj().T
    gap = np.linalg.eigvalsh(rho - rebuilt)
    trace_norm = float(np.sum(np.abs(gap)))
    assert trace_norm <= abs(decomp.discarded_mass) + 1e-10
    assert abs(np.sum(decomp.weights) + decomp.discarded_mass - 1.0) < 1e-10
    overlaps = decomp.vectors.conj().T @ decomp.vectors
    assert np.max(np.abs(overlaps - np.eye(decomp.weights.size))) < 1e-10


def _rebuild(decomp: SpectralDecomposition) -> np.ndarray:
    return (decomp.vectors * decomp.weights) @ decomp.vectors.conj().T


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.54, 1.0])
@pytest.mark.parametrize("n_atoms, n_cutoff, stacked", [
    (1, 30, False), (6, 40, False), (20, 80, True),
    (1, 31, False), (2, 20, False), (2, 21, False), (3, 16, False), (3, 17, False),
    (6, 41, False),
])
def test_schmidt_matches_partial_trace_spectra(n_atoms, n_cutoff, stacked, lam):
    # a solve at the cutoff, alone or in a stack between two other couplings at other
    # cutoffs.  Even cutoffs at even N leave the last Fock row without an odd partner
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    if stacked:
        neighbours = [ModelParams(1.0, 1.0, other, n_atoms) for other in (0.7, 1.4)]
        [_, gs, _] = ground_states([neighbours[0], params, neighbours[1]],
                                   [n_cutoff // 2, n_cutoff, n_cutoff + 3])
    else:
        [gs] = ground_states([params], [n_cutoff])
    # the strided layout of the even amplitudes is the embedding through the
    # parity signs, bit for bit, in the first rows of a slab of zeros padded to
    # the power of two at or above the cutoff; the tail is the grid's top 10% of rows
    grid = product_vector(gs).reshape(n_cutoff + 1, n_atoms + 1)
    (slab,) = amplitude_grids(n_atoms, [gs.vector], [n_cutoff])
    assert slab.shape == padded_shape(n_atoms, n_cutoff) == (capacity(n_cutoff) + 1, n_atoms + 1)
    assert np.array_equal(slab[: n_cutoff + 1], grid) and not slab[n_cutoff + 1:].any()
    tail = np.sum(grid[math.ceil(0.9 * (n_cutoff + 1)):] ** 2)
    assert abs(tail_population(gs.vector, n_atoms, n_cutoff) - tail) <= 1e-15 * tail
    field, atoms = schmidt_decompose(gs)
    assert field.levels == n_cutoff + 1 and atoms.levels == n_atoms + 1
    for schmidt, rho, space in ((field, partial_trace_atoms(gs), "boson"),
                                (atoms, partial_trace_field(gs), "spin")):
        oracle = spectral_decompose(rho, space)
        assert schmidt.space == oracle.space
        # the weights at or below the floor are set to 0, their vectors kept
        rank = oracle.weights.size
        assert np.count_nonzero(schmidt.weights) == rank and not schmidt.weights[rank:].any()
        assert np.max(np.abs(schmidt.weights[:rank] - oracle.weights)) < 1e-12
        rebuilt = _rebuild(schmidt)
        size = rho.shape[0]
        assert np.max(np.abs(rebuilt[:size, :size] - _rebuild(oracle))) < 1e-12
        assert not rebuilt[size:].any() and not rebuilt[:, size:].any()
        assert abs(schmidt.discarded_mass - oracle.discarded_mass) < 1e-12


def test_schmidt_stack_takes_one_padded_shape():
    # cutoffs 20 and 40 pad to capacities 32 and 64: one batched SVD cannot take both
    params = ModelParams(1.0, 1.0, 0.5, 2)
    states = [solve(params, fock_cutoff=n_cutoff) for n_cutoff in (20, 40)]
    with pytest.raises(ValueError, match="one padded shape"):
        schmidt_stack(states)
    field, atoms = schmidt_stack(states[:1])
    assert field.weights.shape[0] == atoms.weights.shape[0] == 1
    # the field spans 21 of its 33 rows, the atoms all N + 1 of theirs, and both
    # carry the one array of masses the Schmidt step drops
    assert field.levels.tolist() == [21] and atoms.levels.tolist() == [3]
    assert field.discarded_mass is atoms.discarded_mass


def test_hand_built_levels_are_the_rows():
    # left out, levels is every row: a number for one state, one count per state
    # of a stack, kept by indexing and by as_stack
    vectors = np.eye(5)[:, :2]
    one = SpectralDecomposition(np.array([0.7, 0.3]), vectors, "boson", 0.0)
    assert one.levels == 5 and one.as_stack().levels.tolist() == [5]
    stack = SpectralDecomposition(np.full((3, 2), 0.5), np.stack([vectors] * 3), "spin",
                                  np.zeros(3))
    assert stack.levels.tolist() == [5, 5, 5] and stack[2].levels == 5
    assert SpectralDecomposition(np.ones(1), vectors[:, :1], "boson", 0.0, 3).levels == 3
