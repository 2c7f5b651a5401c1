import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from qfi_reference import (
    BasisIndexer,
    build_boson_ops,
    build_hamiltonian,
    build_spin_ops,
    dense_hamiltonian_block,
    even_block_from_scratch,
    even_indices,
    idx,
    leakage_from_scratch,
    nm,
    parity_signs_from_scratch,
)

import dicke_qfi.solver
from dicke_qfi import cli, model
from dicke_qfi.model import ModelParams, even_band, even_size, leakage


def test_params_validation():
    params = ModelParams(1.0, 4.0, 0.3, 5)
    assert params.lambda_cr == math.sqrt(4.0) / 2
    assert params.j == 2.5
    with pytest.raises(ValueError):
        ModelParams(-1.0, 1.0, 0.0, 2)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, -0.1, 2)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 0.0, 0)
    # a float atom number, whole or not, is rejected, where 2.0 once passed and
    # failed in the solver; a numpy integer is stored as the Python int it holds
    for bad in (2.0, 2.5, None):
        with pytest.raises(ValueError, match="n_atoms must be an integer"):
            ModelParams(1.0, 1.0, 0.5, bad)
    numpy_int = ModelParams(1.0, 1.0, 0.5, np.int64(2))
    assert type(numpy_int.n_atoms) is int
    gs, reference = (dicke_qfi.solver.solve(p) for p in (numpy_int, ModelParams(1.0, 1.0, 0.5, 2)))
    assert (gs.n_cutoff, gs.energy) == (reference.n_cutoff, reference.energy)
    assert gs.vector.tobytes() == reference.vector.tobytes()
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0, 0.1), (1.0, bad, 0.1), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(*args, 2)


def test_boson_ladder_minimal():
    b, _ = build_boson_ops(1)
    assert b.shape == (2, 2)
    assert b[0, 1] == 1.0
    assert np.count_nonzero(b) == 1


def test_number_diagonal():
    _, number = build_boson_ops(3)
    assert_allclose(np.diag(number).real, [0, 1, 2, 3])


def test_boson_commutator_truncated_identity():
    n_cutoff = 9
    b, _ = build_boson_ops(n_cutoff)
    comm = b @ b.conj().T - b.conj().T @ b
    # the truncation only corrupts the top Fock level
    assert_allclose(comm[:n_cutoff, :n_cutoff], np.eye(n_cutoff), atol=1e-14)
    with pytest.raises(ValueError):
        build_boson_ops(0)


def test_spin_half():
    spin = build_spin_ops(1)
    assert_allclose(spin.jz, np.diag([-0.5, 0.5]), atol=1e-15)


def test_jplus_matrix_element_n2():
    # <j,0|J+|j,-1> = sqrt(j(j+1) - m(m+1)) = sqrt(2) for j=1, m=-1
    spin = build_spin_ops(2)
    assert_allclose(spin.jplus[1, 0], math.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("n_atoms", range(1, 7))
def test_su2_commutator(n_atoms):
    spin = build_spin_ops(n_atoms)
    comm = spin.jx @ spin.jy - spin.jy @ spin.jx
    assert np.max(np.abs(comm - 1j * spin.jz)) < 1e-12


@pytest.mark.parametrize("n_atoms,n_cutoff", [(1, 1), (2, 7), (5, 4)])
def test_indexer_roundtrip_bijection(n_atoms, n_cutoff):
    indexer = BasisIndexer(n_cutoff, n_atoms)
    seen = set()
    for n in range(n_cutoff + 1):
        for step in range(n_atoms + 1):
            m = -indexer.j + step
            i = idx(indexer, n, m)
            assert nm(indexer, i) == (n, m)
            seen.add(i)
    assert seen == set(range(indexer.dimension))


def test_indexer_rejects_bad_labels():
    indexer = BasisIndexer(3, 2)
    with pytest.raises(ValueError):
        idx(indexer, 4, 0)
    with pytest.raises(ValueError):
        idx(indexer, 0, 2.0)
    with pytest.raises(ValueError):
        idx(indexer, 0, 0.25)
    with pytest.raises(ValueError):
        nm(indexer, indexer.dimension)


def test_hamiltonian_decoupled_diagonal():
    params = ModelParams(1.0, 1.0, 0.0, 3)
    h = build_hamiltonian(params, BasisIndexer(6, 3))
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) == 0.0
    assert_allclose(np.min(np.diag(h).real), -params.omega0 * params.n_atoms / 2)


def _hamiltonian_by_hand(params: ModelParams, indexer: BasisIndexer) -> np.ndarray:
    """Independent quadruple-loop construction of the same Hamiltonian."""
    j = params.j
    dim = indexer.dimension
    h = np.zeros((dim, dim))
    g = params.lam / math.sqrt(params.n_atoms)
    for n in range(indexer.n_cutoff + 1):
        for ki in range(params.n_atoms + 1):
            m = ki - j
            row = idx(indexer, n, m)
            h[row, row] = params.omega * n + params.omega0 * m
            for dn in (-1, 1):
                for dm in (-1, 1):
                    n2, k2 = n + dn, ki + dm
                    if not (0 <= n2 <= indexer.n_cutoff and 0 <= k2 <= params.n_atoms):
                        continue
                    boson = math.sqrt(n + 1) if dn == 1 else math.sqrt(n)
                    m_low = min(m, m + dm)
                    spin = math.sqrt(j * (j + 1) - m_low * (m_low + 1))
                    h[idx(indexer, n2, k2 - j), row] = g * boson * spin
    return h


def test_hamiltonian_matches_hand_loop():
    params = ModelParams(0.9, 1.3, 0.7, 2)
    indexer = BasisIndexer(4, 2)
    built = build_hamiltonian(params, indexer)
    assert np.max(np.abs(built - _hamiltonian_by_hand(params, indexer))) < 1e-12


def test_hamiltonian_rejects_mismatched_indexer():
    with pytest.raises(ValueError):
        build_hamiltonian(ModelParams(1.0, 1.0, 0.1, 2), BasisIndexer(4, 3))


def test_hamiltonian_selection_rules():
    params = ModelParams(1.0, 1.0, 0.8, 3)
    indexer = BasisIndexer(5, 3)
    h = build_hamiltonian(params, indexer)
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(0, indexer.n_cutoff + 1))
        ki = int(rng.integers(0, params.n_atoms + 1))
        column = h[:, idx(indexer, n, ki - indexer.j)]
        allowed = {idx(indexer, n, ki - indexer.j)}
        for dn in (-1, 1):
            for dm in (-1, 1):
                n2, k2 = n + dn, ki + dm
                if 0 <= n2 <= indexer.n_cutoff and 0 <= k2 <= params.n_atoms:
                    allowed.add(idx(indexer, n2, k2 - indexer.j))
        assert set(np.flatnonzero(np.abs(column) > 0)) <= allowed


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n_atoms=st.integers(1, 12), n_cutoff=st.integers(1, 30), lam=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**16))
def test_leakage_matches_full_space_oracle(n_atoms, n_cutoff, lam, seed):
    # any even-sector vector, not only a ground state: the part of H psi that the
    # dense H one Fock level up puts in the added level.  At lam = 0 it is 0
    params = ModelParams(0.7, 1.3, lam, n_atoms)
    vector = np.random.default_rng(seed).standard_normal(even_size(n_atoms, n_cutoff))
    expected = leakage_from_scratch(params, vector, n_cutoff)
    assert leakage(vector, params, n_cutoff) == pytest.approx(expected, rel=1e-13, abs=1e-300)
    if lam == 0:
        assert leakage(vector, params, n_cutoff) == 0.0


def test_ground_energy_doubled_cutoff_oracle():
    params = ModelParams(1.0, 1.0, 0.3, 2)
    e30 = np.linalg.eigvalsh(build_hamiltonian(params, BasisIndexer(30, 2)))[0]
    e60 = np.linalg.eigvalsh(build_hamiltonian(params, BasisIndexer(60, 2)))[0]
    assert abs(e30 - e60) < 1e-9


def test_hamiltonian_commutes_with_parity():
    params = ModelParams(1.0, 1.0, 0.7, 2)
    indexer = BasisIndexer(12, 2)
    h = build_hamiltonian(params, indexer)
    p = np.diag(parity_signs_from_scratch(indexer))
    assert np.max(np.abs(h @ p - p @ h)) < 1e-12


def test_parity_entries_and_square():
    params = ModelParams(1.0, 1.0, 0.5, 3)
    indexer = BasisIndexer(4, 3)
    p = np.diag(parity_signs_from_scratch(indexer))
    assert p[0, 0] == 1.0  # idx(0, m=-j) has exponent zero
    assert_allclose(p @ p, np.eye(indexer.dimension), atol=1e-15)


def test_parity_conjugation_flips_b_and_jx():
    params = ModelParams(1.0, 1.0, 0.5, 2)
    indexer = BasisIndexer(5, 2)
    p = np.diag(parity_signs_from_scratch(indexer))
    b, _ = build_boson_ops(indexer.n_cutoff)
    spin = build_spin_ops(params.n_atoms)
    b_full = np.kron(b, np.eye(indexer.spin_dim))
    jx_full = np.kron(np.eye(indexer.boson_dim), spin.jx)
    assert np.max(np.abs(p.conj().T @ b_full @ p + b_full)) < 1e-14
    assert np.max(np.abs(p.conj().T @ jx_full @ p + jx_full)) < 1e-14


def test_parity_blocks_minimal_case():
    # full indices 0 and 3, |0>|j,-j> and |1>|j,+j>; the sector stores no index
    assert even_indices(BasisIndexer(1, 1)).tolist() == [0, 3]
    assert even_size(1, 1) == 2
    (grid,) = model.amplitude_grids(1, [np.array([1.0, 2.0])], [1])
    assert grid.tolist() == [[1.0, 0.0], [0.0, 2.0]]


@pytest.mark.parametrize("n_atoms", range(1, 10))
def test_even_layout_matches_parity_signs(n_atoms):
    # cutoffs 1 to 17 take in the powers of two to 16 and their neighbours, so
    # most grids are padded to a larger capacity
    for n_cutoff in range(1, 18):
        indexer = BasisIndexer(n_cutoff, n_atoms)
        even = even_indices(indexer)
        assert model.even_size(n_atoms, n_cutoff) == even.size
        # each amplitude lands at its full index of a padded grid, and nothing else is written
        vector = np.arange(1.0, even.size + 1)
        (grid,) = model.amplitude_grids(n_atoms, [vector], [n_cutoff])
        assert grid.shape == (model.capacity(n_cutoff) + 1, n_atoms + 1)
        expected = np.zeros(grid.size)
        expected[even] = vector
        assert np.array_equal(grid.ravel(), expected)


@pytest.mark.parametrize("n_cutoff", [0, -1])
def test_basis_without_a_level_or_an_atom_rejected(n_cutoff):
    with pytest.raises(ValueError, match="n_cutoff"):
        even_band([ModelParams(1.0, 1.0, 0.5, 3)], [n_cutoff])
    with pytest.raises(ValueError, match="n_atoms"):
        ModelParams(1.0, 1.0, 0.5, n_cutoff)


@pytest.mark.parametrize("n_atoms,n_cutoff", [(1, 6), (3, 9), (4, 10)])
def test_parity_block_sizes(n_atoms, n_cutoff):
    # the even sector and the odd one of the parity signs partition the basis
    indexer = BasisIndexer(n_cutoff, n_atoms)
    size = even_size(n_atoms, n_cutoff)
    odd = np.flatnonzero(parity_signs_from_scratch(indexer) < 0)
    assert size == even_indices(indexer).size
    assert size + odd.size == indexer.dimension
    assert size > 0
    assert abs(size - odd.size) <= n_atoms + 1
    # a vector of ones fills exactly the even full indices of its grid
    (grid,) = model.amplitude_grids(n_atoms, [np.ones(size)], [n_cutoff])
    assert np.array_equal(np.flatnonzero(grid), even_indices(indexer))


def test_block_restriction_reproduces_action():
    # one, two and three coupling offsets, each block written into a band after
    # a block of another coupling and cutoff; the Kronecker product is the oracle
    for n_atoms, n_cutoff, offsets in ((1, 6, [1]), (2, 5, [1, 2]), (3, 7, [1, 2, 3]),
                                       (4, 6, [2, 3])):
        params = ModelParams(1.0, 1.2, 0.6, n_atoms)
        indexer = BasisIndexer(n_cutoff, n_atoms)
        even = even_indices(indexer)
        h = build_hamiltonian(params, indexer)
        oracle = h[np.ix_(even, even)].real
        before = ModelParams(1.0, 1.2, 1.1, n_atoms)
        _, _, [_, (diagonal, upper)] = even_band([before, params], [n_cutoff + 3, n_cutoff])
        assert diagonal.size == even.size
        assert list(upper) == offsets
        assert np.max(np.abs(diagonal - np.diagonal(oracle))) < 1e-14
        kd = max(upper)
        assert kd == (1 if n_atoms == 1 else (n_atoms + 1) // 2 + 1)
        for d in range(1, kd + 1):
            coupling = upper.get(d, np.zeros(even.size - d))
            assert np.max(np.abs(coupling - np.diagonal(oracle, d))) < 1e-14
        # nothing beyond kd
        assert not np.triu(oracle, kd + 1).any()
        rng = np.random.default_rng(3)
        vec = np.zeros(indexer.dimension)
        vec[even] = rng.standard_normal(even.size)
        applied = h @ vec
        block_applied = dicke_qfi.solver._block_matvec((diagonal, upper), vec[even])
        assert np.max(np.abs(applied[even] - block_applied)) < 1e-12
        # an even-parity vector never leaks into the odd sector
        odd_mask = np.ones(indexer.dimension, dtype=bool)
        odd_mask[even] = False
        assert np.max(np.abs(applied[odd_mask])) == 0.0



# (omega, omega0, lam): lam = 0, the critical point, either side of it, and
# integers, whose products with the Fock numbers must not wrap
BLOCK_PARAMS = ((1.0, 1.0, 0.0), (1.0, 1.0, 0.5), (0.7, 1.3, 2.5), (1.9, 0.4, 0.1),
                (300, 7, 2))


def assert_matches_scratch(points, cutoffs):
    """Each block of a round of points of one N, written into one band at its cutoff,
    equals a build from scratch, bit for bit, and nothing else of the band is written; its
    vectors' grids hold the even sector; a block of at most 200 positions also equals
    ``dense_hamiltonian_block``.  The band holds the offsets of every block, kd the
    largest: each block starts kd rows after the one before it ends, the first after kd
    zero rows, and kd zero rows end the band."""
    (band_diagonal, band_upper), rows, blocks = even_band(points, cutoffs)
    assert list(band_upper) == sorted({d for _, upper in blocks for d in upper})
    kd = max(band_upper)
    *expected_rows, end = itertools.accumulate(
        (diagonal.size + kd for diagonal, _ in blocks), initial=kd)
    assert rows == expected_rows
    assert band_diagonal.size == end
    assert all(coupling.size == end - d for d, coupling in band_upper.items())
    expected_band = np.zeros(band_diagonal.size), {d: np.zeros(c.size) for d, c in band_upper.items()}
    for params, n_cutoff, row, (diagonal, upper) in zip(points, cutoffs, rows, blocks):
        indexer = BasisIndexer(n_cutoff, params.n_atoms)
        expected_diagonal, expected_upper = even_block_from_scratch(params, indexer)
        assert np.array_equal(diagonal, expected_diagonal)
        assert diagonal.dtype == np.float64
        assert list(upper) == list(expected_upper)
        for d, coupling in upper.items():
            assert np.array_equal(coupling, expected_upper[d])
            expected_band[1][d][row:row + coupling.size] = coupling
        expected_band[0][row:row + diagonal.size] = diagonal
        if diagonal.size <= 200:
            dense = np.diag(diagonal)
            for d, coupling in upper.items():
                dense += np.diag(coupling, d) + np.diag(coupling, -d)
            assert np.array_equal(dense, dense_hamiltonian_block(params, indexer))
        # position p of the block is the p-th index of the +1 parity set, in order
        even = even_indices(indexer)
        assert diagonal.size == even_size(params.n_atoms, n_cutoff) == even.size
        (grid,) = model.amplitude_grids(params.n_atoms, [np.arange(1.0, even.size + 1)], [n_cutoff])
        assert np.array_equal(grid.ravel()[even], np.arange(1.0, even.size + 1))
        assert np.count_nonzero(grid) == even.size
    assert np.array_equal(band_diagonal, expected_band[0])
    assert all(np.array_equal(band_upper[d], expected_band[1][d]) for d in band_upper)


@pytest.mark.parametrize("n_atoms", [*range(1, 8), 20, 21, 100, 101])
def test_cached_block_matches_closed_form_bitwise(n_atoms):
    # every cutoff is written under each parameter set in turn and its
    # predecessor once more, all into one band per cutoff, so each block
    # follows a block of another lam or omega, or another cutoff, and reads
    # units formed at a larger cutoff; nothing of one write may leak into the next
    for n_cutoff in range(1, 42):
        points, cutoffs = [], []
        for omega, omega0, lam in BLOCK_PARAMS:
            params = ModelParams(omega, omega0, lam, n_atoms)
            points += [params] * min(n_cutoff, 2)
            cutoffs += [n_cutoff, n_cutoff - 1][:min(n_cutoff, 2)]
        assert_matches_scratch(points, cutoffs)


LADDER_SIZES = [*range(1, 65), 1001, 2060]


@pytest.mark.parametrize("n_atoms", range(1, 65))
def test_spin_ladder_is_the_jplus_matrix_element(n_atoms):
    # J+|k-1> = sqrt(k(N+1-k)) |k>, k = m + j, and the ladder stops at both ends
    ladder = model.spin_ladder(n_atoms)
    jplus = build_spin_ops(n_atoms).jplus
    assert ladder[0] == ladder[-1] == 0.0
    assert np.array_equal(ladder[1:-1], np.diag(jplus, -1).real)


@pytest.mark.parametrize("n_atoms", LADDER_SIZES)
def test_spin_ladder_has_the_bits_of_each_formula_it_serves(n_atoms):
    # leakage's J+ and J- coefficients on each parity of k, and metrology's
    # factor over k = 0 .. N+1: each an exact integer under the square root
    ladder = model.spin_ladder(n_atoms)
    assert not ladder.flags.writeable
    with pytest.raises(ValueError):
        ladder[0] = 1.0
    for parity in (0, 1):
        k = np.arange(parity, n_atoms + 1, 2)
        assert np.array_equal(ladder[parity + 1::2], np.sqrt((k + 1.0) * (n_atoms - k)))
        assert np.array_equal(ladder[parity:n_atoms + 1:2], np.sqrt(k * (n_atoms + 1.0 - k)))
    dim = n_atoms + 1
    k = np.arange(dim + 1.0)
    assert np.array_equal(ladder, np.sqrt(k * (dim - k)))


@pytest.mark.parametrize("n_atoms", LADDER_SIZES)
def test_log_spin_amplitudes_have_the_bits_of_both_forms(n_atoms):
    # the mean-field start read its factorials from a table longer than N + 1,
    # the atomic Husimi kernel from one of N + 1; both rounded alike
    rng = np.random.default_rng(n_atoms)
    log_cos, log_sin = np.log(rng.uniform(0.01, 1.0, size=(2, 5, 1)))
    got = model.log_spin_amplitudes(n_atoms, log_cos, log_sin)
    k = np.arange(n_atoms + 1)
    longer = model.log_factorials(n_atoms + 77)
    mean_field = (0.5 * (longer[n_atoms] - longer[: n_atoms + 1] - longer[n_atoms::-1])
                  + (n_atoms - k) * log_cos + k * log_sin)
    table = model.log_factorials(n_atoms)
    husimi = (0.5 * (table[n_atoms] - table - table[::-1])
              + (n_atoms - k) * log_cos + k * log_sin)
    assert got.shape == (5, n_atoms + 1)
    assert np.array_equal(got, mean_field) and np.array_equal(got, husimi)


def test_even_block_arrays_are_fresh_and_writable():
    # the blocks are views of their round's band; overwriting them reaches
    # nothing that the next round reads, so its block is the block again
    params = ModelParams(1.0, 1.0, 0.8, 3)
    indexer = BasisIndexer(9, 3)
    expected_diagonal, expected_upper = even_block_from_scratch(params, indexer)
    for _ in range(2):
        (band_diagonal, _), _, [(diagonal, upper)] = even_band([params], [indexer.n_cutoff])
        assert np.shares_memory(diagonal, band_diagonal)
        assert np.array_equal(diagonal, expected_diagonal)
        assert list(upper) == list(expected_upper)
        for d, coupling in upper.items():
            assert np.array_equal(coupling, expected_upper[d])
        diagonal[:] = -1.0
        for coupling in upper.values():
            coupling[:] = -1.0


BLOCK_ATOMS = (*range(1, 9), 20, 21)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    requests=st.lists(st.tuples(st.sampled_from(BLOCK_ATOMS), st.integers(1, 60)),
                      min_size=1, max_size=24),
    order=st.sampled_from(("ascending", "descending", "mixed")),
    block_params=st.sampled_from(BLOCK_PARAMS),
)
def test_prefix_views_match_scratch_in_any_request_order(requests, order, block_params):
    # interleaved atom numbers and cutoffs, each block written in a round of its
    # own; each must equal a build from scratch whatever was written before it
    if order != "mixed":
        requests.sort(key=lambda request: request[1], reverse=order == "descending")
    omega, omega0, lam = block_params
    for n_atoms, n_cutoff in requests:
        assert_matches_scratch([ModelParams(omega, omega0, lam, n_atoms)], [n_cutoff])


def test_superradiant_sweep_forms_units_once_per_round(tmp_path, monkeypatch):
    # initial_cutoff moves with lam^2 N, so nearly every point asks for a new
    # cutoff; the units are formed once per round, not per block: 7 rounds on
    # this grid, where a build per basis took 34
    units, calls = model._units, []
    monkeypatch.setattr(model, "_units", lambda *args: calls.append(args) or units(*args))
    argv = ["sweep", "--n-atoms", "20", "--lambda-steps", "21", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    assert len(calls) == 7
    assert cli.main(argv) == 0
    assert len(calls) == 14
