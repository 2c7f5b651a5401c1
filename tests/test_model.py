import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from qfi_reference import (
    build_boson_ops,
    build_hamiltonian,
    build_spin_ops,
    even_block_from_scratch,
    idx,
    nm,
    parity_signs_from_scratch,
)

import dicke_qfi.solver
from dicke_qfi import cli, model
from dicke_qfi.model import (
    BasisIndexer,
    ModelParams,
    build_even_block,
    even_sector,
)


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
    even = even_sector(BasisIndexer(1, 1)).index
    assert even.tolist() == [0, 3]


@pytest.mark.parametrize("n_atoms,n_cutoff", [(1, 6), (3, 9), (4, 10)])
def test_parity_block_sizes(n_atoms, n_cutoff):
    # the even sector and the odd one of the parity signs partition the basis
    indexer = BasisIndexer(n_cutoff, n_atoms)
    even = even_sector(indexer).index
    odd = np.flatnonzero(parity_signs_from_scratch(indexer) < 0)
    assert even.size + odd.size == indexer.dimension
    assert even.size > 0
    assert abs(even.size - odd.size) <= n_atoms + 1


def test_block_restriction_reproduces_action():
    # one, two and three coupling offsets; the Kronecker product is the oracle
    for n_atoms, n_cutoff, offsets in ((1, 6, [1]), (2, 5, [1, 2]), (3, 7, [1, 2, 3]),
                                       (4, 6, [2, 3])):
        params = ModelParams(1.0, 1.2, 0.6, n_atoms)
        indexer = BasisIndexer(n_cutoff, n_atoms)
        even = even_sector(indexer).index
        h = build_hamiltonian(params, indexer)
        oracle = h[np.ix_(even, even)].real
        diagonal, upper = build_even_block(params, indexer)
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
# integers, whose products with the cached unsigned Fock numbers must not wrap
BLOCK_PARAMS = ((1.0, 1.0, 0.0), (1.0, 1.0, 0.5), (0.7, 1.3, 2.5), (1.9, 0.4, 0.1),
                (300, 7, 2))


def assert_matches_scratch(params, indexer):
    """The cached block and even sector equal a build from scratch, bit for bit."""
    diagonal, upper = build_even_block(params, indexer)
    expected_diagonal, expected_upper = even_block_from_scratch(params, indexer)
    assert np.array_equal(diagonal, expected_diagonal)
    assert diagonal.dtype == np.float64
    assert list(upper) == list(expected_upper)
    for d, coupling in upper.items():
        assert np.array_equal(coupling, expected_upper[d])
    sector = even_sector(indexer)
    assert np.array_equal(sector.index, np.flatnonzero(parity_signs_from_scratch(indexer) == 1))
    n, k = np.divmod(sector.index, indexer.spin_dim)
    assert np.array_equal(sector.n, n)
    assert np.array_equal(sector.k, k)


@pytest.mark.parametrize("n_atoms", [*range(1, 8), 20, 21, 100, 101])
def test_cached_block_matches_closed_form_bitwise(n_atoms):
    # every cutoff is built under each parameter set in turn and its
    # predecessor once more, so each cache hit follows a block of another
    # lam or omega, or another cutoff; nothing of one build may leak into the next
    for n_cutoff in range(1, 42):
        for omega, omega0, lam in BLOCK_PARAMS:
            params = ModelParams(omega, omega0, lam, n_atoms)
            assert_matches_scratch(params, BasisIndexer(n_cutoff, n_atoms))
            if n_cutoff > 1:
                assert_matches_scratch(params, BasisIndexer(n_cutoff - 1, n_atoms))


def test_cached_parity_arrays_are_read_only():
    indexer = BasisIndexer(9, 3)
    sector = even_sector(indexer)
    before = [array.copy() for array in sector]
    for array in sector:
        with pytest.raises(ValueError):
            array[0] = 7
    again = even_sector(indexer)
    for old, new in zip(before, again):
        assert np.array_equal(old, new)


def test_even_block_arrays_are_fresh_and_writable():
    params = ModelParams(1.0, 1.0, 0.8, 3)
    indexer = BasisIndexer(9, 3)
    diagonal, upper = build_even_block(params, indexer)
    expected_diagonal, expected_upper = even_block_from_scratch(params, indexer)
    diagonal[:] = -1.0
    for coupling in upper.values():
        coupling[:] = -1.0
    upper.clear()
    diagonal, upper = build_even_block(params, indexer)
    assert np.array_equal(diagonal, expected_diagonal)
    assert list(upper) == list(expected_upper)
    for d, coupling in upper.items():
        assert np.array_equal(coupling, expected_upper[d])


@pytest.fixture
def skeleton_builds(monkeypatch):
    """An empty skeleton cache, and the cutoff of each skeleton built, in order, by N."""
    monkeypatch.setattr(model, "_skeletons", {})
    builds: dict[int, list[int]] = {}
    real = model._build_skeleton

    def counted(indexer):
        builds.setdefault(indexer.n_atoms, []).append(indexer.n_cutoff)
        return real(indexer)

    monkeypatch.setattr(model, "_build_skeleton", counted)
    return builds


SKELETON_ATOMS = (*range(1, 9), 20, 21)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    requests=st.lists(st.tuples(st.sampled_from(SKELETON_ATOMS), st.integers(1, 60)),
                      min_size=1, max_size=24),
    order=st.sampled_from(("ascending", "descending", "mixed")),
    hard_cap=st.sampled_from((model.HARD_CAP, 40)),
    block_params=st.sampled_from(BLOCK_PARAMS),
)
def test_prefix_views_match_scratch_in_any_request_order(requests, order, hard_cap, block_params):
    # interleaved atom numbers and cutoffs, with the hard cap both far off and
    # below some requests; each answer is a view of whichever skeleton its N
    # has at the time, and must equal a build from scratch all the same
    if order != "mixed":
        requests.sort(key=lambda request: request[1], reverse=order == "descending")
    omega, omega0, lam = block_params
    largest = 0  # the largest request since the cached skeleton's N was last built
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_skeletons", {})
        patch.setattr(model, "HARD_CAP", hard_cap)
        for n_atoms, n_cutoff in requests:
            if n_atoms not in model._skeletons:
                largest = 0
            assert_matches_scratch(ModelParams(omega, omega0, lam, n_atoms),
                                   BasisIndexer(n_cutoff, n_atoms))
            largest = max(largest, n_cutoff)
            assert list(model._skeletons) == [n_atoms]  # the last N alone stays cached
            capacity = model._skeletons[n_atoms][0]
            assert n_cutoff <= capacity <= 2 * largest
            assert capacity <= hard_cap or capacity == largest


def test_views_handed_out_survive_growth(skeleton_builds):
    params = ModelParams(0.7, 1.3, 2.5, 5)
    small = BasisIndexer(9, 5)
    diagonal, upper = build_even_block(params, small)
    handed_out = [*even_sector(small), diagonal, *upper.values()]
    copies = [array.copy() for array in handed_out]
    # far past twice the first skeleton, so it is replaced and its views dropped
    assert_matches_scratch(params, BasisIndexer(50, 5))
    assert skeleton_builds[5] == [9, 50]
    for array, copy in zip(handed_out, copies):
        assert np.array_equal(array, copy)
    assert_matches_scratch(params, small)  # now a view of the new skeleton
    assert skeleton_builds[5] == [9, 50]


def test_skeleton_grows_geometrically_under_the_hard_cap(skeleton_builds, monkeypatch):
    monkeypatch.setattr(model, "HARD_CAP", 100)
    for n_cutoff in range(1, 101):
        even_sector(BasisIndexer(n_cutoff, 3))
    assert skeleton_builds[3] == [1, 2, 4, 8, 16, 32, 64, 100]
    # a single request above the cap is built at its own size, no larger
    even_sector(BasisIndexer(130, 3))
    assert skeleton_builds[3][-1] == 130


def test_superradiant_sweep_builds_few_skeletons(skeleton_builds, tmp_path):
    # initial_cutoff moves with lam^2 N, so nearly every point asks for a new
    # cutoff pair; a skeleton per basis took 34 builds on this grid
    argv = ["sweep", "--n-atoms", "20", "--lambda-steps", "21", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    assert len(skeleton_builds[20]) <= 4
    assert cli.main(argv) == 0
    assert len(skeleton_builds[20]) <= 4
