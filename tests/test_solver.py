import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from qfi_reference import (
    build_boson_ops,
    build_hamiltonian,
    build_spin_ops,
    dense_hamiltonian_block,
    expectation,
    full_grid_start_vector,
    parity_signs_from_scratch,
    partial_trace_atoms,
)
from scipy.linalg import lapack

import dicke_qfi.model
import dicke_qfi.solver
from dicke_qfi.cli import SweepConfig, compute_sweep_record
from dicke_qfi.errors import ConvergenceError, SolverError
from dicke_qfi.model import BasisIndexer, ModelParams, even_sector
from dicke_qfi.solver import (
    BANDED_MAX_ATOMS,
    BRACKET_RTOL,
    converge_cutoff,
    ground_state,
    initial_cutoff,
)


def force_lanczos(monkeypatch, n_atoms):
    """Move the banded-path threshold just below N."""
    monkeypatch.setattr(dicke_qfi.solver, "BANDED_MAX_ATOMS", n_atoms - 1)


def _product_op(boson_op, spin_op, indexer):
    return np.kron(boson_op, spin_op)


def test_decoupled_ground_state():
    params = ModelParams(1.0, 1.0, 0.0, 4)
    gs = ground_state(params, 10)
    assert_allclose(gs.energy, -params.omega0 * params.n_atoms / 2, atol=1e-14)
    expected = np.zeros(gs.indexer.dimension)
    expected[0] = 1.0  # |n=0>|j,-j>
    assert_allclose(gs.vector.real, expected, atol=1e-14)
    parity = np.diag(parity_signs_from_scratch(gs.indexer))
    assert abs(expectation(gs, parity).real - 1.0) < 1e-12
    assert gs.convergence.tail_population == 0.0


@pytest.mark.parametrize("lam,lanczos", [(0.6, False), (0.6, True), (0.0, False)],
                         ids=["banded", "lanczos", "decoupled"])
def test_ground_state_norm_and_phase(lam, lanczos, monkeypatch):
    # H and its even block are real, so the state is stored real and sign-fixed
    if lanczos:
        force_lanczos(monkeypatch, 3)
    gs = ground_state(ModelParams(1.0, 1.0, lam, 3), 24)
    assert (gs.convergence.lower_bound is None) == lanczos
    assert gs.vector.dtype == np.float64
    assert abs(np.linalg.norm(gs.vector) - 1.0) < 1e-12
    assert gs.vector[np.argmax(np.abs(gs.vector))] > 0


def test_vanishing_coherence_from_parity():
    params = ModelParams(1.0, 1.0, 0.3, 2)
    gs = ground_state(params, 30)
    indexer = gs.indexer
    b, _ = build_boson_ops(indexer.n_cutoff)
    spin = build_spin_ops(params.n_atoms)
    b_full = _product_op(b, np.eye(indexer.spin_dim), indexer)
    jx_full = _product_op(np.eye(indexer.boson_dim), spin.jx, indexer)
    assert abs(expectation(gs, b_full)) < 1e-10
    assert abs(expectation(gs, jx_full)) < 1e-10


def test_energy_against_full_space_oracle():
    # dense eigensolve at doubled cutoff without any parity reduction
    params = ModelParams(1.0, 1.0, 0.54, 6)
    gs = ground_state(params, 40)
    oracle = np.linalg.eigvalsh(build_hamiltonian(params, BasisIndexer(80, 6)))[0]
    assert abs(gs.energy - oracle) < 1e-9


def test_variational_monotonicity():
    params = ModelParams(1.0, 1.0, 0.8, 3)
    energies = [ground_state(params, n).energy for n in (10, 20, 40, 80)]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


@pytest.mark.parametrize("lam,n_atoms", [(0.2, 2), (0.54, 6), (0.9, 4)])
def test_parity_purity(lam, n_atoms):
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    _, gs = converge_cutoff(params, 1e-10)
    parity = np.diag(parity_signs_from_scratch(gs.indexer))
    assert abs(expectation(gs, parity).real - 1.0) < 1e-8


def test_initial_cutoff_heuristic():
    assert initial_cutoff(ModelParams(1.0, 1.0, 0.0, 2)) == 20
    assert initial_cutoff(ModelParams(1.0, 1.0, 0.1, 2)) == 20
    # nb = lam^2 N / omega^2 = 20: ceil(20 + 8 sqrt(20)) + 10
    assert initial_cutoff(ModelParams(1.0, 1.0, 1.0, 20)) == 66
    assert initial_cutoff(ModelParams(1.0, 1.0, 3.0, 2)) == 62


@pytest.mark.parametrize("omega,omega0,lam,n_atoms", [
    (1.0, 1.0, 1e-12, 20), (1.0, 1.0, 1e-9, 20),
    (1.0, 1.0, 1.0, 20), (1.0, 1.0, 3.0, 2), (1.0, 1.0, 0.5, 20),
    (0.3, 3.0, 0.5, 10), (0.3, 3.0, 1.0, 10), (3.0, 0.2, 1.0, 6), (3.0, 0.2, 2.0, 6),
    (1.0, 1.0, 1.0, 50), (1.0, 1.0, 1.0, 100),
])
def test_initial_cutoff_converges_in_one_doubling(omega, omega0, lam, n_atoms):
    # the start covers the occupied Fock range, so the second solve is the converged one;
    # the earlier start, ceil(8 nb) + 10, solved spaces 3-5x larger.  At tiny lam the
    # top Fock levels underflow to a zero tail, which must not end the doubling early
    params = ModelParams(omega, omega0, lam, n_atoms)
    n_cutoff, gs = converge_cutoff(params, 1e-10)
    assert len(gs.convergence.steps) == 2
    assert n_cutoff == 2 * initial_cutoff(params)
    former_start = max(20, math.ceil(8 * lam**2 * n_atoms / omega**2) + 10)
    assert n_cutoff <= 2 * former_start


def test_converge_decoupled_returns_at_start():
    params = ModelParams(1.0, 1.0, 0.0, 3)
    n_cutoff, gs = converge_cutoff(params, 1e-10)
    assert n_cutoff == 20
    assert gs.convergence.tail_population == 0.0
    assert len(gs.convergence.steps) == 1


def test_converge_records_doubling_trajectory():
    params = ModelParams(1.0, 1.0, 0.5, 4)
    n_cutoff, gs = converge_cutoff(params, 1e-10)
    steps = gs.convergence.steps
    assert steps[-1].n_cutoff == n_cutoff
    assert len(steps) >= 2
    assert gs.convergence.energy_shift is not None
    assert gs.convergence.energy_shift < 1e-10 * max(1.0, abs(gs.energy))
    assert gs.convergence.tail_population < 1e-10


def test_converge_hard_cap_raises_with_steps(monkeypatch):
    monkeypatch.setattr(dicke_qfi.solver, "HARD_CAP", 40)
    params = ModelParams(1.0, 1.0, 2.0, 6)  # needs n_cutoff ~ 200
    with pytest.raises(ConvergenceError) as excinfo:
        converge_cutoff(params, 1e-10, n_start=20)
    assert len(excinfo.value.steps) >= 1
    assert excinfo.value.n_cutoff == excinfo.value.steps[-1].n_cutoff == 40


def test_converge_start_above_hard_cap_fails_before_solving(monkeypatch):
    # lam = 1e5 at N = 1000 starts the doubling at about 1e13 Fock levels
    params = ModelParams(1.0, 1.0, 1e5, 1000)
    start = initial_cutoff(params)
    assert start > dicke_qfi.solver.HARD_CAP

    def no_solve(*args, **kwargs):
        raise AssertionError("a start above the hard cap must not be solved")

    monkeypatch.setattr(dicke_qfi.solver, "ground_state", no_solve)
    with pytest.raises(ConvergenceError) as excinfo:
        converge_cutoff(params, 1e-10)
    assert excinfo.value.n_cutoff == start
    assert excinfo.value.steps == ()
    monkeypatch.setattr(dicke_qfi.solver, "HARD_CAP", 40)
    with pytest.raises(ConvergenceError) as excinfo:
        converge_cutoff(ModelParams(1.0, 1.0, 0.5, 2), 1e-10, n_start=41)
    assert excinfo.value.n_cutoff == 41
    assert excinfo.value.steps == ()


def test_solver_error_keeps_completed_steps(fail_solves_above):
    fail_solves_above(20)
    with pytest.raises(SolverError) as excinfo:
        converge_cutoff(ModelParams(1.0, 1.0, 1.0, 2), 1e-10, n_start=20)
    assert not isinstance(excinfo.value, ConvergenceError)
    assert excinfo.value.n_cutoff == 40
    assert [step.n_cutoff for step in excinfo.value.steps] == [20]


def test_converged_nbar_stable_under_further_doubling():
    # self-consistency oracle: one more doubling moves nbar by < 1e-8
    params = ModelParams(1.0, 1.0, 1.0, 20)
    n_cutoff, gs = converge_cutoff(params, 1e-10)
    nbar = expectation(partial_trace_atoms(gs), np.diag(np.arange(n_cutoff + 1.0))).real
    gs2 = ground_state(params, 2 * n_cutoff)
    nbar2 = expectation(
        partial_trace_atoms(gs2), np.diag(np.arange(2 * n_cutoff + 1.0))
    ).real
    assert abs(nbar - nbar2) < 1e-8


def test_nbar_scaling_across_phases():
    # below threshold nbar stays O(1); above it grows roughly with N
    def nbar(n_atoms, lam, n_cutoff):
        gs = ground_state(ModelParams(1.0, 1.0, lam, n_atoms), n_cutoff)
        rho = partial_trace_atoms(gs)
        return expectation(rho, np.diag(np.arange(n_cutoff + 1.0))).real

    assert nbar(10, 0.25, 40) < 0.5
    assert nbar(20, 0.25, 40) < 0.5
    low, high = nbar(10, 1.0, 120), nbar(20, 1.0, 240)
    assert high > 1.5 * low


def test_expectation_forms_and_validation():
    params = ModelParams(1.0, 1.0, 0.0, 4)
    gs = ground_state(params, 8)
    spin = build_spin_ops(params.n_atoms)
    jz_full = np.kron(np.eye(gs.indexer.boson_dim), spin.jz)
    assert_allclose(expectation(gs, jz_full).real, -params.n_atoms / 2, atol=1e-13)
    rho = partial_trace_atoms(gs)
    number = np.diag(np.arange(gs.indexer.boson_dim, dtype=float))
    assert abs(expectation(rho, number)) < 1e-14
    with pytest.raises(ValueError):
        expectation(gs, np.eye(3))
    with pytest.raises(ValueError):
        expectation(rho, np.eye(3))


def test_expectation_nbar_against_doubled_cutoff():
    params = ModelParams(1.0, 1.0, 0.54, 20)
    n_cutoff, gs = converge_cutoff(params, 1e-10)
    number = np.diag(np.arange(n_cutoff + 1.0))
    nbar = expectation(partial_trace_atoms(gs), number).real
    gs2 = ground_state(params, 2 * n_cutoff)
    nbar2 = expectation(
        partial_trace_atoms(gs2), np.diag(np.arange(2 * n_cutoff + 1.0))
    ).real
    assert abs(nbar - nbar2) < 1e-8


@pytest.mark.parametrize("n_atoms,lam,n_cutoff", [(20, 1.0, 170), (5, 0.8, 199)])
def test_lanczos_matches_dense_above_threshold(n_atoms, lam, n_cutoff, monkeypatch):
    # both blocks are banded by default; the threshold is moved below their N
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    indexer = BasisIndexer(n_cutoff, n_atoms)
    even = even_sector(indexer).index
    energies, vecs = scipy.linalg.eigh(dense_hamiltonian_block(params, indexer),
                                       subset_by_index=[0, 0])
    banded = ground_state(params, n_cutoff)
    force_lanczos(monkeypatch, n_atoms)
    gs = ground_state(params, n_cutoff)
    assert gs.convergence.lower_bound is None
    for state in (gs, banded):
        assert abs(state.energy - energies[0]) < 1e-12
        assert abs(abs(np.vdot(vecs[:, 0], state.vector[even])) - 1.0) < 1e-12
    pivot = np.argmax(np.abs(gs.vector))
    assert gs.vector[pivot].real > 0
    assert gs.vector[pivot].imag == 0.0
    again = ground_state(params, n_cutoff)
    assert again.energy == gs.energy
    assert np.array_equal(again.vector, gs.vector)


@pytest.mark.parametrize("n_atoms", [101, 102])
def test_banded_matches_lanczos_above_threshold(n_atoms, monkeypatch):
    # the same block by Lanczos and, with the threshold moved up to N, by the
    # banded solver, at an odd N (three coupling offsets) and an even N (two)
    params = ModelParams(1.0, 1.0, 0.8, n_atoms)
    lanczos = ground_state(params, 40)
    monkeypatch.setattr(dicke_qfi.solver, "BANDED_MAX_ATOMS", n_atoms)
    banded = ground_state(params, 40)
    assert lanczos.convergence.lower_bound is None
    assert banded.convergence.lower_bound is not None
    assert abs(banded.energy - lanczos.energy) <= 1e-12 * abs(lanczos.energy)


@pytest.mark.parametrize("n_cutoff", [511, 512])
def test_observables_agree_across_solver_threshold(n_cutoff, monkeypatch):
    # the same N = 1 points (even block dimension n_cutoff + 1) by the banded
    # solver and by Lanczos, moving the threshold to switch between them
    params = ModelParams(1.0, 1.0, 0.8, 1)
    config = SweepConfig(mode="sweep", tol=1e-10, fock_cutoff=n_cutoff)
    banded = compute_sweep_record(params, config)
    force_lanczos(monkeypatch, 1)
    lanczos = compute_sweep_record(params, config)
    assert_allclose(lanczos, banded, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n_atoms,lam", [
    (20, 1e-9), (20, 1e-5), (20, 0.5), (20, 1.0), (20, 2.0), (6, 1.5), (101, 0.1),
])
def test_warm_start_matches_cold_dense_solve(n_atoms, lam, monkeypatch):
    # the doubled solve starts from the first solve's state, zero-padded, on the
    # banded path (N <= 100) or the Lanczos path (N = 101, at a cutoff small enough
    # for the dense oracle); it must find the state a dense solve finds, every time
    starts = []
    dpbtrs, eigsh = lapack.dpbtrs, scipy.sparse.linalg.eigsh

    def record_rhs(factor, rhs, **kwargs):
        starts.append(rhs)
        return dpbtrs(factor, rhs, **kwargs)

    def record_start(*args, v0=None, **kwargs):
        starts.append(v0)
        return eigsh(*args, v0=v0, **kwargs)

    monkeypatch.setattr(lapack, "dpbtrs", record_rhs)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", record_start)
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    n_cutoff, gs = converge_cutoff(params, 1e-10)
    assert [step.n_cutoff for step in gs.convergence.steps] == [n_cutoff // 2, n_cutoff]
    even = even_sector(gs.indexer).index
    lanczos = n_atoms > BANDED_MAX_ATOMS
    assert (gs.convergence.lower_bound is None) == lanczos
    warm_start = next(v for v in starts if v.size == even.size)

    first = ground_state(params, n_cutoff // 2)
    padded = np.zeros((n_cutoff + 1, n_atoms + 1))
    padded[: n_cutoff // 2 + 1] = first.vector.real.reshape(n_cutoff // 2 + 1, n_atoms + 1)
    padded = padded.ravel()[even]
    # eigsh takes the start as given, inverse iteration normalizes it first
    assert np.array_equal(warm_start, padded if lanczos else padded / np.linalg.norm(padded))

    block = dense_hamiltonian_block(params, gs.indexer)
    energies, vecs = scipy.linalg.eigh(block, subset_by_index=[0, 0], overwrite_a=True)
    del block
    assert abs(gs.energy - energies[0]) <= 1e-12 * max(1.0, abs(energies[0]))
    assert abs(np.vdot(vecs[:, 0], gs.vector[even])) >= 1.0 - 1e-12
    if not lanczos:
        assert gs.convergence.lower_bound <= energies[0]
    again = converge_cutoff(params, 1e-10)[1]
    assert again.energy == gs.energy
    assert np.array_equal(again.vector, gs.vector)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.integers(1, 25),
    ratio=st.sampled_from((0.0, 0.5, 1.0, 1.01, 1.5, 3.0)),
    omega=st.sampled_from((1.0, 0.3, 3.0)),
    cutoffs=st.lists(st.integers(1, 60), min_size=2, max_size=2, unique=True).map(sorted),
)
def test_start_vector_matches_full_grid_oracle(n_atoms, ratio, omega, cutoffs):
    # the cold start formed at the even positions alone, and the warm start
    # copied at the previous even indices, equal the full-grid forms bit for bit
    params = ModelParams(omega, 1.0, ratio * math.sqrt(omega) / 2, n_atoms)
    small, large = cutoffs
    indexer = BasisIndexer(large, n_atoms)
    previous = ground_state(params, small)
    for start in (None, previous):
        expected = full_grid_start_vector(params, indexer, start)
        assert np.array_equal(dicke_qfi.solver._start_vector(params, indexer, start), expected)


@pytest.mark.parametrize("omega,omega0,n_atoms", [
    (1.0, 1.0, 20), (1.0, 1.0, 2), (1.0, 1.0, 1), (0.3, 3.0, 6), (3.0, 0.2, 5),
])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5, 3.0])
def test_mean_field_start_overlaps_ground_state(omega, omega0, n_atoms, ratio):
    # the cold start is (-1)^n times a non-negative vector below, at and above
    # lambda_cr, so it overlaps the ground state, (-1)^n times a positive vector;
    # the mean field makes that overlap large, not just nonzero
    params = ModelParams(omega, omega0, ratio * math.sqrt(omega * omega0) / 2, n_atoms)
    indexer = BasisIndexer(initial_cutoff(params), n_atoms)
    even = even_sector(indexer).index
    start = dicke_qfi.solver._start_vector(params, indexer, None)
    signs = np.where((even // indexer.spin_dim) % 2 == 0, 1.0, -1.0)
    assert np.all(signs * start >= 0.0)
    assert 0.0 < np.max(np.abs(start)) <= 1.0
    _, vecs = scipy.linalg.eigh(dense_hamiltonian_block(params, indexer),
                                subset_by_index=[0, 0])
    overlap = abs(vecs[:, 0] @ start) / np.linalg.norm(start)
    assert overlap > 0.8


@pytest.mark.parametrize("n_atoms,lam_max,steps,max_dpbtrf,parent_dpbtrs", [
    ((20,), 1.0, 21, 90, 232), ((1, 2), 3.0, 801, 7000, 18117),
])
def test_banded_factorization_counts(n_atoms, lam_max, steps, max_dpbtrf, parent_dpbtrs,
                                     monkeypatch):
    # the benchmark sweep grids at tol 1e-10: a doubled solve factors once, at the
    # first solve's lower bound, and a cold one about three times (from 169 and 13908
    # factorizations with the (-1)^n start); the solves stay within 10% of 232 and 18117,
    # and every solve keeps its certified bracket
    counts = {"dpbtrf": 0, "dpbtrs": 0, "cold": [], "warm": []}
    for name in ("dpbtrf", "dpbtrs"):
        def counted(*args, _name=name, _real=getattr(lapack, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lapack, name, counted)
    solve = dicke_qfi.solver.ground_state

    def solve_counted(params, n_cutoff, previous=None):
        before = counts["dpbtrf"]
        gs = solve(params, n_cutoff, previous)
        if params.lam > 0:  # lam = 0 is exact and factors nothing
            counts["cold" if previous is None else "warm"].append(counts["dpbtrf"] - before)
            width = gs.energy - gs.convergence.lower_bound
            slack = BRACKET_RTOL * max(1.0, abs(gs.energy))
            assert 0.0 <= width <= 2 * gs.convergence.residual + slack
        return gs

    monkeypatch.setattr(dicke_qfi.solver, "ground_state", solve_counted)
    for n in n_atoms:
        for lam in np.linspace(0.0, lam_max, steps):
            converge_cutoff(ModelParams(1.0, 1.0, float(lam), n), 1e-10)
    assert counts["warm"] == [1] * len(counts["warm"])
    assert sum(counts["cold"]) <= 3.5 * len(counts["cold"])
    assert counts["dpbtrf"] <= max_dpbtrf
    assert counts["dpbtrs"] <= 1.1 * parent_dpbtrs


@pytest.mark.parametrize("n_atoms,lam", [(1, 8.0), (2, 4.0), (3, 2.5), (100, 0.5), (101, 0.5)])
def test_solver_path_follows_atom_count(n_atoms, lam, monkeypatch):
    # N <= BANDED_MAX_ATOMS is banded and certified, cold and warm; larger N
    # go to Lanczos, cold and warm; the block dimension plays no part
    calls = []
    eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *args, **kwargs: calls.append(1) or eigsh(*args, **kwargs))
    _, gs = converge_cutoff(ModelParams(1.0, 1.0, lam, n_atoms), 1e-10)
    assert len(gs.convergence.steps) == 2
    lanczos = n_atoms > BANDED_MAX_ATOMS
    assert len(calls) == (2 if lanczos else 0)
    assert (gs.convergence.lower_bound is None) == lanczos


@pytest.mark.parametrize("n_atoms,lam,n_cutoff,lanczos", [
    pytest.param(3, 0.5, 20, False, id="3-0.5-20"),
    pytest.param(20, 1.0, 170, False, id="20-1.0-170"),
    pytest.param(20, 1.0, None, False, id="20-1.0-None"),
    pytest.param(20, 1.0, 170, True, id="lanczos-20-1.0-170"),
    pytest.param(20, 1.0, None, True, id="lanczos-20-1.0-None"),
])
def test_residual_certificate(n_atoms, lam, n_cutoff, lanczos, monkeypatch):
    # cold solves and the warm-started one of cutoff doubling, on the banded
    # path and, with the threshold moved below N = 20, on the Lanczos path
    if lanczos:
        force_lanczos(monkeypatch, n_atoms)
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    if n_cutoff is None:
        n_cutoff, gs = converge_cutoff(params, 1e-10)
        first = ground_state(params, gs.convergence.steps[0].n_cutoff)
        assert gs.convergence.residual == ground_state(params, n_cutoff, first).convergence.residual
    else:
        gs = ground_state(params, n_cutoff)
    even = even_sector(gs.indexer).index
    psi = gs.vector[even]
    block = dense_hamiltonian_block(params, gs.indexer)
    recomputed = np.linalg.norm(block @ psi - gs.energy * psi)
    bound = 1e-12 * max(1.0, abs(gs.energy))
    assert 0.0 <= gs.convergence.residual <= bound
    assert recomputed <= bound
    if lanczos:
        assert gs.convergence.lower_bound is None
    else:
        # the energy bracket: a proven lower bound within 2 r + slack of E
        width = gs.energy - gs.convergence.lower_bound
        assert 0.0 < width <= 2 * gs.convergence.residual + BRACKET_RTOL * max(1.0, abs(gs.energy))


@pytest.mark.parametrize("module,name,n_atoms,n_cutoff", [
    (lapack, "dpbtrs", 3, 20), (scipy.sparse.linalg, "eigsh", 20, 170),
])
def test_residual_measures_returned_vector(module, name, n_atoms, n_cutoff, monkeypatch):
    # a solver returning slightly wrong vectors must show in the certificate
    solve = getattr(module, name)

    def perturbed(*args, **kwargs):
        if name == "dpbtrs":  # the solution x of (H - sigma) x = psi, and LAPACK's info
            x, info = solve(*args, **kwargs)
            return x + 1e-6 * np.linalg.norm(x) * np.cos(np.arange(x.size)), info
        energies, vecs = solve(*args, **kwargs)
        vecs[:, 0] += 1e-6 * np.cos(np.arange(vecs.shape[0]))
        return energies, vecs / np.linalg.norm(vecs[:, 0])

    monkeypatch.setattr(module, name, perturbed)
    if name == "eigsh":
        force_lanczos(monkeypatch, n_atoms)
    gs = ground_state(ModelParams(1.0, 1.0, 0.5, n_atoms), n_cutoff)
    assert gs.convergence.residual > 1e-8


def test_banded_factorization_failure_raises(monkeypatch):
    # a Cholesky factorization that fails even below the Gershgorin bound is a
    # broken solver, not a shift above E0
    dpbtrf = lapack.dpbtrf
    monkeypatch.setattr(lapack, "dpbtrf", lambda ab, **kwargs: (dpbtrf(ab, **kwargs)[0], 1))
    with pytest.raises(SolverError) as excinfo:
        ground_state(ModelParams(1.0, 1.0, 0.5, 3), 20)
    assert excinfo.value.n_cutoff == 20
    assert "Cholesky" in str(excinfo.value)


def test_out_of_memory_is_a_solver_error_at_its_cutoff(monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("no room")

    # while the basis is built
    monkeypatch.setattr(dicke_qfi.model, "_skeletons", {})
    monkeypatch.setattr(dicke_qfi.model, "_build_skeleton", out_of_memory)
    with pytest.raises(SolverError) as excinfo:
        ground_state(ModelParams(1.0, 1.0, 0.5, 3), 7)
    assert excinfo.value.n_cutoff == 7
    monkeypatch.undo()
    # while the doubled cutoff's block is built, keeping the step before it
    build = dicke_qfi.solver.build_even_block
    monkeypatch.setattr(dicke_qfi.solver, "build_even_block", lambda params, indexer: (
        out_of_memory() if indexer.n_cutoff > 20 else build(params, indexer)))
    with pytest.raises(SolverError) as excinfo:
        converge_cutoff(ModelParams(1.0, 1.0, 1.0, 2), 1e-10, n_start=20)
    assert excinfo.value.n_cutoff == 40
    assert [step.n_cutoff for step in excinfo.value.steps] == [20]


def test_ground_state_rejects_foreign_previous():
    params = ModelParams(1.0, 1.0, 0.5, 3)
    previous = ground_state(params, 20)
    with pytest.raises(ValueError):
        ground_state(params, 10, previous)
    with pytest.raises(ValueError):
        ground_state(ModelParams(1.0, 1.0, 0.6, 3), 40, previous)
