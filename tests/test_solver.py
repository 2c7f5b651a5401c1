import gc
import importlib.machinery
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from qfi_reference import (
    BasisIndexer,
    build_boson_ops,
    build_hamiltonian,
    build_spin_ops,
    dense_hamiltonian_block,
    even_indices,
    expectation,
    full_grid_start_vector,
    leakage_from_scratch,
    parity_signs_from_scratch,
    partial_trace_atoms,
    product_vector,
    stacks_from_scratch,
)

import dicke_qfi.model
import dicke_qfi.solver
from dicke_qfi.errors import ConvergenceError, SolverError
from dicke_qfi.model import ModelParams, even_band, tail_population
from dicke_qfi.solver import (
    BRACKET_RTOL,
    STACK_ELEMENTS,
    GroundState,
    checked_bytes,
    converge_stack,
    ground_states,
    initial_cutoff,
    lapack,
    solve,
    solve_bytes,
    solve_stack,
    stacks,
)


def _product_op(boson_op, spin_op, indexer):
    return np.kron(boson_op, spin_op)


def test_decoupled_ground_state():
    params = ModelParams(1.0, 1.0, 0.0, 4)
    gs = solve(params, fock_cutoff=10)
    assert_allclose(gs.energy, -params.omega0 * params.n_atoms / 2, atol=1e-14)
    indexer = BasisIndexer(gs.n_cutoff, gs.params.n_atoms)
    expected = np.zeros(indexer.dimension)
    expected[0] = 1.0  # |n=0>|j,-j>
    assert_allclose(product_vector(gs), expected, atol=1e-14)
    parity = np.diag(parity_signs_from_scratch(indexer))
    assert abs(expectation(gs, parity).real - 1.0) < 1e-12
    assert gs.tail_population == 0.0


@pytest.mark.parametrize("lam", [0.6, 0.0], ids=["banded", "decoupled"])
def test_ground_state_norm_and_phase(lam):
    # H and its even block are real, so the state is stored real and sign-fixed,
    # on the even sector alone: a product-size reshape of it fails
    gs = solve(ModelParams(1.0, 1.0, lam, 3), fock_cutoff=24)
    assert gs.lower_bound <= gs.energy
    indexer = BasisIndexer(gs.n_cutoff, gs.params.n_atoms)
    assert gs.vector.size == (indexer.dimension + 1) // 2
    with pytest.raises(ValueError):
        gs.vector.reshape(indexer.boson_dim, indexer.spin_dim)
    assert gs.vector.dtype == np.float64
    assert abs(np.linalg.norm(gs.vector) - 1.0) < 1e-12
    assert gs.vector[np.argmax(np.abs(gs.vector))] > 0


def test_vanishing_coherence_from_parity():
    params = ModelParams(1.0, 1.0, 0.3, 2)
    gs = solve(params, fock_cutoff=30)
    indexer = BasisIndexer(gs.n_cutoff, gs.params.n_atoms)
    b, _ = build_boson_ops(indexer.n_cutoff)
    spin = build_spin_ops(params.n_atoms)
    b_full = _product_op(b, np.eye(indexer.spin_dim), indexer)
    jx_full = _product_op(np.eye(indexer.boson_dim), spin.jx, indexer)
    assert abs(expectation(gs, b_full)) < 1e-10
    assert abs(expectation(gs, jx_full)) < 1e-10


def test_energy_against_full_space_oracle():
    # dense eigensolve at doubled cutoff without any parity reduction
    params = ModelParams(1.0, 1.0, 0.54, 6)
    gs = solve(params, fock_cutoff=40)
    oracle = np.linalg.eigvalsh(build_hamiltonian(params, BasisIndexer(80, 6)))[0]
    assert abs(gs.energy - oracle) < 1e-9


def test_variational_monotonicity():
    params = ModelParams(1.0, 1.0, 0.8, 3)
    energies = [solve(params, fock_cutoff=n).energy for n in (10, 20, 40, 80)]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


@pytest.mark.parametrize("lam,n_atoms", [(0.2, 2), (0.54, 6), (0.9, 4)])
def test_parity_purity(lam, n_atoms):
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    gs = solve(params, 1e-10)
    parity = np.diag(parity_signs_from_scratch(BasisIndexer(gs.n_cutoff, gs.params.n_atoms)))
    assert abs(expectation(gs, parity).real - 1.0) < 1e-8


def test_initial_cutoff_heuristic():
    assert initial_cutoff(ModelParams(1.0, 1.0, 0.0, 2)) == 20
    # nb = 0.02: ceil((0.02 + 10 sqrt(0.02)) / 0.9) + 20
    assert initial_cutoff(ModelParams(1.0, 1.0, 0.1, 2)) == 22
    # nb = lam^2 N / omega^2 = 20: ceil((20 + 10 sqrt(20)) / 0.9) + 20
    assert initial_cutoff(ModelParams(1.0, 1.0, 1.0, 20)) == 92
    assert initial_cutoff(ModelParams(1.0, 1.0, 3.0, 2)) == 88
    # N = 600 at lambda = 2 is refused before its first solve
    assert initial_cutoff(ModelParams(1.0, 1.0, 2.0, 600)) == 3231


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_large_boson_number_converges_in_one_step(n_atoms):
    # nb = lam^2 N / omega^2 = 1600 N.  The top 10% of the first cutoff's levels
    # begin past 10 widths of the Fock peak, so the tail does not reject it, as it
    # did the earlier first cutoff ceil(nb + 10 sqrt(nb)) + 20, whose window began
    # about 5.5 widths past the peak at N = 1 and 1 width past it at N = 2
    params = ModelParams(0.05, 1.0, 2.0, n_atoms)
    nb = 1600 * n_atoms
    [gs] = converge_stack([params], 1e-10)
    assert gs.steps == () and gs.n_cutoff == initial_cutoff(params)
    assert gs.tail_population < 1e-10
    assert gs.leakage < 1e-10 * max(1.0, abs(gs.energy))
    [earlier] = ground_states([params], [math.ceil(nb + 10 * math.sqrt(nb)) + 20])
    assert earlier.tail_population > 1e-10


@pytest.mark.parametrize("omega,lam", [(1e-200, 0.5), (1.0, 1e155), (1.0, 1.3e154),
                                       (1e-200, 0.0), (1e-200, 1e-300)])
def test_first_cutoff_past_the_float_range(omega, lam):
    # omega^2 underflows, lam^2 overflows, or nb = lam^2 = 1.69e308 is finite and
    # nb/0.9 is not, where the first cutoff once raised ZeroDivisionError or
    # OverflowError out of solve, converge_stack and stacks
    params = ModelParams(omega, 1.0, lam, 1)
    assert stacks([params]) == [[params]]
    [outcome] = converge_stack([params])
    try:
        alone = solve(params)
    except SolverError as exc:
        alone = exc
    assert type(alone) is type(outcome)
    if lam >= 0.5:  # nb = lam^2 N / omega^2 is past any float, so past the budget
        assert isinstance(outcome, ConvergenceError)
        assert outcome.steps == () and outcome.n_cutoff == dicke_qfi.solver.MEMORY_BUDGET // 8
        assert "past the memory budget" in str(outcome)
    elif lam == 0:  # the exact state at the first cutoff
        assert outcome.n_cutoff == 20 and outcome.steps == ()
        assert outcome.energy == -0.5 and outcome.vector[0] == 1.0
    else:
        assert isinstance(outcome, (GroundState, SolverError))


@pytest.mark.parametrize("n_atoms", [1, 2, 5, 6])
def test_tail_population_sums_the_top_levels_of_the_grid(n_atoms):
    rng = np.random.default_rng(n_atoms)
    for n_cutoff in range(1, 18):
        indexer = BasisIndexer(n_cutoff, n_atoms)
        vector = rng.standard_normal(dicke_qfi.model.even_size(n_atoms, n_cutoff))
        grid = np.zeros(indexer.dimension)
        grid[even_indices(indexer)] = vector
        grid = grid.reshape(indexer.boson_dim, indexer.spin_dim)
        # the top 10% of the levels, and at least the top one
        expected = np.sum(grid[min(math.ceil(0.9 * (n_cutoff + 1)), n_cutoff):] ** 2)
        assert tail_population(vector, n_atoms, n_cutoff) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n_cutoff", range(1, 9))
def test_tail_population_below_cutoff_9_is_the_top_level(n_cutoff):
    # below cutoff 9 the top 10% of the levels hold no whole level, and the tail
    # once summed none, 0.0 whatever the state: at N = 2, lambda = 1, C = 5 the
    # top level holds 1.03% of the weight
    params = ModelParams(1.0, 1.0, 1.0, 2)
    [gs] = ground_states([params], [n_cutoff])
    indexer = BasisIndexer(n_cutoff, 2)
    grid = np.zeros(indexer.dimension)
    grid[even_indices(indexer)] = gs.vector
    top = grid.reshape(indexer.boson_dim, indexer.spin_dim)[n_cutoff]
    assert gs.tail_population == pytest.approx(top @ top, rel=1e-14)
    assert gs.tail_population > 1e-4
    if n_cutoff == 5:
        assert 0.0102 < gs.tail_population < 0.0104


@pytest.mark.parametrize("omega,omega0,lam,n_atoms", [
    (1.0, 1.0, 1e-12, 20), (1.0, 1.0, 1e-9, 20),
    (1.0, 1.0, 1.0, 20), (1.0, 1.0, 3.0, 2), (1.0, 1.0, 0.5, 20),
    (0.3, 3.0, 0.5, 10), (0.3, 3.0, 1.0, 10), (3.0, 0.2, 1.0, 6), (3.0, 0.2, 2.0, 6),
    (1.0, 1.0, 1.0, 50), (1.0, 1.0, 1.0, 100),
    (1.0, 1.0, 8.0, 1), (1.0, 1.0, 4.0, 2), (1.0, 1.0, 2.5, 3), (1.0, 1.0, 0.5, 100),
    (1.0, 1.0, 0.5, 101),
])
def test_initial_cutoff_converges_in_one_doubling(omega, omega0, lam, n_atoms):
    # the first cutoff covers the occupied Fock range, so the first solve is accepted
    # by its own certificate and no doubling follows.  At tiny lam the top Fock levels
    # underflow to a zero tail and a zero leakage, which the solve at twice the cutoff
    # confirms
    params = ModelParams(omega, omega0, lam, n_atoms)
    gs = solve(params, 1e-10)
    n_cutoff = gs.n_cutoff
    assert gs.steps == () and n_cutoff == initial_cutoff(params)
    assert gs.leakage < 1e-10 * max(1.0, abs(gs.energy))
    # E at the larger cutoff is lower, but for rounding, and by less than tol
    scale = max(1.0, abs(gs.energy))
    larger = solve(params, fock_cutoff=2 * n_cutoff)
    assert -BRACKET_RTOL * scale <= gs.energy - larger.energy <= 1e-10 * scale


@pytest.mark.parametrize("n_atoms,lam_max,steps", [
    ((1, 2), 3.0, 801), ((20,), 1.0, 21), ((100,), 2.0, 21),
])
def test_every_point_of_the_sweep_grids_converges_in_one_step(n_atoms, lam_max, steps):
    # the premise of one cold solve per point: on the benchmark sweeps' grids and
    # N = 100 up to lambda = 2, every point is accepted at its first cutoff
    points = [ModelParams(1.0, 1.0, float(lam), n)
              for n in n_atoms for lam in np.linspace(0.0, lam_max, steps)]
    for stack in stacks(points):
        for params, gs in zip(stack, converge_stack(stack, 1e-10)):
            assert gs.steps == () and gs.n_cutoff == initial_cutoff(params)
            assert gs.leakage < 1e-10 * max(1.0, abs(gs.energy))


def test_leakage_underflows_after_a_banded_solve(monkeypatch):
    # at lambda = 1e-300 the point is banded, not exact: after a real dpbtrs the
    # amplitudes of the top level, about g^C, and so its leakage, underflow to 0,
    # which accepts the point at its first cutoff with E = -omega0 j
    calls = []
    dpbtrs = lapack.dpbtrs
    monkeypatch.setattr(lapack, "dpbtrs", lambda *args, **kwargs: calls.append(1)
                        or dpbtrs(*args, **kwargs))
    params = ModelParams(1.0, 1.0, 1e-300, 2)
    gs = solve(params, 1e-10)
    assert calls
    assert gs.leakage == 0.0
    assert gs.steps == () and gs.n_cutoff == initial_cutoff(params) == 20
    assert gs.energy == -params.omega0 * params.j


def test_converge_decoupled_returns_at_start():
    params = ModelParams(1.0, 1.0, 0.0, 3)
    gs = solve(params, 1e-10)
    n_cutoff = gs.n_cutoff
    assert n_cutoff == 20
    assert gs.tail_population == 0.0
    assert gs.steps == ()


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_nonpositive_tol_rejected_before_solving(tol, monkeypatch):
    # NaN fails every comparison, so only "not tol > 0" rejects it
    def no_solve(*args, **kwargs):
        raise AssertionError("a tol that is not positive must not be solved")

    monkeypatch.setattr(dicke_qfi.solver, "ground_states", no_solve)
    params = ModelParams(1.0, 1.0, 0.5, 2)
    with pytest.raises(ValueError, match="tol must be positive"):
        solve(params, tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        converge_stack([params], tol)


def test_point_accepted_at_its_first_cutoff_is_built_once(monkeypatch):
    # a stack accepted at its first cutoffs: one GroundState and one budget check
    # per point, both in ground_states, where converge_stack once checked each
    # budget again and rebuilt each state to attach its steps
    built, checked = [], []

    class Counted(GroundState):
        def __init__(self, *args, **kwargs):
            built.append(args[2])
            super().__init__(*args, **kwargs)

    check = dicke_qfi.solver.checked_bytes
    monkeypatch.setattr(dicke_qfi.solver, "GroundState", Counted)
    monkeypatch.setattr(dicke_qfi.solver, "checked_bytes",
                        lambda *args: checked.append(args) or check(*args))
    points = [ModelParams(1.0, 1.0, lam, 3) for lam in (0.0, 0.3, 0.9, 1.5)]
    outcomes = converge_stack(points, 1e-10)
    assert [(gs.n_cutoff, gs.steps) for gs in outcomes] == [
        (initial_cutoff(params), ()) for params in points]
    assert built == points
    assert checked == [(params, initial_cutoff(params)) for params in points]


def test_converge_records_doubling_trajectory():
    # from a first cutoff too small to pass, each rejected solve is a step and the
    # next one is a cold solve at twice the cutoff, until the certificate passes;
    # the accepted solve is the state's own step, after its steps
    params = ModelParams(1.0, 1.0, 0.5, 4)
    [gs] = converge_stack([params], 1e-10, n_start=5)
    steps = (*gs.steps, gs.step)
    assert [step.n_cutoff for step in steps] == [5, 10, 20, 40][:len(steps)]
    assert len(steps) >= 2 and steps[-1].n_cutoff == gs.n_cutoff
    bound = 1e-10 * max(1.0, abs(gs.energy))
    assert gs.tail_population < 1e-10 and gs.leakage < bound
    for step in steps[:-1]:
        [rejected] = ground_states([params], [step.n_cutoff])
        assert (rejected.energy, rejected.tail_population) == (
            step.energy, step.tail_population)
        assert rejected.tail_population >= 1e-10 or rejected.leakage >= bound
    [alone] = ground_states([params], [gs.n_cutoff])
    assert_same_bits(alone, gs)


def test_converge_hard_cap_raises_with_steps(monkeypatch):
    # the memory budget bounds the doubling: with room for cutoff 40 and not 80,
    # a point that needs n_cutoff ~ 200 is refused at 80, the cutoff it was not
    # solved at, with its rejected steps at 20 and 40
    params = ModelParams(1.0, 1.0, 2.0, 6)
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", solve_bytes(params, 40))
    [error] = converge_stack([params], 1e-10, n_start=20)
    assert isinstance(error, ConvergenceError)
    assert [step.n_cutoff for step in error.steps] == [20, 40]
    assert error.n_cutoff == 80
    assert f"n_cutoff=80 at N=6 needs {solve_bytes(params, 80)} bytes," in str(error)


def forbid_allocation(monkeypatch, message):
    """Fail the test with ``message`` once anything of a round is allocated: a basis's
    units, the round's band or the start vectors."""
    def no_allocation(*args, **kwargs):
        raise AssertionError(message)

    for module, name in ((dicke_qfi.model, "_units"), (dicke_qfi.solver, "even_band"),
                         (dicke_qfi.solver, "start_vectors")):
        monkeypatch.setattr(module, name, no_allocation)


def test_converge_start_above_hard_cap_fails_before_solving(monkeypatch):
    # lam = 1e5 at N = 1000 starts at about 1e13 Fock levels
    params = ModelParams(1.0, 1.0, 1e5, 1000)
    start = initial_cutoff(params)
    with pytest.raises(ConvergenceError, match="past the memory budget"):
        checked_bytes(params, start)
    forbid_allocation(monkeypatch, "a start past the memory budget must not be allocated")
    with pytest.raises(ConvergenceError) as excinfo:
        solve(params, 1e-10)
    assert excinfo.value.n_cutoff == start
    assert excinfo.value.steps == ()
    small = ModelParams(1.0, 1.0, 0.5, 2)
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", solve_bytes(small, 40))
    [error] = converge_stack([small], 1e-10, n_start=41)
    assert isinstance(error, ConvergenceError)
    assert error.n_cutoff == 41
    assert error.steps == ()


def test_point_that_cannot_double_fails_before_its_first_solve(monkeypatch):
    # the budget is checked at the first cutoff alone, which is the one solved:
    # at lambda = 2, N = 550 starts at 2986 (0.91 budgets) and fits, and N = 600
    # at 3231 (1.17 budgets) is refused before anything is allocated, with its
    # first cutoff
    fits, past = ModelParams(1.0, 1.0, 2.0, 550), ModelParams(1.0, 1.0, 2.0, 600)
    assert initial_cutoff(fits) == 2986
    assert checked_bytes(fits, 2986) <= dicke_qfi.solver.MEMORY_BUDGET
    forbid_allocation(monkeypatch, "a point past the budget must not be allocated")
    [error] = converge_stack([past])
    assert isinstance(error, ConvergenceError)
    assert error.n_cutoff == 3231 and error.steps == ()
    assert str(error) == (
        f"n_cutoff=3231 at N=600 needs {solve_bytes(past, 3231)} bytes, "
        f"past the memory budget of {dicke_qfi.solver.MEMORY_BUDGET} bytes")


def test_solver_error_keeps_completed_steps(fail_solves_above):
    fail_solves_above(20)
    [error] = converge_stack([ModelParams(1.0, 1.0, 1.0, 2)], 1e-10, n_start=20)
    assert isinstance(error, SolverError)
    assert not isinstance(error, ConvergenceError)
    assert error.n_cutoff == 40
    assert [step.n_cutoff for step in error.steps] == [20]


def test_converged_nbar_stable_under_further_doubling():
    # self-consistency oracle: one more doubling moves nbar by < 1e-8
    params = ModelParams(1.0, 1.0, 1.0, 20)
    gs = solve(params, 1e-10)
    n_cutoff = gs.n_cutoff
    nbar = expectation(partial_trace_atoms(gs), np.diag(np.arange(n_cutoff + 1.0))).real
    gs2 = solve(params, fock_cutoff=2 * n_cutoff)
    nbar2 = expectation(
        partial_trace_atoms(gs2), np.diag(np.arange(2 * n_cutoff + 1.0))
    ).real
    assert abs(nbar - nbar2) < 1e-8


def test_nbar_scaling_across_phases():
    # below threshold nbar stays O(1); above it grows roughly with N
    def nbar(n_atoms, lam, n_cutoff):
        gs = solve(ModelParams(1.0, 1.0, lam, n_atoms), fock_cutoff=n_cutoff)
        rho = partial_trace_atoms(gs)
        return expectation(rho, np.diag(np.arange(n_cutoff + 1.0))).real

    assert nbar(10, 0.25, 40) < 0.5
    assert nbar(20, 0.25, 40) < 0.5
    low, high = nbar(10, 1.0, 120), nbar(20, 1.0, 240)
    assert high > 1.5 * low


def test_expectation_forms_and_validation():
    params = ModelParams(1.0, 1.0, 0.0, 4)
    gs = solve(params, fock_cutoff=8)
    spin = build_spin_ops(params.n_atoms)
    indexer = BasisIndexer(gs.n_cutoff, gs.params.n_atoms)
    jz_full = np.kron(np.eye(indexer.boson_dim), spin.jz)
    assert_allclose(expectation(gs, jz_full).real, -params.n_atoms / 2, atol=1e-13)
    rho = partial_trace_atoms(gs)
    number = np.diag(np.arange(indexer.boson_dim, dtype=float))
    assert abs(expectation(rho, number)) < 1e-14
    with pytest.raises(ValueError):
        expectation(gs, np.eye(3))
    with pytest.raises(ValueError):
        expectation(rho, np.eye(3))


def test_expectation_nbar_against_doubled_cutoff():
    params = ModelParams(1.0, 1.0, 0.54, 20)
    gs = solve(params, 1e-10)
    n_cutoff = gs.n_cutoff
    number = np.diag(np.arange(n_cutoff + 1.0))
    nbar = expectation(partial_trace_atoms(gs), number).real
    gs2 = solve(params, fock_cutoff=2 * n_cutoff)
    nbar2 = expectation(
        partial_trace_atoms(gs2), np.diag(np.arange(2 * n_cutoff + 1.0))
    ).real
    assert abs(nbar - nbar2) < 1e-8


@pytest.mark.parametrize("n_atoms,lam,n_cutoff", [
    (20, 1.0, 170), (5, 0.8, 199), (101, 0.8, 40), (102, 0.8, 40),
])
def test_banded_matches_dense_above_threshold(n_atoms, lam, n_cutoff):
    # the banded solve against a dense eigh, twice to the same bits: N = 101 and
    # 102 are an odd N (three coupling offsets) and an even N (two)
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    indexer = BasisIndexer(n_cutoff, n_atoms)
    energies, vecs = scipy.linalg.eigh(dense_hamiltonian_block(params, indexer),
                                       subset_by_index=[0, 0])
    gs = solve(params, fock_cutoff=n_cutoff)
    assert abs(gs.energy - energies[0]) < 1e-12
    assert abs(abs(np.vdot(vecs[:, 0], gs.vector)) - 1.0) < 1e-12
    assert gs.lower_bound <= energies[0]
    again = solve(params, fock_cutoff=n_cutoff)
    assert again.energy == gs.energy
    assert np.array_equal(again.vector, gs.vector)


@pytest.mark.parametrize("n_atoms,lam", [
    (20, 1e-9), (20, 1e-5), (20, 0.5), (20, 1.0), (20, 2.0), (6, 1.5), (101, 0.1),
    (1, 1.0), (1, 3.0), (2, 1.0), (2, 2.0), (3, 1.2), (3, 2.0), (6, 1.0),
])
def test_warm_start_matches_cold_dense_solve(n_atoms, lam, monkeypatch):
    # every solve is cold, the converged one included: it starts from the
    # mean-field state at its first cutoff and must find the state a dense solve
    # finds, every time (N = 101 at a cutoff small enough for the dense oracle).
    # The first cutoffs are odd at (1, 1.0), (2, 1.0), (3, 2.0) and (6, 1.0), even
    # at (1, 3.0), (2, 2.0), (3, 1.2) and (6, 1.5)
    starts = []
    dpbtrs = lapack.dpbtrs

    def record_rhs(factor, rhs, **kwargs):
        starts.append(rhs.copy())  # the solve may overwrite it
        return dpbtrs(factor, rhs, **kwargs)

    monkeypatch.setattr(lapack, "dpbtrs", record_rhs)
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    gs = solve(params, 1e-10)
    n_cutoff = gs.n_cutoff
    assert gs.steps == () and n_cutoff == initial_cutoff(params)
    # inverse iteration solves the stack's band, where a stack of one holds the
    # block between kd zero rows on each side
    kd = max(even_band([params], [n_cutoff])[2][0][1])
    start = starts[0]
    assert start.size == gs.vector.size + 2 * kd
    assert not start[:kd].any() and not start[start.size - kd:].any()
    # the mean-field state formed on the full grid, normalized by the sum over the
    # block and the kd zero rows after it, as inverse iteration normalizes it
    indexer = BasisIndexer(n_cutoff, n_atoms)
    expected = full_grid_start_vector(params, indexer)
    expected /= math.sqrt(np.add.reduceat(np.concatenate((expected, np.zeros(kd))) ** 2, [0])[0])
    assert np.array_equal(start[kd:start.size - kd], expected)

    block = dense_hamiltonian_block(params, indexer)
    energies, vecs = scipy.linalg.eigh(block, subset_by_index=[0, 0], overwrite_a=True)
    del block
    assert abs(gs.energy - energies[0]) <= 1e-12 * max(1.0, abs(energies[0]))
    assert abs(np.vdot(vecs[:, 0], gs.vector)) >= 1.0 - 1e-12
    assert gs.lower_bound <= energies[0]
    again = solve(params, 1e-10)
    assert again.energy == gs.energy
    assert np.array_equal(again.vector, gs.vector)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.integers(1, 25),
    ratio=st.sampled_from((0.0, 0.5, 1.0, 1.01, 1.5, 3.0)),
    omega=st.sampled_from((1.0, 0.3, 3.0)),
    n_cutoff=st.integers(1, 60),
)
def test_start_vector_matches_full_grid_oracle(n_atoms, ratio, omega, n_cutoff):
    # the start formed at the even positions alone equals the full-grid form bit for bit
    params = ModelParams(omega, 1.0, ratio * math.sqrt(omega) / 2, n_atoms)
    expected = full_grid_start_vector(params, BasisIndexer(n_cutoff, n_atoms))
    [head] = dicke_qfi.model.start_vectors([params], [n_cutoff])
    assert np.array_equal(head, expected[:head.size])
    assert not np.any(expected[head.size:])


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
    even = even_indices(indexer)
    [start] = dicke_qfi.model.start_vectors([params], [indexer.n_cutoff])
    start = np.concatenate((start, np.zeros(even.size - start.size)))
    signs = np.where((even // indexer.spin_dim) % 2 == 0, 1.0, -1.0)
    assert np.all(signs * start >= 0.0)
    assert 0.0 < np.max(np.abs(start)) <= 1.0
    _, vecs = scipy.linalg.eigh(dense_hamiltonian_block(params, indexer),
                                subset_by_index=[0, 0])
    overlap = abs(vecs[:, 0] @ start) / np.linalg.norm(start)
    assert overlap > 0.8


def test_nothing_of_a_round_is_held_after_it():
    # the band, the units and the diagonal of a round go with it: after a solve
    # of N = 100 at lambda = 2 nothing but its state is held, where a cache of
    # units and diagonals once held 1.2 MiB
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gs = solve(ModelParams(1.0, 1.0, 2.0, 100))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held - gs.vector.nbytes < 64 * 1024


def test_starts_of_mixed_cutoffs_take_about_their_own_bytes():
    # one point at a large cutoff among a hundred at a small one: the starts are
    # formed per capacity, so tracemalloc's peak stays a few times the bytes of the
    # starts themselves (3.2x measured), where grids of 101 rows at the largest
    # cutoff peaked at 75x to 198x; each start keeps the bits it has alone
    points = [ModelParams(1.0, 1.0, lam, 3) for lam in np.linspace(0.6, 2.0, 101)]
    cutoffs = [2000] + [20] * 100
    alone = [dicke_qfi.model.start_vectors([params], [n_cutoff])[0]
             for params, n_cutoff in zip(points, cutoffs)]
    tracemalloc.start()
    try:
        starts = dicke_qfi.model.start_vectors(points, cutoffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(start.nbytes for start in alone)
    assert peak <= 6 * own
    for start, expected in zip(starts, alone):
        assert np.array_equal(start, expected)


@pytest.mark.parametrize("n_atoms,lam_max,steps,max_dpbtrf,parent_dpbtrs", [
    ((20,), 1.0, 21, 90, 232), ((1, 2), 3.0, 801, 7000, 18117),
])
def test_banded_factorization_counts(n_atoms, lam_max, steps, max_dpbtrf, parent_dpbtrs,
                                     monkeypatch):
    # the benchmark sweep grids at tol 1e-10, solved in the sweep's stacks: each
    # lam > 0 point is one cold solve at its first cutoff, which factors its block
    # about three times (from 169 and 13908 factorizations with the (-1)^n start;
    # 60 and 4800 measured); one dpbtrs per iteration serves a stack, and a stack
    # iterates about as long as one point does (57 and 536 calls over 6 and 60
    # stacks, against 189 and 13356 solves of 21 and 1602 points one by one; the
    # bounds are from cold-and-doubled solves, 232 and 18117); every solve keeps
    # its certified bracket
    counts = {"dpbtrf": 0, "dpbtrs": 0}
    for name in ("dpbtrf", "dpbtrs"):
        def counted(*args, _name=name, _real=getattr(lapack, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lapack, name, counted)
    # per block, keyed by its diagonal's id while the block is held: its cutoff
    # and its factorizations, the dpbtrf calls made inside its factor_below
    blocks = {}
    write, factor_below = dicke_qfi.solver.even_band, dicke_qfi.solver._Band.factor_below

    def write_recorded(points, cutoffs):
        band, rows, written = write(points, cutoffs)
        for params, n_cutoff, block in zip(points, cutoffs, written):
            blocks[id(block[0])] = [block, n_cutoff == initial_cutoff(params), 0]
        return band, rows, written

    def factor_counted(band, b, *args):
        before = counts["dpbtrf"]
        try:
            return factor_below(band, b, *args)
        finally:
            blocks[id(band.blocks[b][0])][2] += counts["dpbtrf"] - before

    monkeypatch.setattr(dicke_qfi.solver, "even_band", write_recorded)
    monkeypatch.setattr(dicke_qfi.solver._Band, "factor_below", factor_counted)
    points = [ModelParams(1.0, 1.0, float(lam), n)
              for n in n_atoms for lam in np.linspace(0.0, lam_max, steps)]
    for stack in stacks(points):
        for gs in converge_stack(stack, 1e-10):
            if gs.params.lam > 0:  # lam = 0 is exact and factors nothing
                width = gs.energy - gs.lower_bound
                slack = BRACKET_RTOL * max(1.0, abs(gs.energy))
                assert 0.0 <= width <= 2 * gs.residual + slack
    # every block is a point's first cutoff, written once
    assert [at_first for _, at_first, _ in blocks.values()] == [True] * sum(
        p.lam > 0 for p in points)
    factored = [n for *_, n in blocks.values()]
    assert sum(factored) <= 3.5 * len(factored)
    assert counts["dpbtrf"] == sum(factored) <= max_dpbtrf
    assert counts["dpbtrs"] <= 1.1 * parent_dpbtrs * len(stacks(points)) / len(points)


@pytest.mark.parametrize("n_atoms,lam,n_cutoff", [(3, 0.5, 20), (20, 1.0, 170), (20, 1.0, None)])
def test_residual_certificate(n_atoms, lam, n_cutoff):
    # fixed-cutoff solves and a converged one, which is the fixed-cutoff solve at
    # its cutoff, bit for bit, with its trajectory
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    if n_cutoff is None:
        gs = solve(params, 1e-10)
        n_cutoff = gs.n_cutoff
        [fixed] = ground_states([params], [n_cutoff])
        assert_same_bits(fixed, gs)
        assert fixed.leakage == gs.leakage
        assert fixed.steps == () == gs.steps
    else:
        gs = solve(params, fock_cutoff=n_cutoff)
    psi = gs.vector
    block = dense_hamiltonian_block(params, BasisIndexer(gs.n_cutoff, gs.params.n_atoms))
    recomputed = np.linalg.norm(block @ psi - gs.energy * psi)
    bound = 1e-12 * max(1.0, abs(gs.energy))
    assert 0.0 <= gs.residual <= bound
    assert recomputed <= bound
    # the energy bracket: a proven lower bound within 2 r + slack of E
    width = gs.energy - gs.lower_bound
    assert 0.0 < width <= 2 * gs.residual + BRACKET_RTOL * max(1.0, abs(gs.energy))
    # the coupling out of the top level, against H one Fock level up
    oracle = leakage_from_scratch(params, psi, n_cutoff)
    assert gs.leakage == pytest.approx(oracle, rel=1e-12, abs=1e-300)


def test_residual_measures_returned_vector(monkeypatch):
    # a solver returning slightly wrong vectors must show in the certificate
    dpbtrs = lapack.dpbtrs

    def perturbed(*args, **kwargs):
        # the solution x of (H - sigma) x = psi, and LAPACK's info
        x, info = dpbtrs(*args, **kwargs)
        return x + 1e-6 * np.linalg.norm(x) * np.cos(np.arange(x.size)), info

    monkeypatch.setattr(lapack, "dpbtrs", perturbed)
    gs = solve(ModelParams(1.0, 1.0, 0.5, 3), fock_cutoff=20)
    assert gs.residual > 1e-8


def test_bound_lapack_matches_scipy_linalg_lapack():
    # the solver loads scipy's LAPACK extension from its file; its factor and
    # solve, called as the solver calls them, carry the public module's bits
    rng = np.random.default_rng(23)
    kd, dim = 7, 300
    band = rng.uniform(-1.0, 1.0, (kd + 1, dim))
    band[kd] = 2 * kd + 1 + rng.random(dim)  # diagonally dominant: positive definite
    for d in range(1, kd + 1):
        band[kd - d, :d] = 0.0  # outside the matrix in upper band storage
    rhs = rng.standard_normal(dim)
    results = []
    for module in (lapack, scipy.linalg.lapack):
        factor = np.asfortranarray(band)
        _, info = module.dpbtrf(factor, overwrite_ab=1)
        assert info == 0
        x, info = module.dpbtrs(factor, rhs.copy(), overwrite_b=1)
        assert info == 0
        results.append((factor, x))
    (factor, x), (factor_ref, x_ref) = results
    assert np.array_equal(factor, factor_ref) and np.array_equal(x, x_ref)
    assert not np.array_equal(factor, band)  # factored in place, as the solver reads it


def test_missing_lapack_extension_names_scipy_version(monkeypatch):
    find_spec = importlib.machinery.PathFinder.find_spec
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda name, path=None, target=None:
                        None if name == "_flapack" else find_spec(name, path, target))
    with pytest.raises(ImportError, match=f"scipy {re.escape(scipy.__version__)} "):
        dicke_qfi.solver._load_flapack()


def test_banded_factorization_failure_raises(monkeypatch):
    # a Cholesky factorization that fails even below the Gershgorin bound is a
    # broken solver, not a shift above E0
    dpbtrf = lapack.dpbtrf
    monkeypatch.setattr(lapack, "dpbtrf", lambda ab, **kwargs: (dpbtrf(ab, **kwargs)[0], 1))
    with pytest.raises(SolverError) as excinfo:
        solve(ModelParams(1.0, 1.0, 0.5, 3), fock_cutoff=20)
    assert excinfo.value.n_cutoff == 20
    assert "Cholesky" in str(excinfo.value)


def test_out_of_memory_is_a_solver_error_at_its_cutoff(monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("no room")

    # while the basis is built
    monkeypatch.setattr(dicke_qfi.model, "_units", out_of_memory)
    with pytest.raises(SolverError) as excinfo:
        solve(ModelParams(1.0, 1.0, 0.5, 3), fock_cutoff=7)
    assert excinfo.value.n_cutoff == 7
    monkeypatch.undo()
    # while the doubled cutoff's band is written, keeping the step before it
    write = dicke_qfi.solver.even_band
    monkeypatch.setattr(dicke_qfi.solver, "even_band", lambda points, cutoffs: (
        out_of_memory() if max(cutoffs) > 20 else write(points, cutoffs)))
    [error] = converge_stack([ModelParams(1.0, 1.0, 1.0, 2)], 1e-10, n_start=20)
    assert isinstance(error, SolverError)
    assert error.n_cutoff == 40
    assert [step.n_cutoff for step in error.steps] == [20]


def test_out_of_memory_while_a_record_is_formed_fails_its_point_alone(monkeypatch):
    # from cutoff 5, lambda = 1 (N = 2) is solved at 5, 10, 20 and 40; a MemoryError
    # in its leakage at 20, after its band solve, is its SolverError at 20, with no
    # steps from ground_states and the steps of 5 and 10 from converge_stack, and
    # lambda = 0 keeps its bits
    points = [ModelParams(1.0, 1.0, lam, 2) for lam in (0.0, 1.0)]
    full = converge_stack(points, 1e-10, n_start=5)
    assert [step.n_cutoff for step in full[1].steps] == [5, 10, 20]
    at_20 = ground_states(points, [20, 20])
    leakage = dicke_qfi.solver.leakage

    def out_of_memory(vector, params, n_cutoff):
        if params.lam == 1.0 and n_cutoff == 20:
            raise MemoryError("no room for the leakage")
        return leakage(vector, params, n_cutoff)

    monkeypatch.setattr(dicke_qfi.solver, "leakage", out_of_memory)
    for outcomes, reference, steps in (
            (ground_states(points, [20, 20]), at_20[0], ()),
            (converge_stack(points, 1e-10, n_start=5), full[0], full[1].steps[:2])):
        assert_same_bits(reference, outcomes[0])
        error = outcomes[1]
        assert isinstance(error, SolverError) and not isinstance(error, ConvergenceError)
        assert str(error) == "out of memory at n_cutoff=20: no room for the leakage"
        assert error.n_cutoff == 20
        assert error.steps == steps


def test_out_of_memory_while_a_lambda_0_record_is_formed_fails_its_point_alone(monkeypatch):
    # the lambda = 0 point, the one at cutoff 7, runs out of memory while its exact
    # state's record is formed: it is its SolverError at 7, and the banded points
    # of its stack keep the bits they have alone
    points = [ModelParams(1.0, 1.0, lam, 3) for lam in (0.5, 0.0, 1.0)]
    cutoffs = [20, 7, 20]
    alone = [ground_states([params], [n_cutoff])[0] for params, n_cutoff in zip(points, cutoffs)]
    tail = dicke_qfi.solver.tail_population

    def out_of_memory(vector, n_atoms, n_cutoff):
        if n_cutoff == 7:
            raise MemoryError("no room for the tail")
        return tail(vector, n_atoms, n_cutoff)

    monkeypatch.setattr(dicke_qfi.solver, "tail_population", out_of_memory)
    outcomes = ground_states(points, cutoffs)
    error = outcomes[1]
    assert isinstance(error, SolverError) and not isinstance(error, ConvergenceError)
    assert str(error) == "out of memory at n_cutoff=7: no room for the tail"
    assert error.n_cutoff == 7 and error.steps == ()
    for i in (0, 2):
        assert_same_bits(alone[i], outcomes[i])


def assert_same_bits(gs, other):
    """Two ground states of one point, equal bit for bit."""
    assert (gs.n_cutoff, gs.energy, gs.residual, gs.lower_bound) == (
        other.n_cutoff, other.energy, other.residual, other.lower_bound)
    assert gs.vector.tobytes() == other.vector.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.sampled_from((1, 2, 3, 7, 20, 29, 40)),
    couplings=st.lists(st.tuples(st.floats(0.0, 2.0), st.sampled_from((0.5, 1.0, 2.0)),
                                 st.sampled_from((0.5, 1.0, 2.0))), min_size=2, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_stacked_point_matches_point_alone(n_atoms, couplings, seed):
    # a point solved alone, in its stack, and in a shuffled stack: the stack's
    # band gives each block kd zero rows on both sides, so its bits do not depend
    # on its neighbours (from N = 29, kd >= 16, BLAS dot kernels would otherwise
    # group a block's first columns by their place in the band); each point has
    # its own omega and omega0, so a diagonal or a start formed for another
    # point's frequencies would show
    points = [ModelParams(omega, omega0, lam, n_atoms) for lam, omega, omega0 in couplings]
    alone = [solve(params, 1e-10) for params in points]
    for gs, other in zip(alone, converge_stack(points, 1e-10)):
        assert_same_bits(gs, other)
    order = np.random.default_rng(seed).permutation(len(points))
    for i, other in zip(order, converge_stack([points[i] for i in order], 1e-10)):
        assert_same_bits(alone[i], other)


@pytest.mark.parametrize("n_atoms", [3, 5])
def test_odd_n_run_with_a_cutoff_1_block_matches_points_alone(n_atoms):
    # at cutoff 1 an odd-N block has no offset kd, so in a run with larger cutoffs
    # its couplings leave the factor's top row to the zeroing; each point keeps
    # the bits it has alone
    assert dicke_qfi.model.coupling_offsets(n_atoms, 1)[-1] < dicke_qfi.model.band_width(n_atoms)
    points = [ModelParams(1.0, 1.0, lam, n_atoms) for lam in (0.4, 0.9, 1.3)]
    cutoffs = [1, 20, 37]
    alone = [ground_states([params], [n_cutoff])[0] for params, n_cutoff in zip(points, cutoffs)]
    for gs, other in zip(alone, ground_states(points, cutoffs)):
        assert_same_bits(gs, other)


def middle_failure(monkeypatch, failure):
    """Three points of N = 3 at their own cutoffs, the middle one made to fail by ``failure``;
    the outcomes of the stack, and the neighbours solved alone."""
    points = [ModelParams(1.0, 1.0, lam, 3) for lam in (0.4, 0.9, 1.3)]
    cutoffs = [20, 37, 24]
    alone = [solve(params, fock_cutoff=n_cutoff) for params, n_cutoff in zip(points, cutoffs)]
    failure(monkeypatch, points[1], cutoffs[1])
    return ground_states(points, cutoffs), alone


def fail_cholesky(monkeypatch, params, n_cutoff):
    # every factorization of the middle block fails, below the Gershgorin bound
    # too, and leaves NaN in its columns of the band's factor: the block must be
    # isolated before the next stacked solve, or the NaN reaches its neighbours
    size = (n_cutoff + 1) * 2
    dpbtrf = lapack.dpbtrf

    def failed(ab, **kwargs):
        if ab.shape[1] != size:
            return dpbtrf(ab, **kwargs)
        ab[:] = np.nan
        return ab, 1

    monkeypatch.setattr(lapack, "dpbtrf", failed)


def fail_reshift(monkeypatch, params, n_cutoff):
    # the middle block's first factorization succeeds and its first re-shift fails
    factor_below = dicke_qfi.solver._Band.factor_below
    calls = []

    def second_fails(band, b, shift, step, block_cutoff):
        if block_cutoff == n_cutoff:
            calls.append(shift)
            if len(calls) == 2:
                raise SolverError(f"re-shift failed at n_cutoff={block_cutoff}", block_cutoff)
        return factor_below(band, b, shift, step, block_cutoff)

    monkeypatch.setattr(dicke_qfi.solver._Band, "factor_below", second_fails)


@pytest.mark.parametrize("failure,message", [(fail_cholesky, "Cholesky"),
                                             (fail_reshift, "re-shift failed")])
def test_failed_block_fails_alone(failure, message, monkeypatch):
    outcomes, alone = middle_failure(monkeypatch, failure)
    assert isinstance(outcomes[1], SolverError) and message in str(outcomes[1])
    assert outcomes[1].n_cutoff == 37
    assert_same_bits(alone[0], outcomes[0])
    assert_same_bits(alone[2], outcomes[2])


def test_out_of_memory_in_the_band_fails_every_point_of_its_run(monkeypatch):
    # a round's one allocation is its band: a MemoryError while it is written is
    # the SolverError of every banded point of the run, each at its own cutoff,
    # and nothing escapes; lambda = 0 holds no block and keeps its bits
    points = [ModelParams(1.0, 1.0, lam, 3) for lam in (0.4, 0.0, 0.9, 1.3)]
    cutoffs = [20, 7, 37, 24]
    exact = solve(points[1], fock_cutoff=7)

    def out_of_memory(*args):
        raise MemoryError("no room for the units")

    monkeypatch.setattr(dicke_qfi.model, "_units", out_of_memory)
    outcomes = ground_states(points, cutoffs)
    assert_same_bits(exact, outcomes[1])
    for i in (0, 2, 3):
        outcome, n_cutoff = outcomes[i], cutoffs[i]
        assert type(outcome) is SolverError and outcome.n_cutoff == n_cutoff
        assert str(outcome) == f"out of memory at n_cutoff={n_cutoff}: no room for the units"
        assert isinstance(outcome.__cause__, MemoryError)


def test_unconverged_blocks_fail_alone(monkeypatch):
    # with 8 inverse-iteration steps the strongest couplings settle and the
    # others run out of steps; the settled ones keep the bits of a full run
    points = [ModelParams(1.0, 1.0, lam, 2) for lam in (0.2, 0.6, 1.0, 2.0, 3.0)]
    full = ground_states(points, [40] * len(points))
    monkeypatch.setattr(dicke_qfi.solver, "MAX_INVERSE_ITERATIONS", 8)
    outcomes = ground_states(points, [40] * len(points))
    assert [isinstance(outcome, SolverError) for outcome in outcomes] == [True] * 3 + [False] * 2
    for outcome in outcomes[:3]:
        assert "did not converge in 8 steps" in str(outcome) and outcome.n_cutoff == 40
    for gs, outcome in zip(full[3:], outcomes[3:]):
        assert_same_bits(gs, outcome)


@pytest.mark.parametrize("failing_call", ["first", "last"])
def test_out_of_memory_in_the_stacked_loop(failing_call, monkeypatch):
    # a MemoryError in the band's measure, the stack's product and sums, fails
    # every block still iterating; blocks settled before it keep their bits, and
    # so does lambda = 0, which is exact and never iterated
    points = [ModelParams(1.0, 1.0, lam, 2) for lam in (0.0, 0.2, 1.0, 3.0)]
    measure = dicke_qfi.solver._Band.measure
    calls = []

    def counted(band):
        calls.append(1)
        return measure(band)

    monkeypatch.setattr(dicke_qfi.solver._Band, "measure", counted)
    full = ground_states(points, [40] * len(points))
    failing = 1 if failing_call == "first" else len(calls)
    calls.clear()

    def out_of_memory(band):
        calls.append(1)
        if len(calls) == failing:
            raise MemoryError("no room for the product")
        return measure(band)

    monkeypatch.setattr(dicke_qfi.solver._Band, "measure", out_of_memory)
    outcomes = ground_states(points, [40] * len(points))
    assert_same_bits(full[0], outcomes[0])
    failed = [isinstance(outcome, SolverError) for outcome in outcomes[1:]]
    assert all(failed) if failing_call == "first" else any(failed) and not all(failed)
    for gs, outcome in zip(full[1:], outcomes[1:]):
        if isinstance(outcome, SolverError):
            assert "out of memory at n_cutoff=40" in str(outcome) and outcome.n_cutoff == 40
        else:
            assert_same_bits(gs, outcome)


def test_hard_cap_start_fails_alone(monkeypatch):
    # the middle point starts past the memory budget, its neighbours are accepted
    # at their first cutoffs, each in a run of its own
    points = [ModelParams(1.0, 1.0, lam, 2) for lam in (0.3, 3.0, 0.5)]
    assert [initial_cutoff(params) for params in points] == [25, 88, 29]
    alone = [solve(points[0], 1e-10), None, solve(points[2], 1e-10)]
    assert [gs.n_cutoff for gs in alone[::2]] == [25, 29]
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", solve_bytes(points[0], 29))
    outcomes = converge_stack(points, 1e-10)
    assert isinstance(outcomes[1], ConvergenceError)
    assert outcomes[1].n_cutoff == 88 and outcomes[1].steps == ()
    assert f"n_cutoff=88 at N=2 needs {solve_bytes(points[1], 88)} bytes" in str(outcomes[1])
    assert_same_bits(alone[0], outcomes[0])
    assert_same_bits(alone[2], outcomes[2])


def test_stacks_follow_atom_number_budget_and_cap():
    points = [ModelParams(1.0, 1.0, lam, n) for n in (2, 20, 101, 101) for lam in (0.1, 0.5, 1.0)]
    cut = stacks(points)
    assert [p for stack in cut for p in stack] == points
    assert all(len({p.n_atoms for p in stack}) == 1 for stack in cut)
    # at its default cutoff an N = 101 point's band fills more than half the budget
    assert [len(stack) for stack in cut if stack[0].n_atoms == 101] == [1] * 6
    # at cutoff 2 two share a stack and a band, and each keeps the bits it has alone
    pair = [ModelParams(1.0, 1.0, lam, 101) for lam in (0.5, 1.0)]
    assert stacks(pair, n_start=2) == [pair]
    for params, gs in zip(pair, solve_stack(pair, fock_cutoff=2)):
        assert_same_bits(solve(params, fock_cutoff=2), gs)
    assert max(len(stack) for stack in stacks(points, max_points=2)) == 2
    # the fixed charge per point caps a stack at 32 points
    many = [ModelParams(1.0, 1.0, 0.0, 1)] * 200
    assert 25 < max(len(stack) for stack in stacks(many, n_start=1)) <= 32
    # a point whose band fills the budget stands alone
    assert [len(stack) for stack in stacks(points[3:6], n_start=400)] == [1, 1, 1]
    with pytest.raises(ValueError):
        ground_states(points[2:4], [20, 20])
    with pytest.raises(ValueError, match="one entry per point"):
        ground_states(points[:2], [20])
    for n_cutoff in (0, -5):
        with pytest.raises(ValueError, match="n_cutoff must be >= 1"):
            ground_states(points[:2], [20, n_cutoff])
        # each error names the argument it was given: converge_stack checks n_start
        # before its first round, where ground_states would blame n_cutoff
        with pytest.raises(ValueError, match="n_start must be >= 1"):
            stacks(points, n_start=n_cutoff)
        with pytest.raises(ValueError, match="n_start must be >= 1"):
            converge_stack(points[:2], n_start=n_cutoff)
        with pytest.raises(ValueError, match="fock_cutoff must be >= 1"):
            solve(points[0], fock_cutoff=n_cutoff)
    with pytest.raises(ValueError, match="n_start must be an integer, not 2.5"):
        converge_stack(points[:2], n_start=2.5)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    runs=st.lists(st.tuples(st.sampled_from((1, 2, 3, 20, 101)),
                            st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40)),
                  max_size=5),
    n_start=st.none() | st.integers(1, 400),
    max_points=st.none() | st.integers(1, 40),
)
# at cutoff 510 an N = 1 point is charged 2^11 elements: 16 fill a stack exactly
@example(runs=[(1, [0.5] * 20)], n_start=510, max_points=None)
def test_stacks_cut_as_one_greedy_loop(runs, n_start, max_points):
    # ``stacks`` cuts each run of one N with ``fitting_runs``; the partition is that
    # of the one greedy loop it replaced
    points = [ModelParams(1.0, 1.0, lam, n_atoms) for n_atoms, lams in runs for lam in lams]
    assert stacks(points, n_start, max_points) == stacks_from_scratch(points, n_start,
                                                                      max_points)


@pytest.mark.parametrize("n_atoms", range(1, 41))
def test_band_charge_is_the_blocks_largest_offset(n_atoms):
    # a stack and the byte budget charge a point the half-bandwidth of the block
    # it solves; N = 1, whose couplings all have offset 1, was charged kd = 2
    params = ModelParams(1.0, 1.0, 0.5, n_atoms)
    for n_cutoff in (2, 20):
        kd = max(even_band([params], [n_cutoff])[2][0][1])
        dim = dicke_qfi.model.even_size(n_atoms, n_cutoff)
        assert solve_bytes(params, n_cutoff) == 8 * dim * (kd + 22)
        cost = (kd + 1) * (dim + kd) + STACK_ELEMENTS // 32
        [first, *_] = stacks([params] * 64, n_start=n_cutoff)
        assert len(first) == max(1, STACK_ELEMENTS // cost)


#: every entry point that takes a cutoff, called on one point
CUTOFF_ENTRY_POINTS = {
    "solve": lambda params, n: [solve(params, 1e-10, fock_cutoff=n)],
    "solve_stack": lambda params, n: solve_stack([params], 1e-10, fock_cutoff=n),
    "ground_states": lambda params, n: ground_states([params], [n]),
    "converge_stack": lambda params, n: converge_stack([params], 1e-10, n_start=n),
    "stacks": lambda params, n: stacks([params], n_start=n),
}


@pytest.mark.parametrize("value", [np.int64(20), 10.0, 20.7], ids=["int64", "10.0", "20.7"])
@pytest.mark.parametrize("entry", list(CUTOFF_ENTRY_POINTS))
def test_cutoff_takes_any_integer_and_no_float(entry, value, monkeypatch):
    # a numpy integer is the cutoff it holds, and gives a Python-int n_cutoff; a
    # float, whole or not, is rejected before anything is solved, where it once
    # failed in model.capacity or was cut from 20.7 to 20
    call = CUTOFF_ENTRY_POINTS[entry]
    params = ModelParams(1.0, 1.0, 0.5, 2)
    if isinstance(value, float):
        def no_solve(*args, **kwargs):
            raise AssertionError("a cutoff that is not an integer must not be solved")

        monkeypatch.setattr(dicke_qfi.solver, "even_band", no_solve)
        with pytest.raises(ValueError, match="must be an integer"):
            call(params, value)
        return
    expected, outcome = call(params, 20), call(params, value)
    if entry == "stacks":
        assert outcome == expected
        return
    [gs], [reference] = outcome, expected
    assert_same_bits(reference, gs)
    assert type(gs.n_cutoff) is int


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("entry", ["solve", "solve_stack", "ground_states"])
def test_fixed_cutoff_past_budget_fails_before_allocating(entry, lam, monkeypatch):
    # a fixed cutoff once bypassed the cutoff limit, its block and units built
    # before anything could fail; now a cutoff past the budget fails first, with
    # its bytes and the budget, and the cutoff below it still solves
    params = ModelParams(1.0, 1.0, lam, 2)

    def outcome(n_cutoff):
        try:
            [result] = CUTOFF_ENTRY_POINTS[entry](params, n_cutoff)
        except SolverError as exc:
            return exc
        return result

    budget = solve_bytes(params, 40)
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", budget)
    assert outcome(40).n_cutoff == 40
    forbid_allocation(monkeypatch, "a cutoff past the memory budget must not be allocated")
    error = outcome(41)
    assert type(error) is ConvergenceError and error.n_cutoff == 41 and error.steps == ()
    assert str(error) == (f"n_cutoff=41 at N=2 needs {solve_bytes(params, 41)} bytes, "
                          f"past the memory budget of {budget} bytes")
    # the default budget: a block of more positions than the budget has floats
    monkeypatch.undo()
    forbid_allocation(monkeypatch, "a cutoff past the memory budget must not be allocated")
    huge = dicke_qfi.solver.MEMORY_BUDGET // 8
    assert isinstance(outcome(huge), SolverError) and outcome(huge).n_cutoff == huge


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n_atoms=st.integers(1, 10**6), n_cutoff=st.integers(1, 10**7),
       lam=st.sampled_from((0.0, 0.5, 3.0)))
def test_one_byte_short_of_the_band_is_refused(n_atoms, n_cutoff, lam):
    # any point is admitted at a budget of its bytes and, one byte short of them,
    # refused by the solver with the budget's message before anything is built
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    held = solve_bytes(params, n_cutoff)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", held)
        assert checked_bytes(params, n_cutoff) == held
        patch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", held - 1)
        [refused] = ground_states([params], [n_cutoff])
    assert type(refused) is ConvergenceError
    assert str(refused) == (f"n_cutoff={n_cutoff} at N={n_atoms} needs {held} bytes, "
                            f"past the memory budget of {held - 1} bytes")
    assert refused.n_cutoff == n_cutoff and refused.steps == ()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n_atoms=st.integers(1, 34), n_cutoff=st.integers(1, 10**7),
       budget=st.integers(1, 2**40), lam=st.sampled_from((0.0, 0.5, 3.0)))
def test_small_n_is_banded_or_refused(n_atoms, n_cutoff, budget, lam):
    # under any budget a point is admitted with its band's bytes or refused
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    banded = solve_bytes(params, n_cutoff)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", budget)
        try:
            held = checked_bytes(params, n_cutoff)
        except SolverError:
            assert banded > budget
        else:
            assert held == banded and banded <= budget


def test_small_n_past_budget_is_refused_and_banded_one_cutoff_lower(monkeypatch):
    # N = 10 one byte short of its band is refused; one cutoff lower it is banded
    # and certified
    params = ModelParams(1.0, 1.0, 0.8, 10)
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", solve_bytes(params, 60) - 1)
    with pytest.raises(SolverError, match="past the memory budget"):
        solve(params, fock_cutoff=60)
    assert solve(params, fock_cutoff=59).lower_bound is not None


def test_point_past_budget_fails_before_its_round(monkeypatch):
    # the middle point's cutoff is past the budget: it fails with its bytes before
    # any block of the round is built, and its neighbours keep their bits
    points = [ModelParams(1.0, 1.0, lam, 3) for lam in (0.4, 0.9, 1.3)]
    cutoffs = [20, 41, 24]
    alone = [solve(params, fock_cutoff=n_cutoff) for params, n_cutoff in zip(points, cutoffs)]
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", solve_bytes(points[1], 40))
    built = []
    write = dicke_qfi.solver.even_band
    monkeypatch.setattr(dicke_qfi.solver, "even_band", lambda points, cutoffs:
                        built.extend(cutoffs) or write(points, cutoffs))
    outcomes = ground_states(points, cutoffs)
    assert isinstance(outcomes[1], SolverError) and outcomes[1].n_cutoff == 41
    assert "past the memory budget" in str(outcomes[1])
    assert built == [20, 24]
    assert_same_bits(alone[0], outcomes[0])
    assert_same_bits(alone[2], outcomes[2])
    # converge_stack names the reason too, with no steps
    [error] = converge_stack(points[1:2], 1e-10, n_start=41)
    assert isinstance(error, ConvergenceError) and error.steps == () and error.n_cutoff == 41
    assert "past the memory budget" in str(error)


@pytest.mark.parametrize("n_atoms,n_cutoff", [(1, 6000), (2, 3000), (20, 400)])
def test_round_past_budget_is_solved_in_runs(n_atoms, n_cutoff, monkeypatch):
    # eight points whose bands together hold 8/3 of the budget are solved in runs
    # of 3, 3 and 2 blocks, each point with the bits it has alone; tracemalloc's
    # peak, the solved states included, stays within the budget (0.5 to 0.7 of it
    # measured), where one band of all eight peaked at 1.2 to 1.9 budgets
    points = [ModelParams(1.0, 1.0, float(lam), n_atoms) for lam in np.linspace(0.3, 2.5, 8)]
    alone = [solve(params, fock_cutoff=n_cutoff) for params in points]
    budget = 3 * solve_bytes(points[0], n_cutoff)
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", budget)
    runs = []
    banded_lowest = dicke_qfi.solver._banded_lowest
    monkeypatch.setattr(dicke_qfi.solver, "_banded_lowest",
                        lambda points, *args: runs.append(len(points))
                        or banded_lowest(points, *args))
    tracemalloc.start()
    try:
        outcomes = solve_stack(points, fock_cutoff=n_cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runs == [3, 3, 2]
    assert peak <= budget
    for gs, outcome in zip(alone, outcomes):
        assert_same_bits(gs, outcome)


def test_fitting_runs_keep_order_and_fit_the_budget(monkeypatch):
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", 10)
    sizes = [4, 5, 2, 11, 3, 3, 3, 1, 10]
    runs = list(dicke_qfi.solver.fitting_runs(sizes, int))
    assert runs == [[4, 5], [2], [11], [3, 3, 3, 1], [10]]
    assert list(dicke_qfi.solver.fitting_runs([], int)) == []
    # a budget of its own, and a cap on the items of a run
    runs = list(dicke_qfi.solver.fitting_runs(sizes, int, 6))
    assert runs == [[4], [5], [2], [11], [3, 3], [3, 1], [10]]
    runs = list(dicke_qfi.solver.fitting_runs(sizes, int, max_items=2))
    assert runs == [[4, 5], [2], [11], [3, 3], [3, 1], [10]]
