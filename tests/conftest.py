import pytest
from qfi_reference import partial_trace_atoms, partial_trace_field

import dicke_qfi.solver
from dicke_qfi import ModelParams, SolverError, schmidt_decompose, solve


@pytest.fixture(scope="session")
def ultrastrong_n6():
    """Converged N=6, lambda=2 ground state with both reduced states.

    ``rho_a``/``rho_b`` are the dense partial traces, ``atoms``/``field`` the
    Schmidt decomposition.
    """
    params = ModelParams(1.0, 1.0, 2.0, 6)
    gs = solve(params, 1e-10)
    n_cutoff = gs.n_cutoff
    field, atoms = schmidt_decompose(gs)
    return {
        "params": params,
        "n_cutoff": n_cutoff,
        "gs": gs,
        "rho_a": partial_trace_field(gs),
        "rho_b": partial_trace_atoms(gs),
        "atoms": atoms,
        "field": field,
    }


@pytest.fixture
def fail_solves_above(monkeypatch):
    """Call with a cutoff to make every ground-state solve above it fail with SolverError.

    The failing points of a stack get their SolverError; the others are solved.
    """
    real = dicke_qfi.solver.ground_states

    def install(max_cutoff):
        def solve_or_fail(points, cutoffs):
            kept = [i for i, n_cutoff in enumerate(cutoffs) if n_cutoff <= max_cutoff]
            solved = iter(real([points[i] for i in kept], [cutoffs[i] for i in kept]))
            return [next(solved) if n_cutoff <= max_cutoff
                    else SolverError(f"forced failure at n_cutoff={n_cutoff}", n_cutoff)
                    for n_cutoff in cutoffs]

        monkeypatch.setattr(dicke_qfi.solver, "ground_states", solve_or_fail)

    return install
