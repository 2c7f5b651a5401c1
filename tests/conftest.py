import pytest
from qfi_reference import partial_trace_atoms, partial_trace_field

import dicke_qfi.solver
from dicke_qfi import ModelParams, SolverError, converge_cutoff, schmidt_decompose


@pytest.fixture(scope="session")
def ultrastrong_n6():
    """Converged N=6, lambda=2 ground state with both reduced states.

    ``rho_a``/``rho_b`` are the dense partial traces, ``atoms``/``field`` the
    Schmidt decomposition.
    """
    params = ModelParams(1.0, 1.0, 2.0, 6)
    n_cutoff, gs = converge_cutoff(params, 1e-10)
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
    """Call with a cutoff to make every ground-state solve above it raise SolverError."""
    real = dicke_qfi.solver.ground_state

    def install(max_cutoff):
        def solve_or_fail(params, n_cutoff, previous=None):
            if n_cutoff > max_cutoff:
                raise SolverError(f"forced failure at n_cutoff={n_cutoff}", n_cutoff)
            return real(params, n_cutoff, previous)

        monkeypatch.setattr(dicke_qfi.solver, "ground_state", solve_or_fail)

    return install
