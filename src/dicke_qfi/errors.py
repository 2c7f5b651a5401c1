"""Package-level error types.

Argument validation raises plain ``ValueError`` throughout; the classes
here cover numerical failure modes that callers may want to catch
separately.  The CLI takes every ``SolverError``, ``ConvergenceError``
included, as a failed point, named on stderr, with exit code 4.
"""


class SolverError(RuntimeError):
    """A solve failed or was refused: banded inverse iteration or the memory budget.

    A point whose solve would hold more bytes than the solver's memory
    budget is refused with ConvergenceError, naming its bytes and the
    budget, before anything is allocated for it.  The banded solver
    raises it when a Cholesky factorization of H - sigma I
    fails even for a shift below the Gershgorin bound of H, where one must
    exist, or when inverse iteration does not settle within its step limit;
    an energy bracket it cannot certify is never returned.  Running out of
    memory is re-raised as this class.
    ``n_cutoff`` is the Fock cutoff of the solve that failed or was refused
    (0 when there is none) and ``steps`` the solves of cutoff convergence
    completed, and rejected, before it.
    """

    def __init__(self, message: str, n_cutoff: int = 0, steps=()):
        super().__init__(message)
        self.n_cutoff = n_cutoff
        self.steps = tuple(steps)


class ConvergenceError(SolverError):
    """A solve refused by the memory budget, at a fixed cutoff or on the way to tolerance.

    ``n_cutoff`` is the refused cutoff: a point's first cutoff, with empty
    ``steps``, or the doubled one after the rejected solves in ``steps``.
    """
