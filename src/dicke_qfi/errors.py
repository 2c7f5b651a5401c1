"""Package-level error types.

Argument validation raises plain ``ValueError`` throughout; the classes
here cover numerical failure modes that callers may want to catch
separately (the CLI maps them to distinct exit codes).
"""


class SolverError(RuntimeError):
    """An eigensolver (dense LAPACK or sparse ARPACK) failed to converge.

    ``n_cutoff`` is the Fock cutoff of the failing solve (0 when there is
    none) and ``steps`` the cutoff-doubling steps completed before it.
    """

    def __init__(self, message: str, n_cutoff: int = 0, steps=()):
        super().__init__(message)
        self.n_cutoff = n_cutoff
        self.steps = tuple(steps)


class ConvergenceError(SolverError):
    """Fock-cutoff doubling hit the hard cap before reaching tolerance."""
