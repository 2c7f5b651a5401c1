"""Package-level error types.

Argument validation raises plain ``ValueError`` throughout; the classes
here cover numerical failure modes that callers may want to catch
separately (the CLI maps them to distinct exit codes).
"""


class SolverError(RuntimeError):
    """An eigensolver failed: banded inverse iteration or sparse ARPACK.

    The banded solver raises it when a Cholesky factorization of H - sigma I
    fails even for a shift below the Gershgorin bound of H, where one must
    exist, or when inverse iteration does not settle within its step limit;
    an energy bracket it cannot certify is never returned.  ARPACK errors,
    non-convergence and running out of memory are re-raised as this class.
    ``n_cutoff`` is the Fock cutoff of the failing solve (0 when there is
    none) and ``steps`` the cutoff-doubling steps completed before it.
    """

    def __init__(self, message: str, n_cutoff: int = 0, steps=()):
        super().__init__(message)
        self.n_cutoff = n_cutoff
        self.steps = tuple(steps)


class ConvergenceError(SolverError):
    """Fock-cutoff doubling hit the hard cap before reaching tolerance."""
