"""Package-level error types.

Argument validation raises plain ``ValueError`` throughout; the classes
here cover numerical failure modes that callers may want to catch
separately (the CLI maps them to distinct exit codes).
"""


class SolverError(RuntimeError):
    """An eigensolver (dense LAPACK or sparse ARPACK) failed to converge."""


class ConvergenceError(RuntimeError):
    """Fock-cutoff doubling hit the hard cap before reaching tolerance."""

    def __init__(self, message: str, steps=()):
        super().__init__(message)
        self.steps = tuple(steps)
