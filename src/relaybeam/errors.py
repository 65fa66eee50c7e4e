"""Exception hierarchy shared across the solvers.

The CLI maps ConvergenceError to exit code 2 and InputError to exit code 3.
"""


class RelayBeamError(Exception):
    """Base class for all library errors."""


class InputError(RelayBeamError):
    """Invalid user-supplied data: a value of the wrong kind (see ``linalg``'s
    checks), bad shapes, non-Hermitian matrices, negative variances, malformed
    scenario files, or an instance outside a solver's scope (non-diagonal R,
    Q for a diagonal solver; n > 3 where only n <= 3 is proven)."""


class ConvergenceError(RelayBeamError):
    """Iteration budget spent, a line search stalled, or a quantity lost to round-off or underflow."""
