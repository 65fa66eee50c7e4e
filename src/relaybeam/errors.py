"""Exception hierarchy shared across the solvers.

The CLI maps ConvergenceError to exit code 2, InputError to exit code 3,
and ModelError (and any other RelayBeamError) to exit code 4.
"""


class RelayBeamError(Exception):
    """Base class for all library errors."""


class InputError(RelayBeamError):
    """Invalid user-supplied data: a value of the wrong kind (see ``linalg``'s
    checks), bad shapes, non-Hermitian matrices, negative variances, malformed
    scenario files, or an instance outside a solver's scope (non-diagonal R,
    Q for a diagonal solver; n > 3 where only n <= 3 is proven)."""


class ConvergenceError(RelayBeamError):
    """Iteration budget exhausted, a line search stalled, or a quantity below round-off."""


class ModelError(RelayBeamError):
    """Problem detected as infeasible, unbounded, or carrying no signal (R = 0)."""
