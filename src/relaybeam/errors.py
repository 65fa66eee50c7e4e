"""Exception hierarchy shared across the solvers.

The CLI maps ConvergenceError to exit code 2, InputError (with its
subclasses DispatchError and ScopeError) to exit code 3, and every other
RelayBeamError (SingularityError, ModelError) to exit code 4.
"""


class RelayBeamError(Exception):
    """Base class for all library errors."""


class InputError(RelayBeamError):
    """Invalid user-supplied data: bad shapes, non-Hermitian matrices,
    negative variances, malformed scenario files."""


class DispatchError(InputError):
    """A solver restricted to a structural subclass (e.g. diagonal R, Q)
    received an instance outside it."""


class ScopeError(InputError):
    """Operation invoked outside its proven scope (e.g. rank-one
    decomposition with more than three relays)."""


class SingularityError(RelayBeamError):
    """A matrix that must be positive definite is numerically singular."""


class ConvergenceError(RelayBeamError):
    """Iteration budget exhausted or a line search stalled."""


class ModelError(RelayBeamError):
    """Problem detected as infeasible, unbounded, or carrying no signal (R = 0)."""
