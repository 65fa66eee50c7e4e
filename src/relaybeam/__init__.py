"""Cooperative relay beamforming from second-order channel statistics.

Solvers for destination-SNR maximization in amplify-and-forward relay
networks under either a joint source+relay power budget or per-relay
power caps, driven entirely by the channel covariance triple (D, R, Q).
The package namespace holds the problem inputs and the error classes
behind the CLI's exit codes; the solvers are its modules.
"""

from .channel import ChannelStats, RicianParams, build_stats
from .errors import ConvergenceError, InputError, ModelError, RelayBeamError
from .problems import IndivPowerProblem, TotalPowerProblem

__all__ = [
    "ChannelStats", "RicianParams", "build_stats",
    "IndivPowerProblem", "TotalPowerProblem",
    "RelayBeamError", "InputError", "ConvergenceError", "ModelError",
]

__version__ = "0.1.0"
