"""Cooperative relay beamforming from second-order channel statistics.

Solvers for destination-SNR maximization in amplify-and-forward relay
networks under either a joint source+relay power budget or per-relay
power caps, driven entirely by the channel covariance triple (D, R, Q).
"""

from .channel import (BeamformingSolution, ChannelStats, RicianParams,
                      build_stats, powers, snr)
from .errors import (ConvergenceError, DispatchError, InputError, ModelError,
                     RelayBeamError, ScopeError, SingularityError)
from .linalg import hermitian
from .problems import IndivPowerProblem, TotalPowerProblem
from .sdp import (CertificateReport, SdpProblem, SdpSolution,
                  dual_certificate_residuals, solve_relaxation)
from .trace import SolverTrace

__all__ = [
    "BeamformingSolution", "ChannelStats", "RicianParams", "build_stats",
    "powers", "snr",
    "ConvergenceError", "DispatchError", "InputError", "ModelError",
    "RelayBeamError", "ScopeError", "SingularityError",
    "hermitian",
    "IndivPowerProblem", "TotalPowerProblem",
    "CertificateReport", "SdpProblem", "SdpSolution",
    "dual_certificate_residuals", "solve_relaxation",
    "SolverTrace",
]

__version__ = "0.1.0"
