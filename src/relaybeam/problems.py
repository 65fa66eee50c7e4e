"""Budget-annotated problem instances consumed by the solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamformingSolution, ChannelStats, _check_Ps, snr
from .errors import InputError


@dataclass
class TotalPowerProblem:
    """Maximize destination SNR subject to Ps + P_r <= P0."""

    stats: ChannelStats
    P0: float

    def __post_init__(self):
        if not 0 < self.P0 < np.inf:
            raise InputError(f"P0 must be positive and finite, got {self.P0}")


@dataclass
class IndivPowerProblem:
    """Maximize destination SNR subject to per-relay caps
    (Ps D_kk + sigma^2) |w_k|^2 <= P_k with the source power fixed."""

    stats: ChannelStats
    Ps: float
    P: np.ndarray

    def __post_init__(self):
        _check_Ps(self.Ps)
        self.P = np.asarray(self.P, dtype=float).ravel()
        if self.P.size != self.stats.n:
            raise InputError(
                f"P must hold one power cap per relay: got {self.P.size} for n={self.stats.n}"
            )
        if not ((self.P > 0) & (self.P < np.inf)).all():
            raise InputError("P must hold positive and finite relay power caps")

    @property
    def n(self) -> int:
        return self.stats.n

    @property
    def c(self) -> np.ndarray:
        """c_k = (Ps D_kk + sigma^2)/P_k: relay k's cap reads c_k |w_k|^2 <= 1."""
        return (self.Ps * self.stats.D + self.stats.sigma2) / self.P

    def caps(self) -> np.ndarray:
        """Per-relay magnitude bounds beta_k = c_k^{-1/2}."""
        return 1.0 / np.sqrt(self.c)

    def slacks(self, w) -> np.ndarray:
        """P_k (1 - c_k |w_k|^2), nonnegative iff w feasible."""
        w = np.asarray(w, dtype=complex).ravel()
        return self.P * (1.0 - self.c * np.abs(w) ** 2)

    def solution(self, w) -> BeamformingSolution:
        """``w`` with its SNR and per-relay slacks."""
        return BeamformingSolution(w=w, Ps=self.Ps, snr=snr(self.stats, self.Ps, w),
                                   feasibility=self.slacks(w))
