"""Budget-annotated problem instances consumed by the solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamformingSolution, ChannelStats, snr
from .errors import InputError
from .linalg import check_scalar, check_type, check_vector


@dataclass
class TotalPowerProblem:
    """Maximize destination SNR subject to Ps + P_r <= P0."""

    stats: ChannelStats
    P0: float

    def __post_init__(self):
        check_type(self.stats, ChannelStats, name="stats")
        self.P0 = check_scalar(self.P0, name="P0", kind="positive")
        if not 0 < self.stats.sigma2 / self.P0 < np.inf:
            raise InputError(f"sigma2/P0 = {self.stats.sigma2}/{self.P0} is not positive and finite")


@dataclass
class IndivPowerProblem:
    """Maximize destination SNR subject to per-relay caps
    (Ps D_kk + sigma^2) |w_k|^2 <= P_k with the source power fixed."""

    stats: ChannelStats
    Ps: float
    P: np.ndarray

    def __post_init__(self):
        check_type(self.stats, ChannelStats, name="stats")
        self.Ps = check_scalar(self.Ps, name="Ps", kind="positive")
        self.P = check_vector(self.P, name="P", n=self.stats.n, kind="positive")

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
        w = check_vector(w, name="w", n=self.n)
        return self.P * (1.0 - self.c * np.abs(w) ** 2)

    def solution(self, w) -> BeamformingSolution:
        """``w`` with its SNR and per-relay slacks."""
        return BeamformingSolution(w=w, Ps=self.Ps, snr=snr(self.stats, self.Ps, w),
                                   feasibility=self.slacks(w))
