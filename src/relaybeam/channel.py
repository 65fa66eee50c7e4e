"""Second-order channel statistics and the SNR / power formulas.

The relay network is described by three second-order quantities: the
diagonal D of source-to-relay gain powers E|f_i|^2, the covariance
R = E[h h^dagger] of the compound gains h_i = f_i g_i, and the covariance
Q = E[g g^dagger] of the relay-to-destination gains.  Under the Rician
model f_i = fbar_i + sqrt(psi_i) ftilde_i, g_j = gbar_j + sqrt(phi_j)
gtilde_j with independent zero-mean unit-variance perturbations, all three
have closed forms.  ``powers`` is the one relay-power formula of the
package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import check_vector, hermitian, is_diagonal, psd_violation, qform, symmetrize


@dataclass
class RicianParams:
    """Per-relay Rician fading parameters (zero means = Rayleigh)."""

    f_mean: np.ndarray   # fbar, complex length n
    f_var: np.ndarray    # psi >= 0
    g_mean: np.ndarray   # gbar, complex length n
    g_var: np.ndarray    # phi >= 0

    def __post_init__(self):
        self.f_mean = check_vector(self.f_mean, name="f_mean")
        self.g_mean = check_vector(self.g_mean, name="g_mean")
        self.f_var = np.asarray(self.f_var, dtype=float).ravel()
        self.g_var = np.asarray(self.g_var, dtype=float).ravel()
        n = self.f_mean.size
        if not (self.f_var.size == self.g_mean.size == self.g_var.size == n):
            raise InputError("f_mean, f_var, g_mean and g_var must share one length")
        for name, var in (("f_var", self.f_var), ("g_var", self.g_var)):
            if not ((var >= 0) & (var < np.inf)).all():
                raise InputError(f"{name} must be nonnegative and finite")
        if np.all((self.f_mean == 0) & (self.f_var == 0)):
            raise InputError("f_mean and f_var give every source-relay channel zero power")

    @property
    def n(self) -> int:
        return self.f_mean.size


@dataclass
class ChannelStats:
    """The triple (D, R, Q) plus the common noise variance sigma^2."""

    D: np.ndarray        # nonnegative, length n (diagonal entries)
    R: np.ndarray        # Hermitian PSD n x n
    Q: np.ndarray        # Hermitian PSD n x n
    sigma2: float = 1.0

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float).ravel()
        self.R = hermitian(self.R, name="R")
        self.Q = hermitian(self.Q, name="Q")
        n = self.D.size
        if self.R.shape != (n, n) or self.Q.shape != (n, n):
            raise InputError("D, R, Q dimensions disagree")
        if not ((self.D >= 0) & (self.D < np.inf)).all():
            raise InputError("D must be nonnegative and finite")
        _check_sigma2(self.sigma2)
        for name, M in (("R", self.R), ("Q", self.Q)):
            lam = psd_violation(M)
            if lam:
                raise InputError(
                    f"{name} is not PSD (lambda_min = {lam:.3e}); covariance "
                    "matrices must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.D.size

    def is_diagonal(self) -> bool:
        """True when R and Q carry negligible off-diagonal mass."""
        return is_diagonal(self.R) and is_diagonal(self.Q)


def _check_sigma2(sigma2):
    if not 0 < sigma2 < np.inf:
        raise InputError(f"sigma2 must be positive and finite, got {sigma2}")


def _check_Ps(Ps):
    if not 0 < Ps < np.inf:
        raise InputError(f"Ps must be positive and finite, got {Ps}")


@dataclass
class BeamformingSolution:
    """A weight vector with its achieved SNR and per-constraint slacks."""

    w: np.ndarray
    Ps: float
    snr: float
    feasibility: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def snr_db(self) -> float:
        return 10.0 * np.log10(self.snr) if self.snr > 0 else -np.inf


def build_stats(p: RicianParams, sigma2: float = 1.0) -> ChannelStats:
    """Closed-form (D, R, Q) for the Rician model.

    D_ii = |fbar_i|^2 + psi_i;  Q_ij = gbar_i gbar_j^* + sqrt(phi_i phi_j) delta_ij;
    R_ij is the entrywise product of the f- and g-covariances because f and g
    are independent and h_i = f_i g_i.  ``RicianParams`` has checked every
    input, and Q and R (a Schur product of PSD matrices) are Hermitian PSD by
    construction, so ChannelStats' checks of caller input are skipped and
    only sigma^2 is checked.
    """
    sigma2 = float(sigma2)
    _check_sigma2(sigma2)
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is raised below
        D = np.abs(p.f_mean) ** 2 + p.f_var
        Q = np.outer(p.g_mean, p.g_mean.conj()) + np.diag(p.g_var)
        Rf = np.outer(p.f_mean, p.f_mean.conj()) + np.diag(p.f_var)
        R = symmetrize(Rf * Q)
    if not np.isfinite(R).all():      # large finite parameters can still overflow
        raise InputError("the Rician parameters overflow R")
    stats = object.__new__(ChannelStats)
    stats.D, stats.R, stats.Q, stats.sigma2 = D, R, symmetrize(Q), sigma2
    return stats


def snr(stats: ChannelStats, Ps: float, w) -> float:
    """Destination SNR (Ps/sigma^2) * (w^H R w) / (1 + w^H Q w)."""
    _check_Ps(Ps)
    w = np.asarray(w, dtype=complex).ravel()
    return (Ps / stats.sigma2) * qform(stats.R, w) / (1.0 + qform(stats.Q, w))


def powers(stats: ChannelStats, Ps: float, w):
    """Total and per-relay transmit powers for weights w.

    Returns ``(P_r, P_ri)`` with P_r = Ps w^H D w + sigma^2 w^H w and
    P_ri = (Ps D_ii + sigma^2) |w_i|^2; the per-relay values sum to P_r.
    """
    _check_Ps(Ps)
    w = np.asarray(w, dtype=complex).ravel()
    P_ri = (Ps * stats.D + stats.sigma2) * np.abs(w) ** 2
    return float(P_ri.sum()), P_ri
