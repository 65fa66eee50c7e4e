"""Second-order channel statistics and the SNR / power formulas.

The relay network is described by three second-order quantities: the
diagonal D of source-to-relay gain powers E|f_i|^2, the covariance
R = E[h h^dagger] of the compound gains h_i = f_i g_i, and the covariance
Q = E[g g^dagger] of the relay-to-destination gains.  Under the Rician
model f_i = fbar_i + sqrt(psi_i) ftilde_i, g_j = gbar_j + sqrt(phi_j)
gtilde_j with independent zero-mean unit-variance perturbations, all three
have closed forms: R = hh^H + diag(delta) and Q = gbar gbar^H + diag(phi)
are a diagonal plus rank one.  Statistics from ``build_stats`` are held as
those vectors, so the SNR, the diagonal test and R's and Q's diagonals
cost O(n), and R and Q are formed only where a caller reads them.
``powers`` is the one relay-power formula of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .linalg import (_negligible, check_scalar, check_vector, hermitian, is_diagonal,
                     psd_violation, qform, symmetrize)


@dataclass
class RicianParams:
    """Per-relay Rician fading parameters (zero means = Rayleigh)."""

    f_mean: np.ndarray   # fbar, complex length n
    f_var: np.ndarray    # psi >= 0
    g_mean: np.ndarray   # gbar, complex length n
    g_var: np.ndarray    # phi >= 0

    def __post_init__(self):
        self.f_mean = check_vector(self.f_mean, name="f_mean")
        n = self.f_mean.size
        self.f_var = check_vector(self.f_var, name="f_var", n=n, kind="nonnegative")
        self.g_mean = check_vector(self.g_mean, name="g_mean", n=n)
        self.g_var = check_vector(self.g_var, name="g_var", n=n, kind="nonnegative")
        if np.all((self.f_mean == 0) & (self.f_var == 0)):
            raise InputError("f_mean and f_var give every source-relay channel zero power")

    @property
    def n(self) -> int:
        return self.f_mean.size


class _Rician(NamedTuple):
    """Statistics from ``build_stats`` as vectors: R = h h^H + diag(delta) and
    Q = g g^H + diag(phi), with the f-side means and variances that form R."""

    h: np.ndarray       # fbar o gbar
    delta: np.ndarray   # psi |gbar|^2 + phi |fbar|^2 + psi phi
    g: np.ndarray       # gbar
    phi: np.ndarray
    f: np.ndarray       # fbar
    psi: np.ndarray


@dataclass(repr=False, eq=False)
class ChannelStats:
    """The triple (D, R, Q) plus the common noise variance sigma^2.

    Statistics from ``build_stats`` hold the Rician vectors in ``_rician``
    instead of R and Q: the first read of R or Q forms both, by the closed
    form, and keeps them.  ``_forms`` gives the quadratic forms and the
    diagonals, in O(n) from the vectors where there are any.  The repr shows
    the data held, so it forms nothing, and equality is identity.
    """

    D: np.ndarray        # nonnegative, length n (diagonal entries)
    R: np.ndarray        # Hermitian PSD n x n
    Q: np.ndarray        # Hermitian PSD n x n
    sigma2: float = 1.0
    _rician = None       # _Rician: set by build_stats alone, see there

    def __post_init__(self):
        self.D = check_vector(self.D, name="D", kind="nonnegative")
        self.R = hermitian(self.R, name="R", n=self.D.size)
        self.Q = hermitian(self.Q, name="Q", n=self.D.size)
        self.sigma2 = check_scalar(self.sigma2, name="sigma2", kind="positive")
        for name, M in (("R", self.R), ("Q", self.Q)):
            lam = psd_violation(M)
            if lam:
                raise InputError(
                    f"{name} is not PSD (lambda_min = {lam:.3e}); covariance "
                    "matrices must be positive semidefinite")

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: R and Q not yet formed
        if name not in ("R", "Q") or self._rician is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.R, self.Q = _form(self._rician)
        return getattr(self, name)

    def __repr__(self):
        v = self._rician
        held = {"R": self.R, "Q": self.Q} if v is None else v._asdict()
        fields = {"D": self.D, "sigma2": self.sigma2, **held}
        return f"ChannelStats({', '.join(f'{k}={a!r}' for k, a in fields.items())})"

    @property
    def n(self) -> int:
        return self.D.size

    def is_diagonal(self) -> bool:
        """True when R and Q carry negligible off-diagonal mass."""
        v = self._rician
        if v is None:
            return is_diagonal(self.R) and is_diagonal(self.Q)
        # the off-diagonal mass of u u^H is sum_{i != j} |u_i| |u_j|
        return all(_negligible(2.0 * (a[1:] @ np.cumsum(a[:-1])), diag.sum())
                   for a, diag in zip((np.abs(v.h), np.abs(v.g)), self._forms()))

    def _forms(self, w=None):
        """(w^H R w, w^H Q w), or without w R's and Q's diagonals (real
        arrays).  On ``build_stats`` statistics they take O(n):
        |h^H w|^2 + delta |w|^2, |g^H w|^2 + phi |w|^2, and
        Q_ii = |g_i|^2 + phi_i with R_ii = D_i Q_ii."""
        v = self._rician
        if v is None:
            if w is None:
                return np.diag(self.R).real, np.diag(self.Q).real
            return qform(self.R, w), qform(self.Q, w)
        if w is None:
            q = np.abs(v.g) ** 2 + v.phi
            return self.D * q, q
        aw = w.real ** 2 + w.imag ** 2
        return (float(abs(np.vdot(v.h, w)) ** 2 + v.delta @ aw),
                float(abs(np.vdot(v.g, w)) ** 2 + v.phi @ aw))


def _form(v: _Rician):
    """R and Q from the vectors: R is the entrywise product of the f- and
    g-covariances because f and g are independent and h_i = f_i g_i."""
    Q = np.outer(v.g, v.g.conj()) + np.diag(v.phi)
    Rf = np.outer(v.f, v.f.conj()) + np.diag(v.psi)
    return symmetrize(Rf * Q), symmetrize(Q)


def check_stats(stats) -> ChannelStats:
    """``stats`` if it is a ChannelStats, else an InputError."""
    if not isinstance(stats, ChannelStats):
        raise InputError(f"stats must be a ChannelStats, got a {type(stats).__name__}")
    return stats


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
    """Closed-form statistics for the Rician model, held as vectors.

    D_ii = |fbar_i|^2 + psi_i;  Q = gbar gbar^H + diag(phi);
    R = h h^H + diag(delta) with h = fbar o gbar and
    delta = psi |gbar|^2 + phi |fbar|^2 + psi phi, which is the entrywise
    product of the f- and g-covariances (R_ii = D_ii Q_ii).  The statistics
    keep D and these vectors (copies, in the private ``_rician``), and form
    R and Q as that product the first time either is read; statistics built
    from matrices never carry them.  ``RicianParams`` has checked every
    input, and Q and R (a Schur product of PSD matrices) are Hermitian PSD
    by construction, so ChannelStats' checks of caller input are skipped
    and only sigma^2 is checked (a positive number, not a string).
    Parameters whose R or Q overflows raise: no entry exceeds R's or Q's
    largest diagonal entry, and symmetrizing doubles it, so the test reads
    2 Q_ii max(D_ii, 1) alone.
    """
    sigma2 = check_scalar(sigma2, name="sigma2", kind="positive")
    f, psi, g, phi = p.f_mean.copy(), p.f_var.copy(), p.g_mean.copy(), p.g_var.copy()
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is raised below
        f2, g2 = np.abs(f) ** 2, np.abs(g) ** 2
        D = f2 + psi
        bound = 2.0 * (g2 + phi) * np.maximum(D, 1.0)
        h, delta = f * g, psi * g2 + phi * f2 + psi * phi
    if not np.isfinite(bound).all():      # large finite parameters can still overflow
        raise InputError("the Rician parameters overflow R or Q")
    stats = object.__new__(ChannelStats)
    stats.D, stats.sigma2 = D, sigma2
    stats._rician = _Rician(h=h, delta=delta, g=g, phi=phi, f=f, psi=psi)
    return stats


def snr(stats: ChannelStats, Ps: float, w) -> float:
    """Destination SNR (Ps/sigma^2) * (w^H R w) / (1 + w^H Q w)."""
    Ps = check_scalar(Ps, name="Ps", kind="positive")
    rr, qq = check_stats(stats)._forms(check_vector(w, name="w", n=stats.n))
    return (Ps / stats.sigma2) * rr / (1.0 + qq)


def powers(stats: ChannelStats, Ps: float, w):
    """Total and per-relay transmit powers for weights w.

    Returns ``(P_r, P_ri)`` with P_r = Ps w^H D w + sigma^2 w^H w and
    P_ri = (Ps D_ii + sigma^2) |w_i|^2; the per-relay values sum to P_r.
    """
    Ps = check_scalar(Ps, name="Ps", kind="positive")
    w = check_vector(w, name="w", n=check_stats(stats).n)
    P_ri = (Ps * stats.D + stats.sigma2) * np.abs(w) ** 2
    return float(P_ri.sum()), P_ri
