"""Exact per-relay-constraint solver for diagonal R and Q.

With uncorrelated Rayleigh fading the SNR ratio separates per relay and
Dinkelbach's method closes: the auxiliary function

    F(t) = -t + sum_k P_k/(Ps D_kk + sigma^2) * hinge((Ps/sigma^2) r_k - t q_k)

is strictly decreasing with a unique root t*, which equals the optimal SNR
exactly, and the root is available in closed form after sorting the
breakpoints t_k = Ps r_k / (sigma^2 q_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamformingSolution, snr
from .errors import DispatchError
from .problems import IndivPowerProblem


@dataclass
class DinkelbachState:
    t: float
    F_value: float
    w_squared: np.ndarray   # the maximizing |w_k|^2 at this t


def _diag_parts(p: IndivPowerProblem):
    if not p.stats.is_diagonal():
        raise DispatchError("R or Q is not diagonal; use the QCQP/search solvers")
    r = np.diag(p.stats.R).real
    q = np.diag(p.stats.Q).real
    coef = 1.0 / p.c   # full-cap |w_k|^2
    return r, q, coef


def dinkelbach_F(p: IndivPowerProblem, t: float) -> DinkelbachState:
    """Evaluate F(t) and the per-relay maximizer at this t."""
    r, q, coef = _diag_parts(p)
    margin = (p.Ps / p.stats.sigma2) * r - t * q
    w2 = np.where(margin > 0, coef, 0.0)
    F = -t + float((coef * np.maximum(margin, 0.0)).sum())
    return DinkelbachState(t=float(t), F_value=F, w_squared=w2)


def solve_diagonal(p: IndivPowerProblem) -> BeamformingSolution:
    """Closed-form root of F(t) = 0 and the associated weights.

    Sorts the breakpoints ascending; k0 is the first index with
    F(t~_k0) < 0 (or the exact-zero index), then

        t* = [sum_{k>=k0} coef_k Ps r~_k / sigma^2] / [1 + sum_{k>=k0} coef_k q~_k].

    Relays with t_k > t* transmit at full cap; the rest stay silent.
    Phases are set to zero: with diagonal R, Q the objective depends only
    on the magnitudes.
    """
    r, q, coef = _diag_parts(p)
    if not (r > 0).any():
        # SNR is identically zero; every feasible w is optimal
        w = np.zeros(p.n, dtype=complex)
        return BeamformingSolution(w=w, Ps=p.Ps, snr=0.0, feasibility=p.slacks(w))

    with np.errstate(divide="ignore"):
        tk = np.where(q > 0, p.Ps * r / (p.stats.sigma2 * q), np.inf)
    order = np.argsort(tk, kind="stable")
    ts = tk[order]

    k0 = None
    tstar = None
    for i, tv in enumerate(ts):
        if not np.isfinite(tv):
            k0 = i          # root lies beyond every finite breakpoint
            break
        F = dinkelbach_F(p, tv).F_value
        if F == 0.0:
            tstar = float(tv)
            break
        if F < 0.0:
            k0 = i
            break
    if tstar is None:
        if k0 is None:      # F still positive at the largest finite breakpoint
            k0 = len(ts) - 1
        sel = order[k0:]
        csel = coef[sel]
        tstar = float((csel * p.Ps * r[sel] / p.stats.sigma2).sum()
                      / (1.0 + (csel * q[sel]).sum()))

    w2 = dinkelbach_F(p, tstar).w_squared
    w = np.sqrt(w2).astype(complex)
    return BeamformingSolution(w=w, Ps=p.Ps, snr=snr(p.stats, p.Ps, w),
                               feasibility=p.slacks(w))
