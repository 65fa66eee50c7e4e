"""Exact per-relay-constraint solver for diagonal R and Q.

With uncorrelated Rayleigh fading the SNR ratio separates per relay and
Dinkelbach's method closes: the auxiliary function

    F(t) = -t + sum_k P_k/(Ps D_kk + sigma^2) * hinge((Ps/sigma^2) r_k - t q_k)

is strictly decreasing with a unique root t*, which equals the optimal SNR
exactly, and the root is available in closed form after sorting the
breakpoints t_k = Ps r_k / (sigma^2 q_k) in descending order.
"""

from __future__ import annotations

import numpy as np

from .channel import BeamformingSolution
from .errors import InputError
from .problems import IndivPowerProblem


def _diag_parts(p: IndivPowerProblem):
    if not p.stats.is_diagonal():
        raise InputError("R or Q is not diagonal; use the QCQP/search solvers")
    r = np.diag(p.stats.R).real
    q = np.diag(p.stats.Q).real
    coef = 1.0 / p.c   # full-cap |w_k|^2
    return r, q, coef


def solve_diagonal(p: IndivPowerProblem) -> BeamformingSolution:
    """Closed-form root of F(t) = 0 and the associated weights.

    F(t) is the largest over relay sets S of -t + sum_S coef_k (a_k - t q~_k),
    a_k = Ps r~_k / sigma^2; each is strictly decreasing with the root
    t_S = sum_S coef_k a_k / (1 + sum_S coef_k q~_k), so t* is the largest
    t_S.  The best S is a prefix of the relays in descending breakpoint
    order (the empty set gives t = 0), hence

        t* = max(0, max_m [sum_{i<=m} coef a] / [1 + sum_{i<=m} coef q~])

    over that order.  Relays with t_k > t* transmit at full cap; the rest
    stay silent.  Phases are set to zero: with diagonal R, Q the objective
    depends only on the magnitudes.
    """
    r, q, coef = _diag_parts(p)
    a = (p.Ps / p.stats.sigma2) * r
    tk = np.divide(a, q, out=np.full(p.n, np.inf), where=q > 0)
    order = np.argsort(-tk, kind="stable")
    ratios = np.cumsum(coef[order] * a[order]) / (1.0 + np.cumsum(coef[order] * q[order]))
    tstar = max(0.0, float(ratios.max()))
    # F(t*)'s maximizer: full cap where the margin a_k - t* q~_k is positive
    w = np.sqrt(np.where(a - tstar * q > 0, coef, 0.0)).astype(complex)
    return p.solution(w)
