"""SNR maximization under a joint source+relay power budget.

The joint problem over (Ps, w) reduces to a search over the normalized
source power x = Ps/P0.  With r = sigma^2/P0 and
B(x) = (D + rI)/(1-x) + (Q + rI)/x, the best SNR at x is (P0/sigma^2) mu(x)
for mu(x) = lambda_max(R, B(x)), and the paper's lambda_min(G(x)) equals
1/mu(x).  One change of basis, fixed for all x, makes B(x) diagonal: with
d = D + r and d^{-1/2} (Q + rI) d^{-1/2} = V diag(lam) V^H, B(x) becomes
diag(beta(x)) with beta = 1/(1-x) + lam/x, and mu(x) is the top eigenvalue
of H(x) = beta^{-1/2} Rt beta^{-1/2} for the fixed Rt = V^H d^{-1/2} R d^{-1/2} V.
Only the positive vector d is inverted, so rank-deficient R (line-of-sight
links) needs no special case.  The bracket [x_l, x_u] follows from lam_1
and lam_n.  Each iterate needs only H's top eigenpair, which gives analytic
first and second derivatives (Hadamard variation formulas): from one
eigendecomposition, or, from POWER_MIN_N relays, from a power iteration
certified to reach the simple top eigenvalue (``_power_top``).  For a
fixed weight direction the objective is exactly a/(1-x) + b/x, and
lambda_min(G(x)) is the minimum of such terms, so each step goes to the
minimizer sqrt(b)/(sqrt(a) + sqrt(b)) of one (see ``_target``).  A run
stops on the step test |dx/x| < STEP_TOL alone.  ``solve`` searches from
both bracket ends, stops the run from x_u where a target lands within
STEP_TOL of the x_l run's x (it could only tie there), and keeps it only at
a strictly smaller lambda_min.  For diagonal statistics the minimizer is in
closed form.  The weight direction d^{-1/2} V beta^{-1/2} h, for H's top
eigenvector h, is rescaled so the power budget holds with equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamformingSolution, powers, snr
from .errors import ConvergenceError, InputError, ModelError
from .problems import TotalPowerProblem
from .trace import SolverTrace

TRACE_COLUMNS = ("k", "x", "lambda_min", "d1", "d2", "step")
GAP_TOL = 1e-8     # relative spectral gap at or below which d2 is not trusted
MAX_ITER = 100     # Newton steps before ConvergenceError
STEP_TOL = 1e-3    # stop: |dx/x| < STEP_TOL
POWER_MIN_N = 48   # relay count from which lambda_min_g tries the power iteration
POWER_MATVECS = 30  # power iteration's matvec budget before the eigh fallback
POWER_STRIDE = 4   # matvecs between its residual tests


@dataclass
class SPair:
    """The problem in the basis that makes B(x) diagonal for every x."""

    lam: np.ndarray     # ascending eigenvalues of d^{-1/2} (Q + rI) d^{-1/2}
    Rt: np.ndarray      # V^H d^{-1/2} R d^{-1/2} V
    basis: np.ndarray   # d^{-1/2} V, maps H's eigenvectors back to weight space


@dataclass
class TotalPowerSolution:
    x: float                  # normalized source power Ps/P0 in (0, 1)
    Ps: float
    w: np.ndarray             # scaled so the budget is saturated
    snr: float
    lambda_min: float         # lambda_min(G(x)) = 1/mu(x) at the returned x
    iterations: int
    trace: SolverTrace


def build_s_pair(p: TotalPowerProblem) -> SPair:
    """One eigendecomposition of d^{-1/2} (Q + rI) d^{-1/2}, d = D + r."""
    stats = p.stats
    r = stats.sigma2 / p.P0
    dis = 1.0 / np.sqrt(stats.D + r)
    lam, V = np.linalg.eigh(dis[:, None] * (stats.Q + r * np.eye(stats.n)) * dis)
    # Q is PSD, so lam >= r/(max D + r), but at r below Q's round-off eigh can give lam <= 0
    lam = np.where(lam > 0, lam, r / (stats.D.max() + r))
    T = dis[:, None] * V
    Rt = T.conj().T @ stats.R @ T
    if not np.trace(Rt).real > 0:
        raise ModelError("R = 0: no signal reaches the destination, the SNR is 0 for every w")
    return SPair(lam=lam, Rt=Rt, basis=T)


def bracket_x(s: SPair) -> tuple[float, float]:
    """Bracket [x_l, x_u] containing every optimal x.

    x_l = sqrt(c)/(1+sqrt(c)) and x_u = sqrt(d)/(1+sqrt(d)) where c, d are
    the extreme generalized eigenvalues of (Q + rI, D + rI), lam_1 and lam_n.
    """
    c, d = np.sqrt(s.lam[[0, -1]])
    return float(c / (1.0 + c)), float(d / (1.0 + d))


def lambda_min_g(s: SPair, x: float):
    """lambda_min(G(x)) = 1/mu(x), its first and second derivatives in x,
    the weight direction, and the relative gap (mu_1 - mu_2)/mu_1 below H's
    top eigenvalue.  At a zero gap (a repeated eigenvalue) the derivatives
    of lambda_min do not exist and d2 is meaningless, but d1 is still the
    slope of the returned direction's own term a/(1-x) + b/x.

    With D1 = diag(-beta'/2beta) and D2 = diag(3beta'^2/4beta^2 - beta''/2beta),
    H' = D1 H + H D1 and H'' = D2 H + 2 D1 H D1 + H D2, so in H's eigenbasis
    with c = U^H D1 h: mu' = 2 mu h^H D1 h and
    mu'' = 2 mu h^H D2 h + 2 sum_j mu_j |c_j|^2
           + 2 sum_{j>1} (mu + mu_j)^2 |c_j|^2 / (mu - mu_j).
    Where ``_power_top`` certifies them (n >= POWER_MIN_N) the gap is a lower bound.
    """
    if not 0.0 < x < 1.0:
        raise InputError(f"x must lie in (0,1), got {x}")
    beta = 1.0 / (1.0 - x) + s.lam / x
    db = 1.0 / (1.0 - x) ** 2 - s.lam / x ** 2
    ddb = 2.0 / (1.0 - x) ** 3 + 2.0 * s.lam / x ** 3
    bis = 1.0 / np.sqrt(beta)
    H = bis[:, None] * s.Rt * bis
    D1 = -db / (2.0 * beta)
    D2 = 0.75 * (db / beta) ** 2 - ddb / (2.0 * beta)
    top = _power_top(H, D1) if s.lam.size >= POWER_MIN_N else None
    if top is None:
        mus, U = np.linalg.eigh(H)
        mu, h, rest = mus[-1], U[:, -1], mus[:-1]
        cc = np.abs(U.conj().T @ (D1 * h)) ** 2
        gap = float((mu - rest[-1]) / mu) if rest.size else np.inf
    else:
        mu, h, near, far, gap = top
    hh = np.abs(h) ** 2
    dmu = 2.0 * mu * (D1 @ hh)
    # at a zero gap d2 is meaningless, and _target reads the gap before d2;
    # where mu^2 underflows, newton_solve rejects the non-finite target
    with np.errstate(divide="ignore", invalid="ignore"):
        if top is None:
            near, far = mus @ cc, ((mu + rest) ** 2 * cc[:-1] / (mu - rest)).sum()
        ddmu = 2.0 * (mu * (D2 @ hh) + near + far)
        d1 = -dmu / mu ** 2
        d2 = -ddmu / mu ** 2 + 2.0 * dmu ** 2 / mu ** 3
    return float(1.0 / mu), float(d1), float(d2), s.basis @ (bis * h), gap


def _power_top(H, D1):
    """mu, h, lambda_min_g's two sums and a gap bound by power iteration, or None.

    On H/H_kk, from its largest-diagonal column k, no test reads units or
    denormal values.  A unit v with Rayleigh quotient t and residual r has an
    eigenvalue in [t - r, t + r]; once (t - r)^2 > ||H||_F^2/2 it is the simple
    top one, and no other exceeds sqrt(||H||_F^2 - (t - r)^2).  It stops at a
    gap bound above GAP_TOL and r <= n eps t (eigh's backward error), and gives
    up while ||H v||^2 <= ||H||_F^2/2 or after POWER_MATVECS matvecs.  With
    g = D1 h and z = g - h (h^H g), sum_j mu_j |c_j|^2 = g^H H g, and as
    (mu + m)^2/(mu - m) = 4 mu^2/(mu - m) - m - 3 mu, the sum over j > 1 is
    4 mu^2 z^H (mu (I + h h^H) - H)^-1 z - z^H H z - 3 mu ||z||^2.
    """
    n, k = H.shape[0], int(np.argmax(H.diagonal().real))
    scale = H[k, k].real
    if not scale >= np.finfo(float).tiny:
        return None
    Hs = H * (1.0 / scale)
    fro, v, used = np.vdot(Hs, Hs).real, Hs @ Hs[:, k], 2
    while True:
        v = v / np.sqrt(np.vdot(v, v).real)
        Hv = Hs @ v
        t = np.vdot(v, Hv).real
        res = np.sqrt(np.vdot(Hv - t * v, Hv - t * v).real)
        gap = (t - res - np.sqrt(max(fro - (t - res) ** 2, 0.0))) / t
        if (t - res) ** 2 > fro / 2.0 and gap > GAP_TOL and res <= n * np.finfo(float).eps * t:
            break
        if not np.vdot(Hv, Hv).real > fro / 2.0 or used >= POWER_MATVECS:
            return None
        for _ in range(POWER_STRIDE - 1):
            Hv = Hs @ Hv
        v, used = Hv, used + POWER_STRIDE
    g = D1 * v
    z = g - v * np.vdot(v, g)
    M = np.outer(t * v, v.conj()) - Hs
    M.flat[::n + 1] += t
    far = (4.0 * t * t * np.vdot(z, np.linalg.solve(M, z)) - np.vdot(z, Hs @ z)
           - 3.0 * t * np.vdot(z, z)).real
    return t * scale, v, np.vdot(g, Hs @ g).real * scale, far * scale, float(gap)


def solve_diagonal(p: TotalPowerProblem) -> TotalPowerSolution:
    """Closed form when R, Q are diagonal (uncorrelated Rayleigh fading).

    With a_k = (D_k + r)/R_kk and b_k = (Q_kk + r)/R_kk,
    min_x min_k (a_k/(1-x) + b_k/x) = (sqrt(a_k0)+sqrt(b_k0))^2 attained at
    x = sqrt(b_k0)/(sqrt(a_k0)+sqrt(b_k0)), k0 minimizing (sqrt a + sqrt b)^2.
    It is computed as the maximum of R_kk/(sqrt(D_k+r)+sqrt(Q_kk+r))^2, so a
    relay with R_kk = 0 is never chosen.
    """
    stats = p.stats
    if not stats.is_diagonal():
        raise InputError("R, Q are not diagonal; use newton_solve or solve")
    r = stats.sigma2 / p.P0
    sa = np.sqrt(stats.D + r)
    sb = np.sqrt(np.diag(stats.Q).real + r)
    mu = np.diag(stats.R).real / (sa + sb) ** 2
    k0 = int(np.argmax(mu))
    if not mu[k0] > 0:
        raise ModelError("R = 0: no signal reaches the destination, the SNR is 0 for every w")
    x = float(sb[k0] / (sa[k0] + sb[k0]))
    lam = float(1.0 / mu[k0])
    trace = SolverTrace(columns=TRACE_COLUMNS)
    trace.append(0, x, lam, 0.0, 0.0, 0.0)
    trace.note(f"closed form, k0={k0}")
    return _package(p, x, lam, np.eye(stats.n)[:, k0] + 0j, 0, trace)


def newton_solve(p: TotalPowerProblem, x0: float, s: SPair | None = None,
                 meet: float | None = None) -> TotalPowerSolution:
    """Bracketed Newton-type search for a stationary x starting from x0.

    Every step goes where ``_target`` says: to the minimizer of a term
    a/(1-x) + b/x, fitted to (d1, d2) where the gap and d2 can be trusted and
    otherwise the top direction's own, which cannot raise lambda_min.  Stops
    when |dx/x| < STEP_TOL, a test free of the problem's units, or raises
    ConvergenceError after MAX_ITER steps or at a target outside (0, 1)
    (mu^2 underflows below P0/sigma^2 ~ 1e-160).  Given ``meet``, another
    run's x, it stops once a target lands within STEP_TOL of it, where it
    could only end there: it returns the current iterate and its steps, with
    a trace note.
    """
    if s is None:
        s = build_s_pair(p)
    xl, xu = bracket_x(s)
    if not xl <= x0 <= xu:
        raise InputError(f"x0={x0} outside bracket [{xl:.6f}, {xu:.6f}]")
    trace = SolverTrace(columns=TRACE_COLUMNS)
    x = float(x0)
    lam, d1, d2, w_dir, gap = lambda_min_g(s, x)
    for k in range(MAX_ITER):
        x_new = _target(x, lam, d1, d2, gap, xl, xu)
        if not 0.0 < x_new < 1.0:
            raise ConvergenceError(f"Newton broke down at iteration {k}: x={x} has target {x_new}")
        if meet is not None and abs((x_new - meet) / meet) < STEP_TOL:
            trace.note(f"met x={meet} after {k} steps")
            return _package(p, x, lam, w_dir, k, trace)
        trace.append(k, x, lam, d1, d2, x_new - x)
        converged = abs((x_new - x) / x) < STEP_TOL
        x = x_new
        lam, d1, d2, w_dir, gap = lambda_min_g(s, x)
        if converged:
            return _package(p, x, lam, w_dir, k + 1, trace)
    raise ConvergenceError(f"Newton did not meet the stopping test in {MAX_ITER} iterations")


def solve(p: TotalPowerProblem) -> TotalPowerSolution:
    """Dispatch: diagonal instances in closed form, otherwise Newton from
    both bracket endpoints.  A run from x_u that meets the x_l run (see
    newton_solve; its trace notes it) would end there and tie, so the x_l
    run is kept.  Otherwise the run from x_u is kept only where it reaches
    a strictly smaller lambda_min, the quantity both runs minimize."""
    if p.stats.is_diagonal():
        return solve_diagonal(p)
    s = build_s_pair(p)
    xl, xu = bracket_x(s)
    run_l = newton_solve(p, xl, s=s)
    run_u = newton_solve(p, xu, s=s, meet=run_l.x)
    return run_u if not run_u.trace.notes and run_u.lambda_min < run_l.lambda_min else run_l


def _target(x, lam, d1, d2, gap, xl, xu):
    """The next iterate from x: the minimizer of a term a/(1-x) + b/x.

    The term is fitted to (d1, d2) where the gap exceeds GAP_TOL and d2 > 0
    (Newton's x - d1/d2 where that fit has a <= 0 or b <= 0).  Otherwise, or
    where that target leaves [xl, xu], it is the top direction's own term
    through (lam, d1): it lies above lambda_min and touches it at x, and b/a
    is a Rayleigh quotient of (Q + rI, D + rI), so its minimizer lies in
    [xl, xu] and cannot raise lambda_min.
    """
    if gap > GAP_TOL and d2 > 0:
        a = (d2 + 2.0 * d1 / x) * (1.0 - x) ** 3 * x / 2.0
        b = (d2 - 2.0 * d1 / (1.0 - x)) * x ** 3 * (1.0 - x) / 2.0
        t = x - d1 / d2 if a <= 0 or b <= 0 else _argmin(a, b)
        if xl <= t <= xu:
            return t
    return _argmin((1.0 - x) ** 2 * (lam + x * d1), x ** 2 * (lam - (1.0 - x) * d1))


def _argmin(a, b):
    return b ** 0.5 / (a ** 0.5 + b ** 0.5)


def _package(p, x, lam, w_dir, iterations, trace) -> TotalPowerSolution:
    stats = p.stats
    Ps = x * p.P0
    # saturate the budget: Ps + P_r = P0
    w = w_dir * np.sqrt((p.P0 - Ps) / powers(stats, Ps, w_dir)[0])
    # deterministic phase: largest-magnitude entry real positive
    j = int(np.argmax(np.abs(w)))
    if np.abs(w[j]) > 0:
        w = w * (np.abs(w[j]) / w[j])
    return TotalPowerSolution(x=float(x), Ps=float(Ps), w=w,
                              snr=snr(stats, Ps, w), lambda_min=float(lam),
                              iterations=iterations, trace=trace)


def as_beamforming_solution(p: TotalPowerProblem, sol: TotalPowerSolution) -> BeamformingSolution:
    """Repackage with the budget slack as the single feasibility entry."""
    used = sol.Ps + powers(p.stats, sol.Ps, sol.w)[0]
    return BeamformingSolution(w=sol.w, Ps=sol.Ps, snr=sol.snr,
                               feasibility=np.array([p.P0 - used]))
