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
and lam_n.  Each iterate takes one eigendecomposition of H: its top
eigenpair, and the analytic first and second derivatives (Hadamard
variation formulas), which the second reads off every eigenpair.  For a
fixed weight direction the objective is exactly a/(1-x) + b/x, and
lambda_min(G(x)) is the minimum of such terms, so each step goes to the
minimizer sqrt(b)/(sqrt(a) + sqrt(b)) of one (see ``_target``).  A run
stops on the step test |dx/x| < STEP_TOL alone.  ``solve`` searches from
both bracket ends, stops the run from x_u where a target lands within
STEP_TOL of the x_l run's x (it could only tie there), and keeps it only at
a strictly smaller lambda_min; only the run kept is packaged.  For
diagonal statistics the minimizer is in closed form, read off R's and Q's
diagonals.  The weight direction d^{-1/2} V beta^{-1/2} h, for H's top
eigenvector h, is rescaled so the power budget holds with equality.

Statistics from ``build_stats`` are the Rician model's vectors,
R = hh^H + diag(delta) and Q = gbar gbar^H + diag(phi): the diagonal test,
the closed form and the packaged SNR read them in O(n), and from
RICIAN_MIN_N relays the search does too, so a solve forms no n x n
matrix.  There it skips the eigendecomposition: the secular pair
(``RicianPair``) takes mu(x) as the root of a secular equation of the
diagonal-plus-rank-two R - mu B(x) (Bunch, Nielsen and Sorensen, Numer.
Math. 31, 1978), certified to be the top eigenvalue, and its derivatives
and the bracket's lam_1 and lam_n in O(n) per iterate with no n x n
factorization.  No run changes the pair: from an evaluation it cannot
certify, that run goes on on the dense pair (forming R and Q) and notes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamformingSolution, powers, snr
from .errors import ConvergenceError, InputError, ModelError
from .linalg import check_scalar, check_type
from .problems import TotalPowerProblem
from .trace import SolverTrace

TRACE_COLUMNS = ("k", "x", "lambda_min", "d1", "d2", "step")
GAP_TOL = 1e-8     # relative spectral gap at or below which d2 is not trusted
MAX_ITER = 100     # Newton steps before ConvergenceError
STEP_TOL = 1e-3    # stop: |dx/x| < STEP_TOL
RICIAN_MIN_N = 16  # relay count from which build_stats statistics take the secular pair
SECULAR_STEPS = 40  # a secular root's steps before the dense pair takes over
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SPair:
    """The problem in the basis that makes B(x) diagonal for every x."""

    lam: np.ndarray     # ascending eigenvalues of d^{-1/2} (Q + rI) d^{-1/2}
    Rt: np.ndarray      # V^H d^{-1/2} R d^{-1/2} V
    basis: np.ndarray   # d^{-1/2} V, maps H's eigenvectors back to weight space


@dataclass(frozen=True)
class RicianPair:
    """Rician statistics as vectors: R = h h^H + diag(delta) and
    B(x) = diag(b) + gbar gbar^H/x with b = d/(1-x) + e/x."""

    U: np.ndarray       # rows h = fbar o gbar and gbar
    K: np.ndarray       # rows d = D + r, e = phi + r and delta, R's diagonal part
    lam: np.ndarray     # lam_1 and lam_n of (Q + rI, D + rI), for bracket_x


PAIRS = (SPair, RicianPair)     # what build_s_pair returns


@dataclass
class TotalPowerSolution:
    x: float                  # normalized source power Ps/P0 in (0, 1)
    Ps: float
    w: np.ndarray             # scaled so the budget is saturated
    snr: float
    lambda_min: float         # lambda_min(G(x)) = 1/mu(x) at the returned x
    iterations: int
    trace: SolverTrace


def build_s_pair(p: TotalPowerProblem) -> SPair | RicianPair:
    """The secular pair for ``build_stats`` statistics from RICIAN_MIN_N
    relays, otherwise the dense pair.

    The secular pair takes lam_1 and lam_n as the extreme eigenvalues of
    diag(q) + u u^H, q = e/d and u = gbar/sqrt(d): the roots of
    sum_i |u_i|^2/(lam - q_i) = 1 in (q_(1), q_(2)) and above q_(n).  Where
    one does not converge, or where lam_1 <= n eps lam_n, the dense pair is
    returned.  There Q + rI is singular to working precision against D + rI
    (pure line of sight from P0/sigma^2 ~ 1e12): the optimum moves towards
    x ~ sqrt(lam_1), where a weight vector in float64 no longer reads its own
    SNR to working precision, and the dense pair, which resolves lam_1 no
    finer than eps lam_n, keeps x there.
    """
    stats = check_type(p, TotalPowerProblem, name="p").stats
    v = stats._rician
    if v is None or stats.n < RICIAN_MIN_N:
        return _dense_pair(p)
    g, r = v.g, stats.sigma2 / p.P0
    d, e = stats.D + r, v.phi + r
    q, w = e / d, np.abs(g) ** 2 / d
    top, dq = q.max(), q.max() - q
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = _secular_top(lambda t: ((w / (t + dq)).sum(), -(w / (t + dq) ** 2).sum()),
                           (w - dq).max(), top)
    low = _secular_low(q, w)
    if tau is None or low is None or not low > stats.n * _EPS * (top + tau):
        return _dense_pair(p)
    return RicianPair(U=np.stack((v.h, g)), K=np.stack((d, e, v.delta)),
                      lam=np.array([low, top + tau]))


def _dense_pair(p: TotalPowerProblem) -> SPair:
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


def bracket_x(s: SPair | RicianPair) -> tuple[float, float]:
    """Bracket [x_l, x_u] containing every optimal x.

    x_l = sqrt(c)/(1+sqrt(c)) and x_u = sqrt(d)/(1+sqrt(d)) where c, d are
    the extreme generalized eigenvalues of (Q + rI, D + rI), lam_1 and lam_n.
    """
    c, d = np.sqrt(check_type(s, PAIRS, name="s").lam[[0, -1]])
    return float(c / (1.0 + c)), float(d / (1.0 + d))


def lambda_min_g(s: SPair | RicianPair, x: float):
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
    On the dense pair every value comes from one ``eigh`` of H.  On the
    secular pair they come from ``_secular_eval``, with the certified lower
    bound (mu_1 - mu_d)/mu_1 on the gap, or it returns None where that pair
    cannot certify x; a run then goes on on the dense pair (see ``_run``).
    """
    s = check_type(s, PAIRS, name="s")
    x = check_scalar(x, name="x")
    if not 0.0 < x < 1.0:
        raise InputError(f"x must lie in (0,1), got {x}")
    if isinstance(s, RicianPair):
        return _secular_eval(s, x)
    beta = 1.0 / (1.0 - x) + s.lam / x
    with np.errstate(divide="ignore", over="ignore"):
        db = 1.0 / (1.0 - x) ** 2 - s.lam / x ** 2
    if not np.isfinite(db).all():    # lam/x^2 past float64, as at x ~ 1e-154
        raise ConvergenceError(f"beta'(x) overflows float64 at x={x}")
    bis = 1.0 / np.sqrt(beta)
    H = bis[:, None] * s.Rt * bis
    D1 = -db / (2.0 * beta)
    mus, U = np.linalg.eigh(H)
    mu, h, rest = mus[-1], U[:, -1], mus[:-1]
    cc = np.abs(U.conj().T @ (D1 * h)) ** 2
    gap = float((mu - rest[-1]) / mu) if rest.size else np.inf
    hh = np.abs(h) ** 2
    dmu = 2.0 * mu * (D1 @ hh)
    # at a zero gap d2 is meaningless, and _target reads the gap before d2; where
    # x^3 or mu^2 underflows, _target drops the non-finite d2 or newton_solve the target
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ddb = 2.0 / (1.0 - x) ** 3 + 2.0 * s.lam / x ** 3
        D2 = 0.75 * (db / beta) ** 2 - ddb / (2.0 * beta)
        near, far = mus @ cc, ((mu + rest) ** 2 * cc[:-1] / (mu - rest)).sum()
        ddmu = 2.0 * (mu * (D2 @ hh) + near + far)
        d1 = -dmu / mu ** 2
        d2 = -ddmu / mu ** 2 + 2.0 * dmu ** 2 / mu ** 3
    return float(1.0 / mu), float(d1), float(d2), s.basis @ (bis * h), gap


def _secular_eval(s: RicianPair, x: float):
    """lambda_min_g on the secular pair in O(n), or None where it cannot certify.

    With E = mu b - delta, s_ab = a^H E^-1 b and P = E + (mu/x) gg^H,
    R - mu B = hh^H - P has a positive eigenvalue (exactly one) at
    mu > mu_d = max delta/b iff phi(mu) = h^H P^-1 h exceeds 1, so mu_1 is the
    root of phi = 1 above any Rayleigh quotient t > mu_d (it starts from
    B^-1 h's), and no other eigenvalue exceeds mu_d.  Its direction is
    v = P^-1 h, scaled to v^H B v = 1.  Write B = a D' + c Q' with a = 1/(1-x),
    c = 1/x, D' = diag(d), Q' = diag(e) + gg^H, alpha = v^H D' v and
    beta = v^H Q' v (a alpha + c beta = 1).  Then mu' = -mu v^H B' v =
    mu (beta c^2 - alpha a^2), and
    y = (mu' B + mu B') v = k u with k = mu a c (a + c), u = (beta D' - alpha Q') v,
    v^H u = 0, so mu'' = 2 mu'^2/mu - mu v^H B'' v + 2 k^2 u^H P^-1 u.  Its
    terms in |g^H v|^2 c^3 cancel to leading order; they are combined
    before rounding, and g^H v is read off the s_ab, so that x near 0 (pure
    line of sight at large P0/sigma^2) loses no digits to them.
    """
    c, a = 1.0 / x, 1.0 / (1.0 - x)
    (d, e, delta), (h, g) = s.K, s.U
    last = []       # phi's last E, E^-1 [h; g], s_gh and s_gg

    def phi(mu):    # phi and its slope, from the 2 x 2 [h g]^H E^-1 [h g] and its slope
        E = mu * b - delta
        W = s.U / E
        Wc = W.conj()
        (shh, _), (sgh, sgg) = (Wc @ s.U.T).tolist()
        (dhh, _), (dgh, dgg) = (-(Wc * b) @ W.T).tolist()
        cm, gh2 = mu * c, sgh.real * sgh.real + sgh.imag * sgh.imag
        den = 1.0 + cm * sgg.real
        num = cm * gh2
        dnum = c * gh2 + 2.0 * cm * (sgh.conjugate() * dgh).real
        last[:] = E, W, sgh, sgg.real
        return (shh.real - num / den,
                dhh.real - (dnum * den - num * (c * sgg.real + cm * dgg.real)) / (den * den))

    with np.errstate(all="ignore"):
        b = d * a + e * c
        mu_d = (delta / b).max()
        hb, gb = s.U / b        # v = B^-1 h and g^H v, then t = v^H R v / v^H B v
        sgh, sgg = np.vdot(gb, h), np.vdot(gb, g).real
        v, gv = hb - gb * (sgh / (x + sgg)), sgh * x / (x + sgg)
        dv, ev, delv = s.K @ (v.real ** 2 + v.imag ** 2)
        t = (abs(np.vdot(h, v)) ** 2 + delv) / (dv * a + (ev + abs(gv) ** 2) * c)
        if not t > mu_d:
            return None
        mu = _secular_top(phi, t, 0.0)
        if mu is None:
            return None
        E, (Eh, Eg), sgh, sgg = last
        mu, c, a = np.float64(mu), np.float64(c), np.float64(a)
        rho = 1.0 / (1.0 / (mu * c) + sgg)      # P^-1 = E^-1 - rho E^-1 g g^H E^-1
        xi = rho / (mu * c)                      # 1/(1 + (mu/x) s_gg)
        v, gv = Eh - Eg * (rho * sgh), xi * sgh
        al, ep, _ = (s.K @ (v.real ** 2 + v.imag ** 2)).tolist()
        gam = abs(gv) ** 2
        scale = al * a + (ep + gam) * c
        v, gv = v / np.sqrt(scale), gv / np.sqrt(scale)
        al, ep, gam = al / scale, ep / scale, gam / scale
        be = ep + gam
        dmu = mu * (be * c * c - al * a * a)
        k = mu * a * c * (a + c)
        u0 = (be * d - al * e) * v              # u = u0 - alpha (g^H v) g
        Eu = u0 / E
        gEu = np.vdot(g, Eu)
        uPu = (np.vdot(u0, Eu).real - rho * abs(gEu) ** 2
               - 2.0 * al * xi * (gv.conjugate() * gEu).real)
        ddmu = (2.0 * dmu ** 2 / mu - 2.0 * mu * (al * a ** 3 + ep * c ** 3) + 2.0 * k * k * uPu
                + 2.0 * mu * gam * c * (a * (a + 2.0 * c) - be * c * (2.0 - be * c) * (a + c) ** 2
                                        - xi * (al * a * (a + c)) ** 2))
        d1 = -dmu / mu ** 2
        d2 = -ddmu / mu ** 2 + 2.0 * dmu ** 2 / mu ** 3
    return float(1.0 / mu), float(d1), float(d2), v, float((mu - mu_d) / mu)


def _secular_top(f, t, base):
    """The root above t of f = 1, for f decreasing and convex with f(t) >= 1,
    or None after SECULAR_STEPS steps or at a non-finite step.

    f(t) returns its value and slope.  Each step goes to the root of the
    one-pole model k/(t - p) fitted to them (Newton's method on 1/f, which is
    concave), so from the left every step stays left of the root and none
    moves back.  It returns t at the first step that does not move t forward
    by more than 4 eps (base + t): a step back is rounding, which near the
    root can otherwise cycle between two neighbouring floats.
    """
    for _ in range(SECULAR_STEPS):
        val, slope = f(t)
        if not -np.inf < slope < 0:     # NaN, too, after a non-finite step
            return None
        step = val * (1.0 - val) / slope
        if step <= 4.0 * _EPS * (base + t):
            return t
        t += step
    return None


def _secular_low(q, w):
    """The smallest eigenvalue of diag(q) + diag(sqrt w) 1 1^T diag(sqrt w), or None.

    In units of q_(1), lam = q_(1) (1 + sigma) for the root in (0, dq_(2)) of
    F(sigma) = sigma (q_(1) - sum_{i>1} w_i/(sigma - dq_i)) - w_(1), with
    dq = q/q_(1) - 1, which is increasing and convex there (so no scale of q
    overflows): Newton's method, bisecting where a step leaves the bracket.
    """
    order = np.argsort(q)
    low, w1 = q[order[0]], w[order[0]]
    dq, wr = q[order[1:]] / low - 1.0, w[order[1:]]
    lo, hi = 0.0, dq[0]
    if not hi > 0:          # a repeated q_(1) is an eigenvalue
        return float(low)
    sigma = w1 / (low + (wr / dq).sum())      # Newton's step from 0
    for _ in range(SECULAR_STEPS):
        if not lo < sigma < hi:
            sigma = 0.5 * (lo + hi)
        S = (wr / (sigma - dq)).sum()
        F = sigma * (low - S) - w1
        lo, hi = (lo, sigma) if F > 0 else (sigma, hi)
        step = F / (low - S + sigma * (wr / (sigma - dq) ** 2).sum())
        if abs(step) <= 2.0 * _EPS * (1.0 + sigma):
            return float(low * (1.0 + sigma - step))
        sigma -= step
    return None


def solve_diagonal(p: TotalPowerProblem) -> TotalPowerSolution:
    """Closed form when R, Q are diagonal (uncorrelated Rayleigh fading).

    With a_k = (D_k + r)/R_kk and b_k = (Q_kk + r)/R_kk,
    min_x min_k (a_k/(1-x) + b_k/x) = (sqrt(a_k0)+sqrt(b_k0))^2 attained at
    x = sqrt(b_k0)/(sqrt(a_k0)+sqrt(b_k0)), k0 minimizing (sqrt a + sqrt b)^2.
    It is computed as the maximum of R_kk/(sqrt(D_k+r)+sqrt(Q_kk+r))^2, so a
    relay with R_kk = 0 is never chosen.
    """
    stats = check_type(p, TotalPowerProblem, name="p").stats
    if not stats.is_diagonal():
        raise InputError("R, Q are not diagonal; use newton_solve or solve")
    r = stats.sigma2 / p.P0
    Rd, Qd = stats._forms()
    sa, sb = np.sqrt(stats.D + r), np.sqrt(Qd + r)
    mu = Rd / (sa + sb) ** 2
    k0 = int(np.argmax(mu))
    if not mu[k0] > 0:
        raise ModelError("R = 0: no signal reaches the destination, the SNR is 0 for every w")
    x = float(sb[k0] / (sa[k0] + sb[k0]))
    lam = float(1.0 / mu[k0])
    trace = SolverTrace(columns=TRACE_COLUMNS)
    trace.append(0, x, lam, 0.0, 0.0, 0.0)
    trace.note(f"closed form, k0={k0}")
    e = np.zeros(stats.n, dtype=complex)
    e[k0] = 1.0
    return _package(p, x, lam, e, 0, trace)


def newton_solve(p: TotalPowerProblem, x0: float) -> TotalPowerSolution:
    """Bracketed Newton-type search for a stationary x starting from x0, on
    the pair ``build_s_pair(p)`` builds.

    Every step goes where ``_target`` says: to the minimizer of a term
    a/(1-x) + b/x, fitted to (d1, d2) where the gap and d2 can be trusted and
    otherwise the top direction's own, which cannot raise lambda_min.  Stops
    when |dx/x| < STEP_TOL, a test free of the problem's units, or raises
    ConvergenceError after MAX_ITER steps, at a target outside (0, 1)
    (mu^2 underflows below P0/sigma^2 ~ 1e-160), or where beta'(x) overflows
    (pure line of sight from P0/sigma^2 ~ 1e305).  From the first x the secular
    pair cannot certify, the run goes on on the dense pair and notes that x.
    """
    p = check_type(p, TotalPowerProblem, name="p")
    return _package(p, *_run(p, check_scalar(x0, name="x0"), build_s_pair(p)))


def _run(p, x0, s, meet=None):
    """newton_solve's run on p's pair s, unpackaged: (x, lambda_min, direction, steps,
    trace), or None where a target lands within STEP_TOL of another run's x ``meet``."""
    xl, xu = bracket_x(s)
    if not xl <= x0 <= xu:
        raise InputError(f"x0={x0} outside bracket [{xl:.6f}, {xu:.6f}]")
    trace = SolverTrace(columns=TRACE_COLUMNS)
    x, converged = float(x0), False
    for k in range(MAX_ITER + 1):
        out = lambda_min_g(s, x)
        if out is None:     # this run goes on on its own dense pair
            s = _dense_pair(p)
            trace.note(f"dense pair from x={x}: the secular pair did not certify")
            out = lambda_min_g(s, x)
        lam, d1, d2, w_dir, gap = out
        if converged:
            return x, lam, w_dir, k, trace
        if k == MAX_ITER:
            raise ConvergenceError(f"Newton did not meet the stopping test in {k} iterations")
        x_new = _target(x, lam, d1, d2, gap, xl, xu)
        if not 0.0 < x_new < 1.0:
            raise ConvergenceError(f"Newton broke down at iteration {k}: x={x} has target {x_new}")
        if meet is not None and abs((x_new - meet) / meet) < STEP_TOL:
            return None
        trace.append(k, x, lam, d1, d2, x_new - x)
        converged = abs((x_new - x) / x) < STEP_TOL
        x = x_new


def solve(p: TotalPowerProblem) -> TotalPowerSolution:
    """Dispatch: diagonal instances in closed form, otherwise Newton from
    both bracket endpoints, which share the pair ``build_s_pair`` returns.
    A run from x_u that meets the x_l run (see ``_run``) would end there and
    tie, so the x_l run is kept.  Otherwise the run from x_u is kept only
    where it reaches a strictly smaller lambda_min, the quantity both runs
    minimize.  Only the run kept is packaged."""
    p = check_type(p, TotalPowerProblem, name="p")
    if p.stats.is_diagonal():
        return solve_diagonal(p)
    s = build_s_pair(p)
    xl, xu = bracket_x(s)
    run_l = _run(p, xl, s)
    run_u = _run(p, xu, s, meet=run_l[0])
    return _package(p, *(run_u if run_u is not None and run_u[1] < run_l[1] else run_l))


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
    w = w * (np.abs(w[j]) / w[j])
    return TotalPowerSolution(x=float(x), Ps=float(Ps), w=w,
                              snr=snr(stats, Ps, w), lambda_min=float(lam),
                              iterations=iterations, trace=trace)


def as_beamforming_solution(p: TotalPowerProblem, sol: TotalPowerSolution) -> BeamformingSolution:
    """Repackage with the budget slack as the single feasibility entry."""
    p = check_type(p, TotalPowerProblem, name="p")
    sol = check_type(sol, TotalPowerSolution, name="sol")
    used = sol.Ps + powers(p.stats, sol.Ps, sol.w)[0]
    return BeamformingSolution(w=sol.w, Ps=sol.Ps, snr=sol.snr,
                               feasibility=np.array([p.P0 - used]))
