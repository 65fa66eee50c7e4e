"""Search solvers for general R, Q under per-relay caps.

Two routes when the SDP relaxation is not rank one:

* Cyclic coordinate descent on the SNR ratio, one complex weight at a
  time, O(n) per weight: each sweep forms R w and Q w once and moves them
  by one column per update.  Each scalar subproblem is a constrained
  fractional program whose optimal value is the unique root of a strictly
  decreasing auxiliary function; the root and maximizer are closed-form
  (two quadratics in t, filtered by the unsquared case conditions).  The
  stop tolerance eps must be positive.

* Smoothed minimax: the QCQP is equivalent (up to scaling) to minimizing
  u^H Q1 u + ||u||_inf^2 on the ellipsoid u^H R1 u = 1; the infinity norm
  is replaced by the smooth ||u||_{2p}^2 and the equality-constrained
  problem is solved in a real 2n-dimensional embedding by the augmented
  Lagrangian method with backtracking modified-Newton inner solves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channel import BeamformingSolution, snr
from .errors import ConvergenceError, InputError, ModelError, SingularityError
from .linalg import _real_embed, symmetrize
from .problems import IndivPowerProblem
from .trace import SolverTrace

CDM_TRACE_COLUMNS = ("sweep", "slot", "objective")
AL_TRACE_COLUMNS = ("outer_k", "inner_i", "L", "constraint_residual",
                    "grad_norm", "alpha")


# ---------------------------------------------------------------------------
# scalar fractional subproblem (one complex weight, others frozen)
# ---------------------------------------------------------------------------

@dataclass
class ScalarFractionalSubproblem:
    """max (a1 |y|^2 + 2 Re(b1 y) + c1) / (a2 |y|^2 + 2 Re(b2 y) + c2)
    over |y| <= beta; the denominator is positive on the disk by
    construction (it is 1 + a PSD form)."""

    a1: float
    a2: float
    b1: complex
    b2: complex
    c1: float
    c2: float
    beta: float


def extract_coefficients(p: IndivPowerProblem, w, k: int) -> ScalarFractionalSubproblem:
    """Coefficients of the SNR ratio as a function of w_k alone.

    Numerator coefficients come from R (a1 = R_kk, b1 from R's k-th
    column against the frozen entries, c1 the frozen R-form) and the
    denominator from Q with the +1 noise term in c2.
    """
    w = np.asarray(w, dtype=complex).ravel()
    if not 0 <= k < p.n:
        raise InputError(f"slot index {k} out of range for n={p.n}")
    cols, a1s, a2s, caps = _slot_data(p)
    P, wRw, wQw = _products(cols, w)
    return _slot_coefficients(a1s[k], a2s[k], caps[k], complex(w[k]), *P[k].tolist(), wRw, wQw)


def _products(cols, w):
    """R w and Q w as the columns of one (n, 2) array, then w^H R w, w^H Q w."""
    P = (w @ cols.reshape(w.size, -1)).reshape(w.size, 2)
    return (P, *(w.conj() @ P).real.tolist())


def _slot_coefficients(a1, a2, beta, wk, rw, qw, wRw, wQw):
    """Slot k's subproblem in O(1) from (R w)_k = rw, (Q w)_k = qw and the
    full forms: removing w_k's own terms leaves the frozen parts."""
    m = abs(wk) ** 2
    return ScalarFractionalSubproblem(
        a1, a2, (rw - a1 * wk).conjugate(), (qw - a2 * wk).conjugate(),
        wRw - 2.0 * (wk.conjugate() * rw).real + a1 * m,
        1.0 + wQw - 2.0 * (wk.conjugate() * qw).real + a2 * m, beta)


def subproblem_value(s: ScalarFractionalSubproblem, y: complex) -> float:
    m = abs(y) ** 2
    return (s.a1 * m + 2.0 * (s.b1 * y).real + s.c1) / (s.a2 * m + 2.0 * (s.b2 * y).real + s.c2)


def _aux_F(s: ScalarFractionalSubproblem, t: float) -> float:
    """max over the disk of numerator - t * denominator (strictly decreasing in t)."""
    A = s.a1 - t * s.a2
    Babs = abs(s.b1 - t * s.b2)
    r = s.beta if A >= 0 else min(Babs / (-A), s.beta)
    return A * r * r + 2.0 * Babs * r + s.c1 - t * s.c2


def solve_scalar_subproblem(s: ScalarFractionalSubproblem):
    """Global maximizer and value of the scalar fractional subproblem.

    Returns ``(y, t, constant)``; ``constant`` flags the degenerate case
    where the ratio does not depend on y (y = 0 is returned).  The value t
    is the root of the auxiliary function; candidates come from squaring
    the boundary equation
        (a1 - t a2) beta^2 + 2|b1 - t b2| beta + c1 - t c2 = 0
    and the interior equation |b1 - t b2|^2 = (a1 - t a2)(c1 - t c2) into
    quadratics, filtered by the unsquared sign conditions; an optimal y on
    the boundary has magnitude beta, an interior one |b1-t b2|/(t a2 - a1),
    both with phase -arg(b1 - t b2).
    """
    a1, a2, b1, b2, c1, c2, beta = s.a1, s.a2, s.b1, s.b2, s.c1, s.c2, s.beta
    scale = max(1.0, abs(a1), abs(a2), abs(b1), abs(b2), abs(c1), abs(c2))
    prop_tol = 1e-13 * scale * scale
    if (abs(a1 * c2 - a2 * c1) <= prop_tol
            and abs(b1 * c2 - b2 * c1) <= prop_tol
            and abs(a1 * b2 - a2 * b1) <= prop_tol):
        return 0.0 + 0.0j, c1 / c2, True
    B0 = abs(b1) ** 2
    B1 = 2.0 * (b1 * b2.conjugate()).real
    B2 = abs(b2) ** 2
    ys = []
    # boundary: 2 beta |b1 - t b2| = -[(a1 - t a2) beta^2 + (c1 - t c2)], squared
    u0 = a1 * beta ** 2 + c1
    u1 = a2 * beta ** 2 + c2
    for t in _real_roots(4 * beta ** 2 * B2 - u1 ** 2,
                         -4 * beta ** 2 * B1 + 2 * u0 * u1,
                         4 * beta ** 2 * B0 - u0 ** 2):
        if (a1 - t * a2) * beta ** 2 + (c1 - t * c2) <= 1e-11 * scale and \
                abs(b1 - t * b2) >= (t * a2 - a1) * beta - 1e-11 * scale:
            ys.append(cmath.rect(beta, -cmath.phase(b1 - t * b2)))
    # interior: |b1 - t b2|^2 = (a1 - t a2)(c1 - t c2); the strict margin on
    # t a2 - a1 keeps roundoff-level denominators on the boundary branch
    for t in _real_roots(B2 - a2 * c2, -B1 + a1 * c2 + a2 * c1, B0 - a1 * c1):
        bt = b1 - t * b2
        if t * a2 - a1 > 1e-11 * scale and \
                abs(bt) < (t * a2 - a1) * beta + 1e-11 * scale:
            ys.append(cmath.rect(abs(bt) / (t * a2 - a1), -cmath.phase(bt)))

    y = max(ys, key=lambda yv: subproblem_value(s, yv), default=0.0 + 0.0j)
    val = subproblem_value(s, y)
    # the optimal value is the unique zero of the decreasing auxiliary
    # function, so F(val) > 0 exposes a missed candidate; recover by bisection
    if _aux_F(s, val) > 1e-9 * scale:
        lo, hi = val, max(val, 1.0)
        while _aux_F(s, hi) > 0:
            lo, hi = hi, 2.0 * hi
            if hi > 1e18:
                raise ConvergenceError("auxiliary function has no sign change")
        while hi - lo > 1e-14 + 1e-15 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _aux_F(s, mid) > 0 else (lo, mid)
        t = 0.5 * (lo + hi)
        # the interior point when it lies in the disk, else the boundary one
        r = abs(b1 - t * b2) / (t * a2 - a1) if t * a2 - a1 > 1e-11 * scale else beta
        y_alt = cmath.rect(min(r, beta), -cmath.phase(b1 - t * b2))
        if subproblem_value(s, y_alt) > val:
            y = y_alt
            val = subproblem_value(s, y)
    return complex(y), float(val), False


def _real_roots(qa, qb, qc):
    if abs(qa) > 1e-300:
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            # a double root computes as a tiny negative discriminant
            if disc >= -1e-12 * (qb * qb + abs(4 * qa * qc)):
                disc = 0.0
            else:
                return []
        sq = math.sqrt(disc)
        return [(-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)]
    if abs(qb) > 1e-300:
        return [-qc / qb]
    return []


# ---------------------------------------------------------------------------
# coordinate descent (cyclic, closed-form slot updates)
# ---------------------------------------------------------------------------

def coordinate_descent(p: IndivPowerProblem, w0, eps: float = 1e-3,
                       max_sweeps: int = 500):
    """Cyclic coordinate ascent on the SNR ratio.

    Sweeps slots 1..N applying the closed-form scalar update, O(n) per
    slot; stops when the relative iterate change over a sweep drops below
    ``eps`` (positive and finite).  An infeasible start is scaled down to
    the tightest cap.  Returns ``(BeamformingSolution, SolverTrace)`` with
    trace rows (sweep, slot, objective).
    """
    if not 0.0 < eps < math.inf:
        raise InputError(f"eps must be a positive finite number, got {eps!r}")
    w = np.asarray(w0, dtype=complex).ravel().copy()
    if w.size != p.n:
        raise InputError(f"w0 has length {w.size}, expected {p.n}")
    if not np.isfinite(w).all():
        raise InputError("w0 contains non-finite entries")
    over = (np.abs(w) / p.caps()).max()
    if over > 1.0:
        w = w / over
    data = _slot_data(p)
    trace = SolverTrace(columns=CDM_TRACE_COLUMNS)
    sig_ratio = p.Ps / p.stats.sigma2
    for sweep in range(max_sweeps):
        w_prev = w.copy()
        for k, t in enumerate(_sweep(data, w)):
            trace.append(sweep, k, sig_ratio * t)
        denom = np.linalg.norm(w_prev)
        if denom > 0 and np.linalg.norm(w - w_prev) / denom < eps:
            sol = BeamformingSolution(w=w, Ps=p.Ps, snr=snr(p.stats, p.Ps, w),
                                      feasibility=p.slacks(w))
            return sol, trace
    raise ConvergenceError(
        f"coordinate descent did not converge in {max_sweeps} sweeps",
        best=BeamformingSolution(w=w, Ps=p.Ps, snr=snr(p.stats, p.Ps, w),
                                 feasibility=p.slacks(w)),
        trace=trace)


def _slot_data(p: IndivPowerProblem):
    """Per-solve constants: cols[k] = column k of R and Q side by side, the diagonals, the caps."""
    R, Q = p.stats.R, p.stats.Q
    return (np.stack([R.T, Q.T], axis=2), R.diagonal().real.tolist(),
            Q.diagonal().real.tolist(), p.caps().tolist())


def _sweep(data, w):
    """One cyclic pass of slot updates on ``w``, in place; returns each slot's t.
    R w, Q w and the forms start afresh each pass, so round-off cannot build up."""
    cols, a1s, a2s, caps = data
    P, wRw, wQw = _products(cols, w)
    ws = w.tolist()
    ts = []
    for k, (wk, a1, a2, beta) in enumerate(zip(ws, a1s, a2s, caps)):
        rw, qw = P[k].tolist()
        y, t, _ = solve_scalar_subproblem(_slot_coefficients(a1, a2, beta, wk, rw, qw, wRw, wQw))
        d = y - wk
        wRw += 2.0 * (d.conjugate() * rw).real + a1 * abs(d) ** 2
        wQw += 2.0 * (d.conjugate() * qw).real + a2 * abs(d) ** 2
        P += cols[k] * d
        ws[k] = y
        ts.append(t)
    w[:] = ws
    return ts


def stationarity_improvement(p: IndivPowerProblem, w) -> float:
    """Largest single-slot objective improvement available at w.

    Zero (up to tolerance) at a coordinate-wise stationary point; used to
    audit the coordinate-descent limit.
    """
    w = np.asarray(w, dtype=complex).ravel()
    worst = 0.0
    for k in range(p.n):
        sub = extract_coefficients(p, w, k)
        _, t, _ = solve_scalar_subproblem(sub)
        worst = max(worst, t - subproblem_value(sub, w[k]))
    return worst


# ---------------------------------------------------------------------------
# p-norm smoothing + augmented Lagrangian
# ---------------------------------------------------------------------------

@dataclass
class PnormEmbedding:
    """Real 2n-dimensional embedding of the smoothed minimax problem."""

    D1: np.ndarray           # diagonal entries, sqrt((Ps D_kk + sigma^2)/P_k)
    Q1: np.ndarray
    R1: np.ndarray
    F: np.ndarray            # 2n x 2n real symmetric, z^T F z = u^H Q1 u
    K: np.ndarray            # 2n x 2n real symmetric PD, z^T K z = u^H R1 u
    p: int

    @property
    def n(self) -> int:
        return self.Q1.shape[0]


@dataclass
class AugLagState:
    z: np.ndarray
    lam: float
    mu: float
    constraint_residual: float


def choose_p(n: int, eps: float) -> int:
    """Smallest p with relative smoothing error <= eps, rounded up to a
    power of two: p >= log(n)/log(1+eps)."""
    if eps <= 0:
        raise InputError("eps must be positive")
    if n <= 1:
        return 1
    p_min = math.ceil(math.log(n) / math.log1p(eps))
    return 1 << max(0, (p_min - 1).bit_length())


def build_pnorm_embedding(p: IndivPowerProblem, pexp: int) -> PnormEmbedding:
    """Scale weights by D1, then embed complex u into z = [Re u; Im u]."""
    if pexp < 1:
        raise InputError("p must be >= 1")
    d1 = np.sqrt(p.c)
    Dinv = np.diag(1.0 / d1)
    Q1 = symmetrize(Dinv @ p.stats.Q @ Dinv)
    R1 = symmetrize(Dinv @ p.stats.R @ Dinv)
    if not np.abs(R1).max() > 0:
        raise ModelError("R = 0: no signal reaches the destination, the SNR is 0 for every w")
    return PnormEmbedding(D1=d1, Q1=Q1, R1=R1, F=_real_embed(Q1),
                          K=_real_embed(R1), p=int(pexp))


def phi_p_value(e: PnormEmbedding, z) -> float:
    s = _slot_powers(e, z)
    smax = s.max()
    if smax <= 0:
        raise SingularityError("phi_p is not smooth at z = 0")
    return float(smax * (np.sum((s / smax) ** e.p)) ** (1.0 / e.p))


def _slot_powers(e, z):
    n = e.n
    return z[:n] ** 2 + z[n:] ** 2    # z^T Jtilde_k z = |u_k|^2


def phi_p_grad_hess(e: PnormEmbedding, z):
    """Value, gradient and Hessian of phi_p(z) = (sum_k (z^T J~_k z)^p)^(1/p).

    grad = 2 sum_k (s_k/phi)^(p-1) J~_k z;
    hess = 2 sum_k (s_k/phi)^(p-1) J~_k + (1-p)/phi grad grad^T
           + 4(p-1)/phi sum_k (s_k/phi)^(p-2) (J~_k z)(J~_k z)^T.
    Powers are evaluated through ratios <= 1 so large p cannot overflow.
    """
    z = np.asarray(z, dtype=float).ravel()
    n = e.n
    p = e.p
    s = _slot_powers(e, z)
    val = phi_p_value(e, z)
    ratio = s / val
    rp1 = ratio ** (p - 1)
    g = np.empty(2 * n)
    g[:n] = 2.0 * rp1 * z[:n]
    g[n:] = 2.0 * rp1 * z[n:]
    H = np.zeros((2 * n, 2 * n))
    H[np.arange(2 * n), np.arange(2 * n)] = 2.0 * np.concatenate([rp1, rp1])
    H += ((1.0 - p) / val) * np.outer(g, g)
    if p >= 2:
        rp2 = ratio ** (p - 2)
        for k in range(n):
            jz = np.zeros(2 * n)
            jz[k] = z[k]
            jz[n + k] = z[n + k]
            H += (4.0 * (p - 1) / val) * rp2[k] * np.outer(jz, jz)
    return val, g, H


def initial_multiplier(e: PnormEmbedding) -> float:
    """1/lambda_max(K, F + I): the exact multiplier of the p = 1 problem,
    used to warm-start the outer loop.

    F + I is positive definite, so with its Cholesky factor C the pencil
    is lambda_max(C^{-1} K C^{-T}) and K may be singular (rank-deficient R).
    """
    Ci = np.linalg.inv(np.linalg.cholesky(e.F + np.eye(2 * e.n)))
    return 1.0 / float(np.linalg.eigvalsh(symmetrize(Ci @ e.K @ Ci.T))[-1])


def augmented_lagrangian_solve(e: PnormEmbedding, prob: IndivPowerProblem,
                               z0=None, mu: float = 0.001,
                               constraint_tol: float = 1e-8,
                               grad_tol: float = 1e-6,
                               max_outer: int = 100,
                               max_inner: int = 400):
    """Outer multiplier updates around inner modified-Newton minimizations.

    L(z; lam; mu) = z^T F z + phi_p(z) - lam (z^T K z - 1)
                    + (z^T K z - 1)^2 / (2 mu),
    lam starts at the p = 1 closed form and updates by
    lam <- lam - (z^T K z - 1)/mu with mu fixed.  Inner steps are Newton
    with the Hessian shifted to positive definite when needed and Armijo
    backtracking (alpha = 1, c1 = 1e-4, rho = 0.5).  Terminates when
    |z^T K z - 1| <= constraint_tol and ||grad L|| <= grad_tol.

    Returns ``(BeamformingSolution, SolverTrace, AugLagState)``; the
    solution is scaled so that its largest per-relay cap is active.
    """
    n = e.n
    if z0 is None:
        u0 = np.ones(n, dtype=complex)
        z0 = np.concatenate([u0.real, u0.imag])
    z = np.asarray(z0, dtype=float).ravel().copy()
    if z.size != 2 * n:
        raise InputError(f"z0 has length {z.size}, expected {2 * n}")
    nrm = float(z @ e.K @ z)
    if nrm <= 0:
        raise InputError("z0 must be nonzero")
    lam = initial_multiplier(e)
    trace = SolverTrace(columns=AL_TRACE_COLUMNS)
    mu = float(mu)
    F, K, p = e.F, e.K, e.p

    def lagrangian(zv):
        c = zv @ K @ zv - 1.0
        return zv @ F @ zv + phi_p_value(e, zv) - lam * c + c * c / (2.0 * mu), c

    converged = False
    for outer in range(max_outer):
        g_norm = np.inf
        for inner in range(max_inner):
            val, g_phi, H_phi = phi_p_grad_hess(e, z)
            c = z @ K @ z - 1.0
            Kz = K @ z
            L = z @ F @ z + val - lam * c + c * c / (2.0 * mu)
            gL = 2.0 * F @ z + g_phi - 2.0 * lam * Kz + (2.0 / mu) * c * Kz
            g_norm = float(np.linalg.norm(gL))
            if g_norm <= grad_tol:
                break
            HL = 2.0 * F + H_phi - 2.0 * lam * K + (2.0 / mu) * c * K \
                + (4.0 / mu) * np.outer(Kz, Kz)
            HL = symmetrize(HL)
            lmin = float(np.linalg.eigvalsh(HL)[0])
            if lmin <= 0:
                HL = HL + (-lmin + 1e-6) * np.eye(2 * n)
            step = -np.linalg.solve(HL, gL)
            slope = float(gL @ step)
            alpha = 1.0
            while True:
                Lnew, _ = lagrangian(z + alpha * step)
                if Lnew <= L + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
                if alpha < 1e-18:
                    raise ConvergenceError(
                        "inner Newton line search stalled", trace=trace)
            z = z + alpha * step
            trace.append(outer, inner, float(L), float(c), g_norm, float(alpha))
        c = float(z @ K @ z - 1.0)
        trace.append(outer, -1, float(lagrangian(z)[0]), c, g_norm, 0.0)
        if abs(c) <= constraint_tol and g_norm <= grad_tol:
            converged = True
            break
        lam = lam - c / mu
    if not converged:
        raise ConvergenceError(
            f"augmented Lagrangian did not converge in {max_outer} outer rounds",
            trace=trace)

    u = z[:n] + 1j * z[n:]
    # cap k reads |u_k| <= 1: the largest |u_k| is the active cap
    w = u / (e.D1 * np.abs(u).max())
    sol = BeamformingSolution(w=w, Ps=prob.Ps, snr=snr(prob.stats, prob.Ps, w),
                              feasibility=prob.slacks(w))
    state = AugLagState(z=z, lam=float(lam), mu=mu, constraint_residual=c)
    return sol, trace, state
