"""Search solvers for general R, Q under per-relay caps.

Two routes when the SDP relaxation is not rank one:

* Cyclic coordinate descent on the SNR ratio, one complex weight at a
  time, O(n) per weight: each sweep forms R w and Q w once and moves them
  by one column per update.  Each scalar subproblem is a ratio of two
  quadratic forms in [y; 1] over the disk |y| <= beta, solved exactly: the
  pencil's top eigenpair when it lies inside the disk, else the circle's
  maximum, each the larger root of one quadratic in t.  The stop
  tolerance eps must be positive.

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

from .errors import ConvergenceError, InputError, ModelError
from .linalg import _real_embed, check_scalar, check_type, check_vector, symmetrize
from .problems import IndivPowerProblem
from .trace import SolverTrace

CDM_TRACE_COLUMNS = ("sweep", "slot", "objective")
AL_TRACE_COLUMNS = ("outer_k", "inner_i", "L", "constraint_residual",
                    "grad_norm", "alpha")
MAX_SWEEPS = 500           # coordinate-descent sweeps before ConvergenceError
SMOOTHING_EPS = 0.01       # relative error of ||.||_2p against ||.||_inf that choose_p allows
AL_MU = 0.001              # fixed penalty weight of the augmented Lagrangian
AL_CONSTRAINT_TOL = 1e-8   # stop: |z^T K z - 1| <= AL_CONSTRAINT_TOL ...
AL_GRAD_TOL = 1e-6         # ... and ||grad L|| <= AL_GRAD_TOL
AL_MAX_OUTER = 100         # multiplier updates before ConvergenceError
AL_MAX_INNER = 400         # Newton steps per inner minimization


# ---------------------------------------------------------------------------
# scalar fractional subproblem (one complex weight, others frozen)
# ---------------------------------------------------------------------------

def subproblem_value(a1, a2, b1, b2, c1, c2, y) -> float:
    """(a1 |y|^2 + 2 Re(b1 y) + c1) / (a2 |y|^2 + 2 Re(b2 y) + c2): the SNR
    ratio as a function of one weight y, the others frozen."""
    m = abs(y) ** 2
    return (a1 * m + 2.0 * (b1 * y).real + c1) / (a2 * m + 2.0 * (b2 * y).real + c2)


def solve_scalar_subproblem(a1, a2, b1, b2, c1, c2, beta):
    """``(y, t)``: the global maximizer over |y| <= beta of
    ``subproblem_value`` and the ratio t there.  The denominator is positive
    on the disk: it is 1 + a PSD form.

    Where the ratio does not depend on y, y = 0 is returned.  With
    v = [y; 1] the ratio is v^H A v / v^H B v, B >= e2 e2^T, and the
    maximum is one of two candidates:

    * on the circle |y| = beta: t is the larger root of
        ((a1 - t a2) beta^2 + c1 - t c2)^2 = 4 beta^2 |b1 - t b2|^2,
      whose two roots are the circle's largest and smallest ratio, and
      y = beta e^{-i arg(b1 - t b2)};
    * inside the disk, only when a2 > 0: the pencil's top eigenpair, t the
      larger root of det(A - t B) = 0 and y = conj(b1 - t b2)/(t a2 - a1).
      A stationary point inside the disk is the top or the bottom
      eigenvector, and only the top one can be a maximum, so when it lies
      outside the disk the maximum is on the circle.

    t is returned as the ratio at the chosen y.
    """
    # numerator and denominator proportional, relative to each one's own size
    prop_tol = 1e-13 * max(abs(a1), abs(b1), abs(c1)) * max(abs(a2), abs(b2), abs(c2))
    if (abs(a1 * c2 - a2 * c1) <= prop_tol
            and abs(b1 * c2 - b2 * c1) <= prop_tol
            and abs(a1 * b2 - a2 * b1) <= prop_tol):
        return 0.0 + 0.0j, c1 / c2
    B0 = abs(b1) ** 2
    B1 = 2.0 * (b1 * b2.conjugate()).real
    B2 = abs(b2) ** 2
    # |b1 - t b2|^2 = B0 - B1 t + B2 t^2; the leading coefficient is positive
    # because the denominator is at least 1 on the circle
    u0, u1, bb = a1 * beta ** 2 + c1, a2 * beta ** 2 + c2, 4.0 * beta ** 2
    t = _top_root(u1 * u1 - bb * B2, bb * B1 - 2.0 * u0 * u1, u0 * u0 - bb * B0)
    y = cmath.rect(beta, -cmath.phase(b1 - t * b2))
    val = subproblem_value(a1, a2, b1, b2, c1, c2, y)
    if a2 > 0:
        t = _top_root(a2 * c2 - B2, B1 - a1 * c2 - a2 * c1, a1 * c1 - B0)
        bt, d = b1 - t * b2, t * a2 - a1
        if abs(bt) < d * beta:
            y_in = bt.conjugate() / d
            if (v := subproblem_value(a1, a2, b1, b2, c1, c2, y_in)) > val:
                y, val = y_in, v
    return complex(y), float(val)


def _top_root(qa, qb, qc):
    """Larger root of qa t^2 + qb t + qc = 0, qa > 0, without cancellation."""
    sq = math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
    return (sq - qb) / (2.0 * qa) if qb <= 0 else 2.0 * qc / (-qb - sq)


# ---------------------------------------------------------------------------
# coordinate descent (cyclic, closed-form slot updates)
# ---------------------------------------------------------------------------

def coordinate_descent(p: IndivPowerProblem, w0, eps: float = 1e-3):
    """Cyclic coordinate ascent on the SNR ratio.

    Sweeps slots 1..N applying the closed-form scalar update, O(n) per
    slot; stops when the relative iterate change over a sweep drops below
    ``eps`` (positive and finite), or raises ConvergenceError after
    MAX_SWEEPS sweeps.  An infeasible start is scaled down to the tightest
    cap.  Returns ``(BeamformingSolution, SolverTrace)`` with trace rows
    (sweep, slot, objective).
    """
    eps = check_scalar(eps, name="eps", kind="positive")
    w = check_vector(w0, name="w0", n=p.n).copy()
    over = (np.abs(w) / p.caps()).max()
    if over > 1.0:
        w = w / over
    data = _slot_data(p)
    trace = SolverTrace(columns=CDM_TRACE_COLUMNS)
    sig_ratio = p.Ps / p.stats.sigma2
    for sweep in range(MAX_SWEEPS):
        w_prev = w.copy()
        for k, t in enumerate(_sweep(data, w)):
            trace.append(sweep, k, sig_ratio * t)
        # a zero iterate stays zero (R = 0 sends every slot there) and stops
        if np.linalg.norm(w - w_prev) <= eps * np.linalg.norm(w_prev):
            return p.solution(w), trace
    raise ConvergenceError(f"coordinate descent did not converge in {MAX_SWEEPS} sweeps")


def _slot_data(p: IndivPowerProblem):
    """Per-solve constants: cols[k] = column k of R and Q side by side, the diagonals, the caps."""
    R, Q = p.stats.R, p.stats.Q
    return (np.stack([R.T, Q.T], axis=2), R.diagonal().real.tolist(),
            Q.diagonal().real.tolist(), p.caps().tolist())


def _products(cols, w):
    """R w and Q w as the columns of one (n, 2) array, then w^H R w, w^H Q w."""
    P = (w @ cols.reshape(w.size, -1)).reshape(w.size, 2)
    return (P, *(w.conj() @ P).real.tolist())


def _sweep(data, w):
    """One cyclic pass of slot updates on ``w``, in place; returns each slot's t.
    R w, Q w and the forms start afresh each pass, so round-off cannot build up."""
    cols, a1s, a2s, caps = data
    P, wRw, wQw = _products(cols, w)
    ws = w.tolist()
    ts = []
    for k, (wk, a1, a2, beta) in enumerate(zip(ws, a1s, a2s, caps)):
        rw, qw = P[k].tolist()
        # slot k's subproblem in O(1): removing w_k's own terms from R w, Q w
        # and the forms leaves the frozen parts
        m, wkc = abs(wk) ** 2, wk.conjugate()
        y, t = solve_scalar_subproblem(
            a1, a2, (rw - a1 * wk).conjugate(), (qw - a2 * wk).conjugate(),
            wRw - 2.0 * (wkc * rw).real + a1 * m, 1.0 + wQw - 2.0 * (wkc * qw).real + a2 * m, beta)
        d = y - wk
        wRw += 2.0 * (d.conjugate() * rw).real + a1 * abs(d) ** 2
        wQw += 2.0 * (d.conjugate() * qw).real + a2 * abs(d) ** 2
        P += cols[k] * d
        ws[k] = y
        ts.append(t)
    w[:] = ws
    return ts


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
    constraint_residual: float


def choose_p(n: int) -> int:
    """Smallest p with relative smoothing error <= SMOOTHING_EPS, rounded up
    to a power of two: p >= log(n)/log(1 + SMOOTHING_EPS)."""
    if n <= 1:
        return 1
    p_min = math.ceil(math.log(n) / math.log1p(SMOOTHING_EPS))
    return 1 << max(0, (p_min - 1).bit_length())


def build_pnorm_embedding(prob: IndivPowerProblem, p: int) -> PnormEmbedding:
    """Scale weights by D1, then embed complex u into z = [Re u; Im u]."""
    prob = check_type(prob, IndivPowerProblem, name="prob")
    p = check_scalar(p, name="p", kind="count")
    d1 = np.sqrt(prob.c)
    S = np.outer(1.0 / d1, 1.0 / d1)    # D1^-1 M D1^-1 entrywise, Hermitian as M is
    Q1, R1 = prob.stats.Q * S, prob.stats.R * S
    if not np.abs(R1).max() > 0:
        raise ModelError("R = 0: no signal reaches the destination, the SNR is 0 for every w")
    return PnormEmbedding(D1=d1, Q1=Q1, R1=R1, F=_real_embed(Q1),
                          K=_real_embed(R1), p=p)


def phi_p_value(e: PnormEmbedding, z) -> float:
    s = _slot_powers(e, z)
    smax = s.max()
    if smax <= 0:
        return 0.0      # the norm's value at z = 0, where it is not smooth
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
    if val == 0:
        raise InputError("phi_p is not twice differentiable at z = 0")
    ratio = s / val
    rp1 = ratio ** (p - 1)
    g = np.empty(2 * n)
    g[:n] = 2.0 * rp1 * z[:n]
    g[n:] = 2.0 * rp1 * z[n:]
    H = ((1.0 - p) / val) * np.outer(g, g)
    kr, ki = np.arange(n), np.arange(n, 2 * n)    # rows of Re u_k and Im u_k
    H[kr, kr] += 2.0 * rp1
    H[ki, ki] += 2.0 * rp1
    if p >= 2:
        # J~_k z has only the entries z_k and z_{n+k}: four entries per relay
        coef = (4.0 * (p - 1) / val) * ratio ** (p - 2)
        x, y = z[:n], z[n:]
        H[kr, kr] += coef * (x * x)
        H[ki, ki] += coef * (y * y)
        H[kr, ki] += coef * (x * y)
        H[ki, kr] += coef * (x * y)
    return val, g, H


def p1_solution(e: PnormEmbedding):
    """``(lam, z)``: the value lam = 1/lambda_max(K, F + I) and a minimizer z
    of the p = 1 problem, min z^T (F + I) z s.t. z^T K z = 1.  lam is the
    exact multiplier there and z the top eigenvector of the pencil; both
    warm-start the augmented Lagrangian.

    F + I is positive definite, so with its Cholesky factor C the pencil
    is C^{-1} K C^{-T} and K may be singular (rank-deficient R).
    """
    Ci = np.linalg.inv(np.linalg.cholesky(e.F + np.eye(2 * e.n)))
    vals, vecs = np.linalg.eigh(symmetrize(Ci @ e.K @ Ci.T))
    z = Ci.T @ vecs[:, -1]
    return 1.0 / float(vals[-1]), z / np.sqrt(z @ e.K @ z)


def augmented_lagrangian_solve(prob: IndivPowerProblem, p: int, w0=None):
    """Outer multiplier updates around inner modified-Newton minimizations
    on ``build_pnorm_embedding(prob, p)``.

    L(z; lam; mu) = z^T F z + phi_p(z) - lam (z^T K z - 1)
                    + (z^T K z - 1)^2 / (2 mu),
    lam starts at the p = 1 closed form and updates by
    lam <- lam - (z^T K z - 1)/mu with mu = AL_MU fixed.  z starts at [Re u; Im u]
    for the weight vector ``w0`` (u = D1 w0), or at the p = 1 minimizer
    when ``w0`` is None.  Inner steps are Newton
    with the Hessian shifted to positive definite when needed and Armijo
    backtracking (alpha = 1, c1 = 1e-4, rho = 0.5).  Terminates when
    |z^T K z - 1| <= AL_CONSTRAINT_TOL and ||grad L|| <= AL_GRAD_TOL, or
    raises ConvergenceError after AL_MAX_OUTER multiplier updates.

    Returns ``(BeamformingSolution, SolverTrace, AugLagState)``; the
    solution is scaled so that its largest per-relay cap is active.
    """
    e = build_pnorm_embedding(prob, p)
    n = e.n
    lam, z = p1_solution(e)
    if w0 is not None:
        u = e.D1 * check_vector(w0, name="w0", n=n)
        z = np.concatenate([u.real, u.imag])
        if not z @ e.K @ z > 0:      # z^T K z = w0^H R w0
            raise InputError("w0 must have w0^H R w0 > 0")
    trace = SolverTrace(columns=AL_TRACE_COLUMNS)
    F, K = e.F, e.K
    for outer in range(AL_MAX_OUTER):
        g_norm = np.inf
        for inner in range(AL_MAX_INNER):
            val, g_phi, H_phi = phi_p_grad_hess(e, z)
            L, c = _lagrangian(e, z, val, lam)
            Kz = K @ z
            gL = 2.0 * F @ z + g_phi - 2.0 * lam * Kz + (2.0 / AL_MU) * c * Kz
            g_norm = float(np.linalg.norm(gL))
            if g_norm <= AL_GRAD_TOL:
                break
            HL = symmetrize(2.0 * F + H_phi - 2.0 * lam * K + (2.0 / AL_MU) * c * K
                            + (4.0 / AL_MU) * np.outer(Kz, Kz))
            lmin = float(np.linalg.eigvalsh(HL)[0])
            if lmin <= 0:
                HL = HL + (-lmin + 1e-6) * np.eye(2 * n)
            step = -np.linalg.solve(HL, gL)
            slope = float(gL @ step)
            alpha = 1.0
            while True:
                zt = z + alpha * step
                if _lagrangian(e, zt, phi_p_value(e, zt), lam)[0] <= L + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
                if alpha < 1e-18:
                    raise ConvergenceError("inner Newton line search stalled")
            z = zt
            trace.append(outer, inner, float(L), float(c), g_norm, float(alpha))
        L, c = _lagrangian(e, z, phi_p_value(e, z), lam)
        trace.append(outer, -1, float(L), float(c), g_norm, 0.0)
        if abs(c) <= AL_CONSTRAINT_TOL and g_norm <= AL_GRAD_TOL:
            break
        lam = lam - c / AL_MU
    else:
        raise ConvergenceError(
            f"augmented Lagrangian did not converge in {AL_MAX_OUTER} outer rounds")

    u = z[:n] + 1j * z[n:]
    # cap k reads |u_k| <= 1: the largest |u_k| is the active cap
    w = u / (e.D1 * np.abs(u).max())
    state = AugLagState(z=z, lam=float(lam), constraint_residual=float(c))
    return prob.solution(w), trace, state


def _lagrangian(e: PnormEmbedding, z, phi, lam):
    """L(z; lam; AL_MU) given phi = phi_p(z), and the residual z^T K z - 1."""
    c = z @ e.K @ z - 1.0
    return z @ e.F @ z + phi - lam * c + c * c / (2.0 * AL_MU), c
