"""Search solvers for general R, Q under per-relay caps.  The public functions
are the two routes taken when the SDP relaxation is not rank one, and
``choose_p``, the p of the second; every other name here is private.

* ``coordinate_descent``: cyclic coordinate descent on the SNR ratio, one
  complex weight at a time, O(n) per weight: each sweep forms R w and Q w
  once and moves them by one column per update.  Each scalar subproblem is
  a ratio of two quadratic forms in [y; 1] over the disk |y| <= beta, solved
  exactly: the pencil's top eigenpair when it lies inside the disk, else
  the circle's maximum, each the larger root of one quadratic in t.  The
  stop tolerance eps must be positive.

* ``augmented_lagrangian_solve``, smoothed minimax: the QCQP is equivalent
  (up to scaling) to minimizing u^H Q1 u + ||u||_inf^2 on the ellipsoid
  u^H R1 u = 1; the infinity norm is replaced by the smooth ||u||_{2p}^2
  and the equality-constrained problem is solved in a real 2n-dimensional
  embedding by the augmented Lagrangian method with backtracking
  modified-Newton inner solves.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, InputError
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

def _subproblem_value(a1, a2, b1, b2, c1, c2, y) -> float:
    """(a1 |y|^2 + 2 Re(b1 y) + c1) / (a2 |y|^2 + 2 Re(b2 y) + c2): the SNR
    ratio as a function of one weight y, the others frozen."""
    m = abs(y) ** 2
    return (a1 * m + 2.0 * (b1 * y).real + c1) / (a2 * m + 2.0 * (b2 * y).real + c2)


def _solve_scalar_subproblem(a1, a2, b1, b2, c1, c2, beta):
    """``(y, t)``: the global maximizer over |y| <= beta of
    ``_subproblem_value`` and the ratio t there.  The denominator is positive
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
    val = _subproblem_value(a1, a2, b1, b2, c1, c2, y)
    if a2 > 0:
        t = _top_root(a2 * c2 - B2, B1 - a1 * c2 - a2 * c1, a1 * c1 - B0)
        bt, d = b1 - t * b2, t * a2 - a1
        if abs(bt) < d * beta:
            y_in = bt.conjugate() / d
            if (v := _subproblem_value(a1, a2, b1, b2, c1, c2, y_in)) > val:
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
        y, t = _solve_scalar_subproblem(
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

def choose_p(n: int) -> int:
    """Smallest p with relative smoothing error <= SMOOTHING_EPS for n relays,
    a count, rounded up to a power of two: p >= log(n)/log(1 + SMOOTHING_EPS)."""
    n = check_scalar(n, name="n", kind="count")
    if n <= 1:
        return 1
    p_min = math.ceil(math.log(n) / math.log1p(SMOOTHING_EPS))
    return 1 << max(0, (p_min - 1).bit_length())


def _embed(prob: IndivPowerProblem):
    """``(d1, F, K)``: u = D1 w, d1_k = sqrt((Ps D_kk + sigma^2)/P_k), embedded as
    z = [Re u; Im u]; F and K are 2n x 2n real symmetric with z^T F z = u^H Q1 u
    and z^T K z = u^H R1 u, for Q1 = D1^-1 Q D1^-1 and R1 = D1^-1 R D1^-1."""
    d1 = np.sqrt(prob.c)
    S = np.outer(1.0 / d1, 1.0 / d1)    # D1^-1 M D1^-1 entrywise, Hermitian as M is
    R1 = prob.stats.R * S
    if not np.abs(R1).max() > 0:
        raise ConvergenceError("the scaled R is 0 in float64: it underflows, or R = 0")
    return d1, _real_embed(prob.stats.Q * S), _real_embed(R1)


def _phi(s, p) -> float:
    """phi_p from the slot powers s_k = |u_k|^2 (z^T J~_k z for z = [Re u; Im u])."""
    smax = s.max()
    if smax <= 0:
        return 0.0      # the norm's value at z = 0, where it is not smooth
    return float(smax * ((s / smax) ** p).sum() ** (1.0 / p))


def _phi_grad_hess(z, p):
    """Value, gradient and Hessian of phi_p(z) = (sum_k (z^T J~_k z)^p)^(1/p), z != 0.

    grad = 2 sum_k (s_k/phi)^(p-1) J~_k z;
    hess = 2 sum_k (s_k/phi)^(p-1) J~_k + (1-p)/phi grad grad^T
           + 4(p-1)/phi sum_k (s_k/phi)^(p-2) (J~_k z)(J~_k z)^T.
    Powers are evaluated through ratios <= 1 so large p cannot overflow.
    Slot k's 2 x 2 block, entry k of each quarter's diagonal, is added in place.
    """
    n = z.size // 2
    xy = z.reshape(2, n)                # rows Re u and Im u: column k is slot k's (x_k, y_k)
    sq = xy * xy
    s = sq[0] + sq[1]
    val = _phi(s, p)
    ratio = s / val
    r2 = 2.0 * ratio ** (p - 1)
    g = (r2 * xy).ravel()
    H = ((1.0 - p) / val) * (g[:, None] * g)
    flat, stride = H.reshape(-1), 2 * n + 1
    diag = flat[::stride].reshape(2, n)     # views, added to in place
    diag += r2
    if p >= 2:
        coef = (4.0 * (p - 1) / val) * ratio ** (p - 2)
        diag += coef * sq
        cross = coef * (xy[0] * xy[1])
        flat[n:n * stride:stride] += cross
        flat[2 * n * n::stride] += cross
    return val, g, H


def _p1(F, K):
    """``(lam, z)``: the value lam = 1/lambda_max(K, F + I) and a minimizer z
    of the p = 1 problem, min z^T (F + I) z s.t. z^T K z = 1.  lam is the
    exact multiplier there and z the top eigenvector of the pencil; both
    warm-start the augmented Lagrangian.

    F + I is positive definite, so with its Cholesky factor C the pencil
    is C^{-1} K C^{-T} and K may be singular (rank-deficient R).
    """
    Ci = np.linalg.inv(np.linalg.cholesky(F + np.eye(len(F))))
    vals, vecs = np.linalg.eigh(symmetrize(Ci @ K @ Ci.T))
    z = Ci.T @ vecs[:, -1]
    return 1.0 / float(vals[-1]), z / np.sqrt(z @ K @ z)


def augmented_lagrangian_solve(prob: IndivPowerProblem, p: int, w0=None):
    """Outer multiplier updates around inner modified-Newton minimizations
    on ``prob``'s real embedding (``_embed``), at the integer p >= 1.

    L(z; lam; mu) = z^T F z + phi_p(z) - lam (z^T K z - 1)
                    + (z^T K z - 1)^2 / (2 mu),
    lam starts at the p = 1 closed form and updates by
    lam <- lam - (z^T K z - 1)/mu with mu = AL_MU fixed.  z starts at [Re u; Im u]
    for the weight vector ``w0`` (u = D1 w0), or at the p = 1 minimizer
    when ``w0`` is None.  Inner steps are Newton with Armijo backtracking
    (alpha = 1, c1 = 1e-4, rho = 0.5); where a Cholesky attempt fails, a
    Hessian with lambda_min <= 0 is shifted by 1e-6 - lambda_min.  A step
    forms phi_p's value, gradient and Hessian, [F; K] z and one LU solve
    once; a trial costs one phi_p of an n-vector (``_line``).  Terminates when
    |z^T K z - 1| <= AL_CONSTRAINT_TOL and ||grad L|| <= AL_GRAD_TOL, or
    raises ConvergenceError after AL_MAX_OUTER multiplier updates, or where
    LAPACK fails (a shifted Hessian can still be numerically singular).

    Returns ``(BeamformingSolution, SolverTrace, {"multiplier": lam,
    "constraint_residual": z^T K z - 1})`` at the last z; the solution is
    scaled so that its largest per-relay cap is active.
    """
    prob = check_type(prob, IndivPowerProblem, name="prob")
    p = check_scalar(p, name="p", kind="count")
    d1, F, K = _embed(prob)
    n = prob.n
    try:
        lam, z = _p1(F, K)
        if w0 is not None:
            u = d1 * check_vector(w0, name="w0", n=n)
            z = np.concatenate([u.real, u.imag])
            if not z @ K @ z > 0:      # z^T K z = w0^H R w0
                raise InputError("w0 must have w0^H R w0 > 0")
        trace = SolverTrace(columns=AL_TRACE_COLUMNS)
        F2, FK = 2.0 * F, np.concatenate([F, K])    # [F; K] x: F x and K x
        for outer in range(AL_MAX_OUTER):
            g_norm = np.inf
            for inner in range(AL_MAX_INNER):
                val, g_phi, HL = _phi_grad_hess(z, p)
                L, c = _lagrangian(F, K, z, val, lam)
                Fz, Kz = (FK @ z).reshape(2, -1)
                gL = 2.0 * Fz + g_phi - 2.0 * lam * Kz + (2.0 / AL_MU) * c * Kz
                g_norm = math.sqrt(gL @ gL)
                if g_norm <= AL_GRAD_TOL:
                    break
                HL += F2                              # hess L, in place on phi_p's
                HL -= 2.0 * lam * K
                HL += (2.0 / AL_MU) * c * K
                HL += (4.0 / AL_MU) * (Kz[:, None] * Kz)
                try:
                    np.linalg.cholesky(HL)            # positive definite: no shift
                except np.linalg.LinAlgError:
                    lmin = float(np.linalg.eigvalsh(HL)[0])
                    if lmin <= 0:
                        HL += (-lmin + 1e-6) * np.eye(2 * n)
                step = -np.linalg.solve(HL, gL)
                slope = float(gL @ step)
                change = _line(p, FK, z, step, val, lam)
                alpha = 1.0
                # a test of L's values, as L + change: a change below L's last digit passes
                while not L + change(alpha) <= L + 1e-4 * alpha * slope:
                    alpha *= 0.5
                    if alpha < 1e-18:
                        raise ConvergenceError("inner Newton line search stalled")
                z = z + alpha * step
                trace.append(outer, inner, float(L), float(c), g_norm, alpha)
            L, c = _lagrangian(F, K, z, _phi(z[:n] ** 2 + z[n:] ** 2, p), lam)
            trace.append(outer, -1, float(L), float(c), g_norm, 0.0)
            if abs(c) <= AL_CONSTRAINT_TOL and g_norm <= AL_GRAD_TOL:
                break
            lam = lam - c / AL_MU
        else:
            raise ConvergenceError(
                f"augmented Lagrangian did not converge in {AL_MAX_OUTER} outer rounds")
    except np.linalg.LinAlgError as err:
        # _p1's factorizations, an eigvalsh or the Newton solve broke down
        raise ConvergenceError(f"augmented Lagrangian broke down: {err}") from None

    u = z[:n] + 1j * z[n:]
    # cap k reads |u_k| <= 1: the largest |u_k| is the active cap
    w = u / (d1 * np.abs(u).max())
    return prob.solution(w), trace, {"multiplier": float(lam), "constraint_residual": float(c)}


def _lagrangian(F, K, z, phi, lam):
    """L(z; lam; AL_MU) given phi = phi_p(z), and the residual z^T K z - 1."""
    c = z @ K @ z - 1.0
    return z @ F @ z + phi - lam * c + c * c / (2.0 * AL_MU), c


def _line(p, FK, z, step, phi, lam):
    """a -> L(z + a step) - L(z) at lam, given phi = phi_p(z), from scalars
    taken once: x^T F y and x^T K y for x, y in (z, step), one product with
    FK = [F; K], and |u_k + a v_k|^2 = s0 + a s1 + a^2 s2 (u = x + i y and
    v = dx + i dy for z and step).  No term cancels against the value L(z)."""
    n = z.size // 2
    zs = np.array([z, step])
    ((_, xF), (_, sF)), ((zK, xK), (_, sK)) = (zs @ (FK @ zs.T).reshape(2, -1, 2)).tolist()
    x, y, dx, dy = z[:n], z[n:], step[:n], step[n:]
    s0, s1, s2 = x * x + y * y, 2.0 * (x * dx + y * dy), dx * dx + dy * dy

    def change(a):
        dc = a * (2.0 * xK + a * sK)    # of c = z^T K z - 1
        return (a * (2.0 * xF + a * sF) + (_phi(s0 + a * (s1 + a * s2), p) - phi)
                - lam * dc + dc * (2.0 * (zK - 1.0) + dc) / (2.0 * AL_MU))
    return change
