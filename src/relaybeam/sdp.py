"""The per-relay QCQP in relay form and its SDP relaxation, with dual certificates.

Solves  min -Tr(R X)  s.t.  Tr(A_k X) <= 1 (k = 1..n),  X >= 0,  and the dual
max -sum_k y_k  s.t.  sum_k y_k A_k - R >= 0,  y >= 0,  for constraints in the
relay form A_k = Q + c_k e_k e_k^H (Q PSD, c_k > 0), held as (R, Q, c) by a
``QcqpInstance``; no A_k is ever formed.  The engine is an infeasible
primal-dual interior-point method (HKM direction, Mehrotra predictor-corrector:
the corrector reuses the Schur matrix and targets sigma mu I - dX_a dZ_a).
Iterates keep X, Z strictly inside their cones, so the returned dual
multipliers certify the reported gap without post-hoc cleanup; a pure primal
log-barrier could not certify gaps below ~3e-8.  The stop is SDPT3's relative
gap, |gap| <= GAP_TOL max(1, |primal|); an absolute 1e-8 stalled on round-off
at objectives near 70.  With W = Z^-1 the Schur matrix Re Tr(A_k X A_j W) is
Re[Tr(QXQW) + c_j (WQX)_jj + c_k (XQW)_kk + c_k c_j X_kj W_jk] (Benson, Ye and
Zhang, SIAM J. Optim. 10 (2000)), so an iteration costs a few n x n products,
O(n^3), plus one stacked [X, Z] Cholesky and its inverse (step scalings and
W), one stacked eigvalsh per direction (step lengths, as in SDPT3) and two
Schur solves.  ``_rank_one_exit`` stops early at a certified rank-one point,
which is then the QCQP's optimum (Luo et al., IEEE SPM 27(3) (2010)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, ModelError
from .linalg import HERMITIAN_TOL, hermitian, psd_violation, qform, symmetrize

GAP_TOL = 1e-8    # certified relative duality gap, |gap| <= GAP_TOL max(1, |primal|)
FEAS_TOL = 1e-8   # primal and dual residual norms at the stop
MAX_ITER = 200    # interior-point Newton steps before ConvergenceError
RANK_TOL = 1e-6   # eigenvalues of X above RANK_TOL lambda_max count toward its rank
# The exit is tried at relative gaps <= _EXIT_GAP where ||X||_F^2 >= _EXIT_RANK
# Tr(X)^2 (no LAPACK call); rank-one relaxations certify near 1e-3.  Two Newton
# steps leave y ~1e-8 off, past the 1e-8 dual tolerance; three reach round-off.
_EXIT_GAP = 1e-2
_EXIT_RANK = 0.99
_EXIT_STEPS = 3


@dataclass
class QcqpInstance:
    """max w^H R w s.t. w^H Q w + c_k |w_k|^2 <= 1 for every relay k, and
    its relaxation: the constraint matrices are A_k = Q + c_k e_k e_k^H."""

    R: np.ndarray
    Q: np.ndarray
    c: np.ndarray       # c_k = (Ps D_kk + sigma^2)/P_k

    @property
    def n(self) -> int:
        return self.R.shape[0]

    def constraint_values(self, w) -> np.ndarray:
        """w^H Q w + c_k |w_k|^2 for every k."""
        w = np.asarray(w, dtype=complex).ravel()
        return qform(self.Q, w) + self.c * np.abs(w) ** 2

    def traces(self, X) -> np.ndarray:
        """Re Tr(A_k X) = Re Tr(Q X) + c_k Re X_kk for every k, for any square X."""
        # Tr(Q X) = sum_ab conj(Q_ab) X_ab because Q is Hermitian
        return np.vdot(self.Q, X).real + self.c * X.diagonal().real

    def weighted_sum(self, y) -> np.ndarray:
        """sum_k y_k A_k = (sum_k y_k) Q + diag(c y)."""
        S = y.sum() * self.Q
        S.flat[::self.n + 1] += self.c * y
        return S


class SdpProblem(QcqpInstance):
    """The (R, Q, c) of an objective R and n constraint matrices in relay form,
    A_k = Q + c_k e_k e_k^H.  Any other list is an InputError; Q not PSD or
    some c_k <= 0 is a ModelError."""

    def __init__(self, objective, constraints):
        R = hermitian(objective, name="R")
        n = R.shape[0]
        A = [hermitian(Ak, name=f"A_{k+1}") for k, Ak in enumerate(constraints)]
        if len(A) != n or any(Ak.shape != (n, n) for Ak in A):
            raise InputError(f"the relay form has {n} constraint matrices of shape {(n, n)}")
        Q = A[0].copy()                          # A_1, but for Q_11, which A_2 carries
        Q[0, 0] = A[1][0, 0] if n > 1 else 0.0
        c = np.array([(Ak[k, k] - Q[k, k]).real for k, Ak in enumerate(A)])
        for k, Ak in enumerate(A):
            Dk = Ak - Q
            Dk[k, k] -= c[k]
            if np.abs(Dk).max() > HERMITIAN_TOL * max(1.0, np.abs(Ak).max()):
                raise InputError(f"A_{k+1} is not Q + c_k e_k e_k^H for the Q of the others")
        lam = psd_violation(Q)
        if lam or c.min() <= 0:
            raise ModelError(f"the relay form needs Q PSD (lambda_min(Q) = {lam:.3e}) "
                             f"and every c_k > 0 (min c_k = {c.min():.3e})")
        super().__init__(R=R, Q=Q, c=c)


@dataclass
class SdpSolution:
    X: np.ndarray
    dual_y: np.ndarray
    primal_obj: float        # Tr(R X), the maximization-form objective
    dual_obj: float          # sum_k y_k
    gap: float
    rank_estimate: int       # eigenvalues of X counted by range_eigh
    iterations: int


@dataclass
class CertificateReport:
    primal_feas: float   # max constraint violation, max(Tr(A_k X) - 1, -lambda_min(X), 0)
    dual_feas: float     # lambda_min(sum y_k A_k - R), negative iff violated
    comp_slack: float    # |Tr((sum y_k A_k - R) X)| + sum y_k (1 - Tr(A_k X))


def solve_relaxation(q: QcqpInstance) -> SdpSolution:
    """Solve the relaxation to a certified duality gap <= GAP_TOL * max(1, |primal|),
    or to a rank-one point w w^H whose ``dual_obj`` is its certified bound.

    Initial point ``X0 = eps I`` with ``eps = 0.5 / max_k Tr(A_k)`` is
    strictly feasible because Q is PSD and every c_k > 0: every slack is at
    least 0.5.  Raises ConvergenceError when the gap target is not certified
    within MAX_ITER Newton steps, or when the Schur matrix is singular (nearly
    parallel constraints, as at c_k ~ 1e-8), the iterates diverge, or any
    other LAPACK kernel of an iteration breaks down.
    """
    R, Q, c = q.R, q.Q, q.c
    n = q.n
    tr = q.traces
    X = (0.5 / (np.trace(Q).real + c.max())) * np.eye(n, dtype=complex)
    s = 1.0 - tr(X)
    y = np.ones(n)
    Z = (np.linalg.eigvalsh(R).max() + 1.0) * np.eye(n, dtype=complex)
    cc = np.outer(c, c)

    def directions(rhs, dX0, ds0):
        # HKM step: M dy = rhs, dX = dX0 - X dZ W, ds = (ds0 - s dy)/y
        try:
            dy = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"interior point: singular Schur matrix at iteration {it}") from None
        dZ = q.weighted_sum(dy) - Rd
        return symmetrize(dX0 - X @ dZ @ W), (ds0 - s * dy) / y, dy, dZ

    def steps(dX, dZ, ds, dy, tau):
        # largest a <= 1 keeping X + a dX, Z + a dZ (1-tau)-ish inside the cone and
        # v + a dv > 0; L^-1 dX L^-H (X = L L^H) has the eigenvalues of X^-1/2 dX X^-1/2
        lx, lz = np.linalg.eigvalsh(Li @ np.array([dX, dZ]) @ LiH)[:, 0]
        return [1.0 if m >= 0 else min(1.0, -tau / m)
                for m in (min(lx, (ds / s).min()), min(lz, (dy / y).min()))]

    try:
        for it in range(MAX_ITER):
            Rd = Z - (q.weighted_sum(y) - R)
            mu = (np.vdot(Z, X).real + y @ s) / (2 * n)
            primal = np.vdot(R, X).real
            dual = float(y.sum())
            gap = dual - primal
            if (it and abs(gap) <= _EXIT_GAP * max(1.0, abs(primal))
                    and np.vdot(X, X).real >= _EXIT_RANK * np.trace(X).real ** 2):
                sol = _rank_one_exit(q, X, y, s, it)
                if sol is not None:
                    return sol
            if (abs(gap) <= GAP_TOL * max(1.0, abs(primal))
                    and max(np.abs(1.0 - tr(X) - s).max(), np.linalg.norm(Rd)) <= FEAS_TOL):
                break
            if mu > 1e14 or not math.isfinite(mu):    # a relay-form relaxation is bounded
                raise ConvergenceError(
                    f"interior point diverged at iteration {it} (mu = {mu:.1e})")

            # Cholesky factors X = L L^H, Z = L_Z L_Z^H, shared by the predictor
            # and corrector step lengths, and W = Z^-1 = L_Z^-H L_Z^-1
            Li = np.linalg.inv(np.linalg.cholesky(np.array([X, Z])))
            LiH = Li.conj().transpose(0, 2, 1)
            W = symmetrize(LiH[1] @ Li[1])
            XQW = X @ Q @ W
            # M_kj = Re[Tr(QXQW) + c_j (WQX)_jj + c_k (XQW)_kk + c_k c_j X_kj W_jk];
            # (WQX)_jj is the conjugate of (XQW)_jj
            b = c * XQW.diagonal().real
            M = np.vdot(Q, XQW).real + b[:, None] + b + cc * (X * W.T).real
            M.flat[::n + 1] += s / y
            trXRdW = tr(X @ Rd @ W)

            # the affine predictor (X Z = 0, y s = 0) fixes the centering
            # weight; Mehrotra's corrector then targets X Z = sigma mu I - C Z,
            # y s = sigma mu - ds dy, cancelling the second-order C = dX dZ W
            dX, ds, dy, dZ = directions(trXRdW - 1.0, -X, -y * s)
            ap, ad = steps(dX, dZ, ds, dy, 1.0)
            mu_aff = (np.vdot(Z + ad * dZ, X + ap * dX).real
                      + (y + ad * dy) @ (s + ap * ds)) / (2 * n)
            sm = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-4), 0.8) * mu
            C, cs = dX @ dZ @ W, ds * dy
            dX, ds, dy, dZ = directions(sm * (tr(W) + 1.0 / y) - 1.0 + trXRdW - tr(C) - cs / y,
                                        sm * W - X - C, sm - cs - y * s)
            ap, ad = (0.98 * a for a in steps(dX, dZ, ds, dy, 0.99))
            X = symmetrize(X + ap * dX)
            s = s + ap * ds
            y = y + ad * dy
            Z = symmetrize(Z + ad * dZ)
        else:
            raise ConvergenceError(
                f"interior-point method did not certify relative gap <= {GAP_TOL:.1e} "
                f"in {MAX_ITER} iterations")
    except np.linalg.LinAlgError as err:
        # a Cholesky factor, its inverse or a step-length eigvalsh broke down
        raise ConvergenceError(f"interior point broke down at iteration {it}: {err}") from None

    return _package(X, y, primal, dual, it)


def _rank_one_exit(q: QcqpInstance, X, y, s, it):
    """The certified rank-one optimum near the iterate (X, y, s), else None.

    From X's top factor w and the caps A = {k : y_k > s_k}, Newton steps on the
    real system (sum_A y_k A_k - R) w = 0, (w^H A_k w - 1)/2 = 0, symmetric and
    singular only along the phase i w, which borders it.  w, scaled to its
    tightest cap, is accepted when y_A >= 0 and bound = sum y + max(0,
    -lambda_min(sum y_k A_k - R)) sum_k 1/c_k is within GAP_TOL bound of
    w^H R w (c_k X_kk <= Tr(A_k X) <= 1 gives Tr X <= sum_k 1/c_k).  Anything
    else, a LinAlgError included, declines and the interior point goes on."""
    R, Q, c, n = q.R, q.Q, q.c, q.n
    act = np.flatnonzero(y > s)
    m, yk = act.size, np.where(y > s, y, 0.0)
    K = np.zeros((2 * n + m + 1,) * 2)     # unknowns [Re dw, Im dw, dy_A, phase]
    try:
        with np.errstate(all="ignore"):
            lam, U = np.linalg.eigh(X)
            w = U[:, -1] * np.sqrt(lam[-1])
            for _ in range(_EXIT_STEPS):
                Z = q.weighted_sum(yk) - R
                G = np.repeat((Q @ w)[:, None], m, axis=1)   # A_k w, k in A
                G[act, np.arange(m)] += c[act] * w[act]
                C = np.hstack([Z, 1j * Z, G, 1j * w[:, None]])
                K[:2 * n] = np.vstack([C.real, C.imag])
                K[2 * n:, :2 * n] = K[:2 * n, 2 * n:].T
                Zw = Z @ w
                d = np.linalg.solve(K, np.concatenate(
                    [-Zw.real, -Zw.imag, 0.5 - 0.5 * (w.conj() @ G).real, [0.0]]))
                w = w + d[:n] + 1j * d[n:2 * n]
                yk[act] += d[2 * n:-1]
            peak = q.constraint_values(w).max()
            if not (np.isfinite(yk).all() and yk.min() >= 0 and peak > 0):
                return None
            w = w / np.sqrt(peak)
            lam_z = np.linalg.eigvalsh(q.weighted_sum(yk) - R)[0]
    except np.linalg.LinAlgError:
        return None
    bound = yk.sum() + max(0.0, -lam_z) * (1.0 / c).sum()
    primal = qform(R, w)
    if not bound - primal <= GAP_TOL * bound:
        return None
    return SdpSolution(X=np.outer(w, w.conj()), dual_y=yk, primal_obj=primal,
                       dual_obj=float(bound), gap=float(bound - primal), rank_estimate=1,
                       iterations=it)


def dual_certificate_residuals(q: QcqpInstance, sol: SdpSolution) -> CertificateReport:
    """KKT residuals of a candidate solution; all ~0 on a valid optimum."""
    X, y = sol.X, sol.dual_y
    vals = q.traces(X)
    lam_x = np.linalg.eigvalsh(symmetrize(X))[0]
    primal_feas = float(max((vals - 1.0).max(), -min(lam_x, 0.0), 0.0))
    Zbar = q.weighted_sum(y) - q.R
    dual_feas = float(np.linalg.eigvalsh(symmetrize(Zbar))[0])
    comp = abs(np.trace(Zbar @ X).real) + float(y @ (1.0 - vals))
    return CertificateReport(primal_feas=primal_feas, dual_feas=dual_feas,
                             comp_slack=float(comp))


def range_eigh(X):
    """``(lam, U)``: the eigenpairs of the Hermitian X that count toward its
    rank, those with eigenvalue above RANK_TOL lambda_max, ascending.  The
    one rank rule of the package: the SDP rank estimate, rank-one
    decomposition, GRP and ``reproduce`` all read X through it."""
    lam, U = np.linalg.eigh(X)
    keep = lam > RANK_TOL * max(lam[-1], 1e-300)
    return lam[keep], U[:, keep]


def _package(X, y, primal, dual, iterations):
    X = symmetrize(X)
    return SdpSolution(X=X, dual_y=np.maximum(y, 0.0),
                       primal_obj=float(primal), dual_obj=float(dual),
                       gap=float(dual - primal), rank_estimate=range_eigh(X)[0].size,
                       iterations=iterations)
