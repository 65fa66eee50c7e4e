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
O(n^3), plus one stacked [X, Z] eigh (step scalings and W) and one stacked
eigvalsh per direction (step lengths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, ModelError
from .linalg import HERMITIAN_TOL, hermitian, psd_violation, qform, symmetrize

GAP_TOL = 1e-8    # certified relative duality gap, |gap| <= GAP_TOL max(1, |primal|)
FEAS_TOL = 1e-8   # primal and dual residual norms at the stop
MAX_ITER = 200    # interior-point Newton steps before ConvergenceError
RANK_TOL = 1e-6   # eigenvalues of X above RANK_TOL lambda_max count toward its rank


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
        return np.vdot(self.Q, X).real + self.c * np.diagonal(X).real

    def weighted_sum(self, y) -> np.ndarray:
        """sum_k y_k A_k = (sum_k y_k) Q + diag(c y)."""
        return y.sum() * self.Q + np.diag(self.c * y)


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
    """Solve the relaxation to a certified duality gap <= GAP_TOL * max(1, |primal|).

    Initial point ``X0 = eps I`` with ``eps = 0.5 / max_k Tr(A_k)`` is
    strictly feasible because Q is PSD and every c_k > 0: every slack is at
    least 0.5.  Raises ConvergenceError when the gap target is not certified
    within MAX_ITER Newton steps, or when the Schur matrix is singular (nearly
    parallel constraints, as at c_k ~ 1e-8) or the iterates diverge.
    """
    R, Q, c = q.R, q.Q, q.c
    n = q.n
    X = (0.5 / (np.trace(Q).real + c.max())) * np.eye(n, dtype=complex)
    s = 1.0 - q.traces(X)
    y = np.ones(n)
    Z = (np.linalg.eigvalsh(R).max() + 1.0) * np.eye(n, dtype=complex)
    cc = np.outer(c, c)

    for it in range(MAX_ITER):
        rp = (1.0 - q.traces(X)) - s
        Rd = Z - (q.weighted_sum(y) - R)
        mu = (np.vdot(Z, X).real + y @ s) / (2 * n)
        primal = np.vdot(R, X).real
        dual = float(y.sum())
        gap = dual - primal
        feas = max(np.abs(rp).max(), np.linalg.norm(Rd))
        if feas <= FEAS_TOL and abs(gap) <= GAP_TOL * max(1.0, abs(primal)):
            break
        if mu > 1e14 or not np.isfinite(mu):    # a relay-form relaxation is bounded
            raise ConvergenceError(f"interior point diverged at iteration {it} (mu = {mu:.1e})")

        # [X^{-1/2}, Z^{-1/2}], shared by the predictor and corrector step
        # lengths, and W = Z^{-1} from the same eigenpairs
        w, U = np.linalg.eigh(np.stack([X, Z]))
        Pmh = (U / np.sqrt(np.maximum(w, 1e-300))[:, None, :]) @ U.conj().transpose(0, 2, 1)
        W = symmetrize(Pmh[1] @ Pmh[1])
        XQW = X @ Q @ W
        # M_kj = Re[Tr(QXQW) + c_j (WQX)_jj + c_k (XQW)_kk + c_k c_j X_kj W_jk];
        # (WQX)_jj is the conjugate of (XQW)_jj
        b = c * np.diagonal(XQW).real
        M = np.vdot(Q, XQW).real + b[:, None] + b + cc * (X * W.T).real
        M += np.diag(s / y)
        trAZ = q.traces(W)
        trAXRdZ = q.traces(X @ Rd @ W)

        def directions(sig, C, cs):
            # HKM step toward X Z = sig mu I - C Z and y s = sig mu - cs
            rhs = sig * mu * (trAZ + 1.0 / y) - 1.0 + trAXRdZ - q.traces(C) - cs / y
            try:
                dy = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                raise ConvergenceError(
                    f"interior point: singular Schur matrix at iteration {it}") from None
            dZ = q.weighted_sum(dy) - Rd
            dX = symmetrize(sig * mu * W - X - X @ dZ @ W - C)
            ds = (sig * mu - cs - y * s - s * dy) / y
            return dX, ds, dy, dZ

        # the affine predictor fixes the centering weight; Mehrotra's corrector
        # then also cancels its second-order term dX_a dZ_a
        dX, ds, dy, dZ = directions(0.0, np.zeros_like(X), 0.0)
        ap, ad = _max_steps(Pmh, dX, dZ, (s, y), (ds, dy), 1.0)
        mu_aff = (np.vdot(Z + ad * dZ, X + ap * dX).real
                  + (y + ad * dy) @ (s + ap * ds)) / (2 * n)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-4, 0.8))
        dX, ds, dy, dZ = directions(sigma, dX @ dZ @ W, ds * dy)
        ap, ad = (0.98 * a for a in _max_steps(Pmh, dX, dZ, (s, y), (ds, dy), 0.99))
        X = symmetrize(X + ap * dX)
        s = s + ap * ds
        y = y + ad * dy
        Z = symmetrize(Z + ad * dZ)
    else:
        raise ConvergenceError(
            f"interior-point method did not certify relative gap <= {GAP_TOL:.1e} "
            f"in {MAX_ITER} iterations")

    return _package(X, y, primal, dual, it)


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


def _max_steps(Pmh, dX, dZ, vs, dvs, tau):
    """Largest steps a <= 1 (primal, dual) keeping X + a dX and Z + a dZ
    (1-tau)-ish inside the cone and v + a dv > 0; Pmh = [X^{-1/2}, Z^{-1/2}]."""
    lams = np.linalg.eigvalsh(Pmh @ np.stack([dX, dZ]) @ Pmh).min(axis=1)
    steps = []
    for lam, v, dv in zip(lams, vs, dvs):
        a = 1.0 if lam >= 0 else min(1.0, -tau / lam)
        neg = dv < 0
        if neg.any():
            a = min(a, float((-tau * v[neg] / dv[neg]).min()))
        steps.append(a)
    return steps


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
