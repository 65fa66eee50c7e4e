"""The per-relay QCQP in relay form and its SDP relaxation, with dual certificates.

Solves  min -Tr(R X)  s.t.  Tr(A_k X) <= 1 (k = 1..n),  X >= 0,  and the dual
max -sum_k y_k  s.t.  sum_k y_k A_k - R >= 0,  y >= 0,  for constraints in the
relay form A_k = Q + c_k e_k e_k^H (Q PSD, c_k > 0), held as (R, Q, c) by a
``QcqpInstance``; no A_k is ever formed.  The engine is a dual-feasible
primal-dual interior-point method (HKM direction, Mehrotra predictor-corrector:
the corrector reuses the Schur matrix and targets sigma mu I - dX_a dZ_a).
Its start, y = (1 + 1/n) rho 1 with rho the spectral radius of the pencil
(R, sum_k A_k), scales with R; Z = sum_k y_k A_k - R stays positive definite
under the step rule, so sum_k y_k certifies a bound at every iterate.  The
stop is |gap| <= GAP_TOL |dual|, relative at every scale of R (an absolute
floor below unit scale let the SNR exceed the reported value); R = 0 is settled
first.  With W = Z^-1 the Schur matrix Re Tr(A_k X A_j W) is
Re[Tr(QXQW) + c_j (WQX)_jj + c_k (XQW)_kk + c_k c_j X_kj W_jk] (Benson, Ye and
Zhang, SIAM J. Optim. 10 (2000)), so an iteration costs a few n x n products,
O(n^3), plus one stacked [X, Z] Cholesky and its inverse (step scalings and
W), one stacked eigvalsh per direction (step lengths, as in SDPT3) and two
Schur solves.  ``_kkt_exit`` stops early at a certified point X = V V^H of
any rank r with r^2 <= |active caps| (Pataki, Math. Oper. Res. 23 (1998)):
Newton steps on the KKT system Z V = 0, Tr(V^H A_k V) = 1, bordered by the
r^2 gauge directions (Alizadeh, Haeberly and Overton, Math. Program. 77
(1997)).  A rank-one point is the QCQP's optimum (Luo et al., IEEE SPM 27(3)
(2010)); a rank-two one is the fallback's start, certified in about half the
iterations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .linalg import HERMITIAN_TOL, check_type, hermitian, psd_violation, symmetrize

GAP_TOL = 1e-8    # certified duality gap |gap| <= GAP_TOL |dual|, relative at every scale
FEAS_TOL = 1e-8   # primal residual max_k |1 - Tr(A_k X) - s_k| at the stop; no units
MAX_ITER = 200    # interior-point Newton steps before ConvergenceError
RANK_TOL = 1e-6   # eigenvalues of X above RANK_TOL lambda_max count toward its rank
# The exit is tried at |gap| <= _EXIT_GAP |dual|: at r = 1 where ||X||_F^2 >=
# _EXIT_RANK Tr(X)^2 (no LAPACK call); else, up to _EXIT_MAX_N relays, at the r
# eigenvalues of X above _EXIT_CUT lambda_max where 2 <= r and r^2 <= |active
# caps| (Pataki's bound, so never at n <= 3).  Rank-one relaxations certify near
# 1e-3.  The cut and the relay limit are measured (ROADMAP item 13): from 48
# relays the eigh and the dense (2nr + |A| + r^2) solves cost more than the
# iterations they save.  Two Newton steps leave y ~1e-8 off; three reach
# round-off.
_EXIT_GAP = 1e-2
_EXIT_RANK = 0.99
_EXIT_CUT = 2e-2
_EXIT_MAX_N = 32
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
        """w^H Q w + c_k |w_k|^2 for every k; for an n x r factor V of X = V V^H,
        Tr(V^H A_k V) = Tr(A_k X)."""
        V = np.asarray(w, dtype=complex).reshape(self.n, -1)
        return np.trace(V.conj().T @ self.Q @ V).real + self.c * (np.abs(V) ** 2).sum(axis=1)

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
    A_k = Q + c_k e_k e_k^H.  Any other list, Q not PSD or some c_k <= 0 is
    an InputError."""

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
            raise InputError(f"the relay form needs Q PSD (lambda_min(Q) = {lam:.3e}) "
                             f"and every c_k > 0 (min c_k = {c.min():.3e})")
        super().__init__(R=R, Q=Q, c=c)


@dataclass
class SdpSolution:
    q: QcqpInstance          # the instance it solves
    X: np.ndarray
    dual_y: np.ndarray
    primal_obj: float        # Tr(R X), the maximization-form objective
    dual_obj: float          # sum_k y_k
    gap: float
    rank_estimate: int       # eigenvalues of X counted by range_eigh, or the exit's r
    iterations: int
    factor: np.ndarray | None = None   # X = V V^H (n x r) from the exit; None from the gap stop


@dataclass
class CertificateReport:
    primal_feas: float   # max constraint violation, max(Tr(A_k X) - 1, -lambda_min(X), 0)
    dual_feas: float     # lambda_min(sum y_k A_k - R), negative iff violated
    comp_slack: float    # |Tr((sum y_k A_k - R) X)| + sum y_k (1 - Tr(A_k X))


@np.errstate(over="raise", invalid="raise")
def solve_relaxation(q: QcqpInstance) -> SdpSolution:
    """Solve the relaxation to a certified duality gap <= GAP_TOL * |dual|, or
    to a rank-one point w w^H whose ``dual_obj`` is its certified bound.

    Initial point ``X0 = eps I`` with ``eps = 0.5 / max_k Tr(A_k)`` is
    strictly feasible because Q is PSD and every c_k > 0: every slack is at
    least 0.5.  ``y0 = t 1`` is strictly dual feasible: with S = sum_k A_k =
    L L^H, t S - R = L (t I - L^-1 R L^-H) L^H.  At R = 0, X0 and y = 0 are
    returned after no iteration: every X has value 0 and Z = 0 is PSD.  Raises
    ConvergenceError when the gap is not certified within MAX_ITER Newton steps,
    or when the Schur matrix is singular (nearly parallel constraints, as at
    c_k ~ 1e-8), a LAPACK kernel breaks down, or any step overflows (as the
    start does near the float64 limit).
    """
    check_type(q, QcqpInstance, name="q")
    R, Q, c, n = q.R, q.Q, q.c, q.n
    tr = q.traces
    it = 0

    def directions(rhs, dX0, ds0):
        # HKM step: M dy = rhs, dX = dX0 - X dZ W, ds = (ds0 - s dy)/y
        try:
            dy = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"interior point: singular Schur matrix at iteration {it}") from None
        dZ = q.weighted_sum(dy)
        return symmetrize(dX0 - X @ dZ @ W), (ds0 - s * dy) / y, dy, dZ

    def steps(dX, dZ, ds, dy, tau):
        # largest a <= 1 keeping X + a dX, Z + a dZ (1-tau)-ish inside the cone and
        # v + a dv > 0; L^-1 dX L^-H (X = L L^H) has the eigenvalues of X^-1/2 dX X^-1/2
        lx, lz = np.linalg.eigvalsh(Li @ np.array([dX, dZ]) @ LiH)[:, 0]
        return [1.0 if m >= 0 else min(1.0, -tau / m)
                for m in (min(lx, (ds / s).min()), min(lz, (dy / y).min()))]

    try:
        X = (0.5 / (np.trace(Q).real + c.max())) * np.eye(n, dtype=complex)
        if not R.any():     # every X has value 0 and y = 0 is dual feasible: both optimal
            return SdpSolution(q=q, X=X, dual_y=np.zeros(n), primal_obj=0.0, dual_obj=0.0, gap=0.0,
                               rank_estimate=range_eigh(X)[0].size, iterations=0)
        s = 1.0 - tr(X)
        cc = np.outer(c, c)
        Li = np.linalg.inv(np.linalg.cholesky(q.weighted_sum(np.ones(n))))
        lam = np.linalg.eigvalsh(Li @ R @ Li.conj().T)
        y = np.full(n, (1.0 + 1.0 / n) * max(lam[-1], -lam[0]) or 1.0)
        Z = q.weighted_sum(y) - R
        for it in range(MAX_ITER):
            mu = (np.vdot(Z, X).real + y @ s) / (2 * n)
            primal = np.vdot(R, X).real
            dual = float(y.sum())
            gap = dual - primal
            if it and abs(gap) <= _EXIT_GAP * abs(dual):
                sol = _kkt_exit(q, X, y, s, it)
                if sol is not None:
                    return sol
            if (abs(gap) <= GAP_TOL * abs(dual)
                    and np.abs(1.0 - tr(X) - s).max() <= FEAS_TOL):
                break

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

            # the affine predictor (X Z = 0, y s = 0) fixes the centering
            # weight; Mehrotra's corrector then targets X Z = sigma mu I - C Z,
            # y s = sigma mu - ds dy, cancelling the second-order C = dX dZ W
            dX, ds, dy, dZ = directions(np.full(n, -1.0), -X, -y * s)
            ap, ad = steps(dX, dZ, ds, dy, 1.0)
            mu_aff = (np.vdot(Z + ad * dZ, X + ap * dX).real
                      + (y + ad * dy) @ (s + ap * ds)) / (2 * n)
            sm = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-4), 0.8) * mu
            C, cs = dX @ dZ @ W, ds * dy
            dX, ds, dy, dZ = directions(sm * (tr(W) + 1.0 / y) - 1.0 - tr(C) - cs / y,
                                        sm * W - X - C, sm - cs - y * s)
            ap, ad = (0.98 * a for a in steps(dX, dZ, ds, dy, 0.99))
            X = symmetrize(X + ap * dX)
            s = s + ap * ds
            y = y + ad * dy
            Z = q.weighted_sum(y) - R
        else:
            raise ConvergenceError(
                f"interior-point method did not certify |gap| <= {GAP_TOL:.1e} |dual| "
                f"in {MAX_ITER} iterations")
    except (np.linalg.LinAlgError, FloatingPointError) as err:
        # a step overflowed, or a Cholesky factor, its inverse or an eigvalsh broke down
        raise ConvergenceError(f"interior point broke down at iteration {it}: {err}") from None

    return SdpSolution(q=q, X=X, dual_y=y, primal_obj=float(primal), dual_obj=dual,
                       gap=float(dual - primal), rank_estimate=range_eigh(X)[0].size,
                       iterations=it)


def _kkt_exit(q: QcqpInstance, X, y, s, it):
    """The certified rank-r optimum X = V V^H near the iterate (X, y, s), else None.

    r is 1 where ||X||_F^2 >= _EXIT_RANK Tr(X)^2, else (up to _EXIT_MAX_N
    relays) the count of X's eigenvalues above _EXIT_CUT lambda_max, tried
    only where 2 <= r and r^2 <= |A| for the caps A = {k : y_k > s_k}
    (Pataki's bound).  From V, X's top r factors, Newton steps on the real
    system Z V = 0, (Tr(V^H A_k V) - 1)/2 = 0 (k in A), with Z = sum_A y_k
    A_k - R: it is symmetric and singular only along the gauge directions
    V S, S skew-Hermitian r x r (i w at r = 1), which border it.  y_A >= 0
    is lifted by max(0, -lambda_min(Z))/c_k, which adds at least that times
    I to Z, so bound = sum y is certified; V, scaled to its tightest cap and
    still of rank r, is accepted within GAP_TOL bound of it.  Where it is
    not, the caps outside A that V exceeds are active too (a cap with a small
    multiplier can keep y_k < s_k to the interior point's last iterations):
    they join A and the exit starts again from X.  Anything else, a
    LinAlgError included, declines and the interior point goes on."""
    R, Q, c, n = q.R, q.Q, q.c, q.n
    act = np.flatnonzero(y > s)
    m, yk = act.size, np.where(y > s, y, 0.0)
    one = np.vdot(X, X).real >= _EXIT_RANK * np.trace(X).real ** 2
    if not (one or 4 <= m and n <= _EXIT_MAX_N):      # no LAPACK call where r >= 2 cannot run
        return None
    try:
        with np.errstate(all="ignore"):
            lam, U = np.linalg.eigh(X)
            r = 1 if one else int(np.count_nonzero(lam > _EXIT_CUT * lam[-1]))
            if not (one or 2 <= r and r * r <= m):
                return None
            V = U[:, -r:] * np.sqrt(lam[-r:])
            # rows and unknowns [Re, Im of column j of Z V, resp. dV, for each j; dy_A;
            # gauge], as views of K and rhs: Z's real embedding on the diagonal blocks
            N, S = 2 * n * r, _gauge_basis(r)
            K, rhs = np.zeros((N + m + r * r,) * 2), np.zeros(N + m + r * r)
            top, rtop = K[:N].reshape(r, 2, n, -1), rhs[:N].reshape(r, 2, n)
            Zb = np.einsum("jpajqb->jpaqb", K[:N, :N].reshape(r, 2, n, r, 2, n))
            C = np.empty((r, n, m + r * r), dtype=complex)   # (A_k V)_j for k in A, (V S)_j
            for _ in range(_EXIT_STEPS):
                Z = q.weighted_sum(yk) - R
                Zb[:, 0, :, 0] = Zb[:, 1, :, 1] = Z.real
                Zb[:, 1, :, 0] = Z.imag
                Zb[:, 0, :, 1] = -Z.imag
                C[:, :, :m] = (Q @ V).T[:, :, None]
                C[:, act, np.arange(m)] += c[act] * V[act].T
                C[:, :, m:] = (V @ S).transpose(2, 1, 0)
                top[:, 0, :, N:], top[:, 1, :, N:] = C.real, C.imag
                K[N:, :N] = K[:N, N:].T
                ZV = (Z @ V).T
                rtop[:, 0], rtop[:, 1] = -ZV.real, -ZV.imag
                caps = (V.conj().T.ravel() @ C[:, :, :m].reshape(r * n, m)).real
                rhs[N:N + m] = 0.5 - 0.5 * caps
                d = np.linalg.solve(K, rhs)
                dV = d[:N].reshape(r, 2, n)
                V.real += dV[:, 0].T
                V.imag += dV[:, 1].T
                yk[act] += d[N:N + m]
            vals = q.constraint_values(V)
            peak = vals.max()
            # X's nonzero eigenvalues are V^H V's; at r = 1, peak > 0 says V != 0
            lam_v = np.linalg.eigvalsh(V.conj().T @ V) if r > 1 else [1.0]
            if not (np.isfinite(yk).all() and yk.min() >= 0 and peak > 0
                    and lam_v[0] > RANK_TOL * lam_v[-1]):
                return None
            V = V / np.sqrt(peak)
            lam_z = np.linalg.eigvalsh(q.weighted_sum(yk) - R)[0]
    except np.linalg.LinAlgError:
        return None
    yk = yk + max(0.0, -lam_z) / c
    bound = yk.sum()
    primal = float(np.trace(V.conj().T @ R @ V).real)
    if not bound - primal <= GAP_TOL * bound:
        # the caps V exceeds outside A join it, and the exit starts again from X
        out = (vals > 1.0) & ~(y > s)
        return _kkt_exit(q, X, y, np.where(out, -np.inf, s), it) if out.any() else None
    return SdpSolution(q=q, X=(V[:, None] * V.conj()).sum(axis=2), dual_y=yk, primal_obj=primal,
                       dual_obj=float(bound), gap=float(bound - primal), rank_estimate=r,
                       iterations=it, factor=V)


@functools.cache
def _gauge_basis(r):
    """The r^2 skew-Hermitian r x r matrices i E_aa, E_ab - E_ba and
    i (E_ab + E_ba) (a < b), stacked; V V^H is constant along V S.  Cached:
    building it was 5 % of a rank-one exit try."""
    l = np.arange(r * r)
    a, b = np.divmod(l, r)
    S = np.zeros((r * r, r, r), dtype=complex)
    S[l, a, b] = np.where(a < b, 1.0, 1j)
    S[l, b, a] = np.where(a < b, -1.0, 1j)
    return S


def dual_certificate_residuals(sol: SdpSolution) -> CertificateReport:
    """KKT residuals of a candidate solution against its instance ``sol.q``; all ~0 at an optimum."""
    sol = check_type(sol, SdpSolution, name="sol")
    q, X, y = check_type(sol.q, QcqpInstance, name="sol.q"), sol.X, sol.dual_y
    # an exit's X = V V^H is PSD, and its caps are read from V: forming X
    # rounds them, and lambda_min(X), by up to 3e-8 where Q ~ 1e-8 and X ~ 1e8
    if sol.factor is None:
        vals, lam_x = q.traces(X), np.linalg.eigvalsh(symmetrize(X))[0]
    else:
        vals, lam_x = q.constraint_values(sol.factor), 0.0
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
