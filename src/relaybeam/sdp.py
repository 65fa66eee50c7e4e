"""Small dense SDP relaxation solver with dual certificates.

Solves  min -Tr(R X)  s.t.  Tr(A_k X) <= 1 (k = 1..N),  X >= 0
for Hermitian R and PSD A_k, together with the dual
           max -sum_k y_k  s.t.  sum_k y_k A_k - R >= 0,  y >= 0.

The engine is an infeasible primal-dual interior-point method (HKM
direction, Mehrotra predictor-corrector: the corrector reuses the Schur
matrix and targets sigma mu I - dX_a dZ_a).  Iterates keep X, Z strictly
inside their cones, so the returned dual multipliers certify the reported
gap without post-hoc cleanup; a pure primal log-barrier was tried first and
could not certify gaps below ~3e-8 in double precision on the target
problems.  The stop is SDPT3's relative gap,
|gap| <= GAP_TOL max(1, |primal|); an absolute 1e-8 stalled on round-off at
objectives near 70.  The constraints are one (N, n, n) stack, so the Schur
matrix Re Tr(A_k X A_j Z^-1) is a batched product X A_j Z^-1 and one
(N, n^2) x (n^2, N) GEMM: O(N n^3 + N^2 n^2) per iteration, plus one
stacked [X, Z] eigh and one stacked step-length eigvalsh per direction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, ModelError
from .linalg import hermitian, symmetrize

GAP_TOL = 1e-8    # certified relative duality gap, |gap| <= GAP_TOL max(1, |primal|)
FEAS_TOL = 1e-8   # primal and dual residual norms at the stop
MAX_ITER = 200    # interior-point Newton steps before ConvergenceError
RANK_TOL = 1e-6   # eigenvalues of X above RANK_TOL lambda_max count toward its rank


@dataclass
class SdpProblem:
    """Objective R and constraints A_1..A_N (Hermitian), stored as an (N, n, n) stack."""

    objective: np.ndarray
    constraints: np.ndarray

    def __post_init__(self):
        self.objective = hermitian(self.objective, name="R")
        A = [hermitian(Ak, name=f"A_{k+1}") for k, Ak in enumerate(self.constraints)]
        n = self.objective.shape[0]
        for k, Ak in enumerate(A):
            if Ak.shape != (n, n):
                raise InputError(f"A_{k+1} has shape {Ak.shape}, expected {(n, n)}")
        if not A:
            raise InputError("at least one constraint matrix is required")
        # relative PSD test, lambda_min >= -1e-9 max(1, |lambda|_max): at
        # c_k ~ 1e8 an absolute one rejects Q + c_k e_k e_k^H on round-off
        stack = np.stack([self.objective, *A])
        lam = np.linalg.eigvalsh(stack)
        neg = lam[:, 0] < -1e-9 * np.maximum(1.0, np.abs(lam).max(axis=1))
        if neg[0]:
            warnings.warn("objective matrix R is not PSD; relaxation may be unbounded",
                          stacklevel=2)
        self.constraints = stack[1:]
        bad = np.flatnonzero(neg[1:])
        if bad.size:
            raise ModelError(f"constraint matrix A_{bad[0] + 1} is not PSD")

    @property
    def n(self) -> int:
        return self.objective.shape[0]

    @property
    def m(self) -> int:
        return len(self.constraints)


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


def solve_relaxation(p: SdpProblem) -> SdpSolution:
    """Solve the relaxation to a certified duality gap <= GAP_TOL * max(1, |primal|).

    Initial point ``X0 = eps I`` with ``eps = 0.5 / max_k Tr(A_k)`` is
    strictly feasible because every A_k is PSD: every slack is at least
    0.5.  Raises ConvergenceError (carrying the best iterate) when the gap
    target is not certified within MAX_ITER Newton steps.
    """
    R = p.objective
    A = p.constraints
    n, N = p.n, p.m
    tr_cap = np.trace(A, axis1=1, axis2=2).real.max()
    if tr_cap <= 0:
        raise ModelError("all constraint matrices have zero trace; no interior")

    X = (0.5 / tr_cap) * np.eye(n, dtype=complex)
    s = 1.0 - _traces(A, X)
    y = np.ones(N)
    Z = (np.linalg.eigvalsh(R).max() + 1.0) * np.eye(n, dtype=complex)

    best = None
    it = 0
    for it in range(MAX_ITER):
        rp = (1.0 - _traces(A, X)) - s
        Rd = Z - (_combine(y, A) - R)
        mu = (np.trace(Z @ X).real + y @ s) / (n + N)
        primal = np.trace(R @ X).real
        dual = float(y.sum())
        gap = dual - primal
        feas = max(np.abs(rp).max(), np.linalg.norm(Rd))
        if best is None or abs(gap) + feas < best[0]:
            best = (abs(gap) + feas, X.copy(), y.copy(), primal, dual, it)
        if feas <= FEAS_TOL and abs(gap) <= GAP_TOL * max(1.0, abs(primal)):
            break
        if mu > 1e14 or not np.isfinite(mu):
            raise ModelError("iterates diverged; problem may be unbounded")

        Zinv = symmetrize(np.linalg.inv(Z))
        XA = X @ A @ Zinv
        # M_kj = Re Tr(A_k XA_j) = Re sum_ab A_k[a, b] XA_j[b, a]
        M = (A.reshape(N, -1) @ XA.transpose(0, 2, 1).reshape(N, -1).T).real
        M += np.diag(s / y)
        trAZ = _traces(A, Zinv)
        trAXRdZ = _traces(A, X @ Rd @ Zinv)
        # [X^{-1/2}, Z^{-1/2}], shared by the predictor and corrector step lengths
        w, U = np.linalg.eigh(np.stack([X, Z]))
        Pmh = (U / np.sqrt(np.maximum(w, 1e-300))[:, None, :]) @ U.conj().transpose(0, 2, 1)

        def directions(sig, C, cs):
            # HKM step toward X Z = sig mu I - C Z and y s = sig mu - cs
            rhs = sig * mu * (trAZ + 1.0 / y) - 1.0 + trAXRdZ - _traces(A, C) - cs / y
            dy = np.linalg.solve(M, rhs)
            dZ = _combine(dy, A) - Rd
            dX = symmetrize(sig * mu * Zinv - X - X @ dZ @ Zinv - C)
            ds = (sig * mu - cs - y * s - s * dy) / y
            return dX, ds, dy, dZ

        # the affine predictor fixes the centering weight; Mehrotra's corrector
        # then also cancels its second-order term dX_a dZ_a
        dX, ds, dy, dZ = directions(0.0, np.zeros_like(X), 0.0)
        ap, ad = _max_steps(Pmh, dX, dZ, (s, y), (ds, dy), 1.0)
        mu_aff = (np.trace((Z + ad * dZ) @ (X + ap * dX)).real
                  + (y + ad * dy) @ (s + ap * ds)) / (n + N)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-4, 0.8))
        dX, ds, dy, dZ = directions(sigma, dX @ dZ @ Zinv, ds * dy)
        ap, ad = (0.98 * a for a in _max_steps(Pmh, dX, dZ, (s, y), (ds, dy), 0.99))
        X = symmetrize(X + ap * dX)
        s = s + ap * ds
        y = y + ad * dy
        Z = symmetrize(Z + ad * dZ)
    else:
        _, Xb, yb, pb, db, _ = best
        raise ConvergenceError(
            f"interior-point method did not certify relative gap <= {GAP_TOL:.1e} "
            f"in {MAX_ITER} iterations",
            best=_package(Xb, yb, pb, db, MAX_ITER),
        )

    return _package(X, y, np.trace(R @ X).real, float(y.sum()), it)


def dual_certificate_residuals(p: SdpProblem, sol: SdpSolution) -> CertificateReport:
    """KKT residuals of a candidate solution; all ~0 on a valid optimum."""
    R, A = p.objective, p.constraints
    X, y = sol.X, sol.dual_y
    vals = _traces(A, X)
    lam_x = np.linalg.eigvalsh(symmetrize(X))[0]
    primal_feas = float(max((vals - 1.0).max(), -min(lam_x, 0.0), 0.0))
    Zbar = _combine(y, A) - R
    dual_feas = float(np.linalg.eigvalsh(symmetrize(Zbar))[0])
    comp = abs(np.trace(Zbar @ X).real) + float(y @ (1.0 - vals))
    return CertificateReport(primal_feas=primal_feas, dual_feas=dual_feas,
                             comp_slack=float(comp))


def _traces(A, X):
    """Tr(A_k X) for every matrix of the stack A."""
    return np.einsum("kab,ba->k", A, X).real


def _combine(y, A):
    """sum_k y_k A_k over the stack A."""
    return np.tensordot(y, A, 1)


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
