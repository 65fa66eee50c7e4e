"""SNR maximization under a joint source+relay power budget.

The joint problem over (Ps, w) reduces to a scalar search: with
S1 = R^{-1/2} D R^{-1/2} + (sigma^2/P0) R^{-1} and S2 the same with Q,
the optimum normalized source power x = Ps/P0 minimizes
lambda_min(G(x)) for G(x) = S1/(1-x) + S2/x over a bracket [x_l, x_u]
derived from the extreme generalized eigenvalues of (S1, S2).  The search
runs Newton's method on analytic first/second eigenvalue derivatives
(Hadamard variation formulas); for diagonal S1, S2 the minimizer is in
closed form.  The optimal weight direction is R^{-1/2} times the bottom
eigenvector of G(x), rescaled so the power budget holds with equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamformingSolution, snr
from .errors import ConvergenceError, DegenerateSpectrumError, DispatchError, SingularityError
from .linalg import is_diagonal, psd_inv_sqrt, symmetrize
from .problems import TotalPowerProblem
from .trace import SolverTrace

TRACE_COLUMNS = ("k", "x", "lambda_min", "d1", "d2", "step")


@dataclass
class SPair:
    """The two positive definite matrices S1, S2 of the scalar reduction."""

    S1: np.ndarray
    S2: np.ndarray
    R_inv_sqrt: np.ndarray   # kept to map eigenvectors back to weight space

    @property
    def n(self) -> int:
        return self.S1.shape[0]

    def is_diagonal(self, rtol: float = 1e-12) -> bool:
        return is_diagonal(self.S1, rtol) and is_diagonal(self.S2, rtol)


@dataclass
class TotalPowerSolution:
    x: float                  # normalized source power Ps/P0 in (0, 1)
    Ps: float
    w: np.ndarray             # scaled so the budget is saturated
    snr: float
    lambda_min: float         # lambda_min(G(x)) at the returned x
    iterations: int
    trace: SolverTrace


def build_s_pair(p: TotalPowerProblem) -> SPair:
    """S1 = R^{-1/2} D R^{-1/2} + (sigma^2/P0) R^{-1}, S2 likewise with Q."""
    stats = p.stats
    try:
        Ris = psd_inv_sqrt(stats.R, eps=1e-10)
    except SingularityError as exc:
        raise SingularityError(
            "R is singular; the S1/S2 reduction requires R > 0 "
            "(the lambda_max reformulation for singular R is out of scope): "
            f"{exc}", eigenvalue=exc.eigenvalue) from exc
    Rinv = Ris @ Ris
    ratio = stats.sigma2 / p.P0
    S1 = symmetrize(Ris @ np.diag(stats.D) @ Ris + ratio * Rinv)
    S2 = symmetrize(Ris @ stats.Q @ Ris + ratio * Rinv)
    return SPair(S1=S1, S2=S2, R_inv_sqrt=Ris)


def bracket_x(s: SPair) -> tuple[float, float]:
    """Bracket [x_l, x_u] containing every optimal x.

    x_l = sqrt(c)/(1+sqrt(c)) and x_u = sqrt(d)/(1+sqrt(d)) where c, d are
    the extreme eigenvalues of S1^{-1/2} S2 S1^{-1/2}.
    """
    S1is = psd_inv_sqrt(s.S1, eps=1e-14)
    w = np.linalg.eigvalsh(symmetrize(S1is @ s.S2 @ S1is))
    c, d = float(w[0]), float(w[-1])
    xl = np.sqrt(c) / (1.0 + np.sqrt(c))
    xu = np.sqrt(d) / (1.0 + np.sqrt(d))
    return float(xl), float(xu)


def g_matrix(s: SPair, x: float) -> np.ndarray:
    return s.S1 / (1.0 - x) + s.S2 / x


def lambda_min_g(s: SPair, x: float):
    """lambda_min of G(x), its unit eigenvector, and the gap to the next
    eigenvalue (0 signals degeneracy)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0,1), got {x}")
    w, U = np.linalg.eigh(g_matrix(s, x))
    gap = float(w[1] - w[0]) if w.size > 1 else np.inf
    return float(w[0]), U[:, 0], gap


def eig_derivatives(s: SPair, x: float, gap_tol_factor: float = 1e-8):
    """Analytic d/dx and d^2/dx^2 of lambda_min(G(x)).

    First derivative u0^H G' u0; second derivative u0^H G'' u0 minus the
    perturbation sum over the remaining eigenpairs.  Requires a simple
    bottom eigenvalue: gap below gap_tol_factor*||G|| raises.
    """
    G = g_matrix(s, x)
    w, U = np.linalg.eigh(G)
    gap_tol = gap_tol_factor * np.linalg.norm(G)
    if w.size > 1 and (w[1] - w[0]) <= gap_tol:
        raise DegenerateSpectrumError(
            f"lambda_min(G({x:.6f})) is degenerate: gap {w[1]-w[0]:.3e}",
            gap=float(w[1] - w[0]))
    Gp = s.S1 / (1.0 - x) ** 2 - s.S2 / x ** 2
    Gpp = 2.0 * s.S1 / (1.0 - x) ** 3 + 2.0 * s.S2 / x ** 3
    u0 = U[:, 0]
    d1 = float(np.real(u0.conj() @ Gp @ u0))
    d2 = float(np.real(u0.conj() @ Gpp @ u0))
    cross = U[:, 1:].conj().T @ Gp @ u0
    d2 -= float((2.0 * np.abs(cross) ** 2 / (w[1:] - w[0])).sum())
    return d1, d2


def solve_diagonal(p: TotalPowerProblem, s: SPair | None = None) -> TotalPowerSolution:
    """Closed form when S1, S2 are diagonal (uncorrelated Rayleigh fading).

    min_x min_k (a_k/(1-x) + b_k/x) = (sqrt(a_k0)+sqrt(b_k0))^2 attained at
    x = sqrt(b_k0)/(sqrt(a_k0)+sqrt(b_k0)), k0 minimizing (sqrt a + sqrt b)^2.
    """
    if s is None:
        s = build_s_pair(p)
    if not s.is_diagonal():
        raise DispatchError("S1/S2 are not diagonal; use newton_solve or solve")
    a = np.diag(s.S1).real
    b = np.diag(s.S2).real
    score = (np.sqrt(a) + np.sqrt(b)) ** 2
    k0 = int(np.argmin(score))
    x = float(np.sqrt(b[k0]) / (np.sqrt(a[k0]) + np.sqrt(b[k0])))
    lam = float(score[k0])
    trace = SolverTrace(columns=TRACE_COLUMNS)
    trace.append(0, x, lam, 0.0, 0.0, 0.0)
    trace.note(f"closed form, k0={k0}")
    return _package(p, s, x, lam, np.eye(s.n)[:, k0] + 0j, 0, trace)


def newton_solve(p: TotalPowerProblem, x0: float, max_iter: int = 100,
                 rel_step_tol: float = 1e-3, deriv_tol: float = 1e-3,
                 s: SPair | None = None) -> TotalPowerSolution:
    """Bracketed Newton search for a stationary x starting from x0.

    The step is -d1/d2 with the step size halved until the iterate stays
    inside [x_l, x_u]; stops when both |dx/x| < rel_step_tol and
    |d1| < deriv_tol.  A degenerate spectrum anywhere on the path (or
    nonconvex local curvature d2 <= 0) abandons Newton for a golden-section
    scan of the bracket, documented in the trace.
    """
    if s is None:
        s = build_s_pair(p)
    xl, xu = bracket_x(s)
    if not xl <= x0 <= xu:
        raise ValueError(f"x0={x0} outside bracket [{xl:.6f}, {xu:.6f}]")
    trace = SolverTrace(columns=TRACE_COLUMNS)
    x = float(x0)
    for k in range(max_iter):
        try:
            d1, d2 = eig_derivatives(s, x)
        except DegenerateSpectrumError as exc:
            trace.note(f"degenerate spectrum at x={x:.6f} ({exc}); golden-section fallback")
            return _golden_fallback(p, s, xl, xu, trace)
        lam, _, _ = lambda_min_g(s, x)
        if d2 <= 0:
            trace.note(f"nonconvex curvature d2={d2:.3e} at x={x:.6f}; golden-section fallback")
            return _golden_fallback(p, s, xl, xu, trace)
        alpha = 1.0
        step = -d1 / d2
        while not (xl <= x + alpha * step <= xu):
            alpha *= 0.5
            if alpha < 1e-16:
                break
        x_new = min(max(x + alpha * step, xl), xu)
        trace.append(k, x, lam, d1, d2, alpha * step)
        converged = abs((x_new - x) / x) < rel_step_tol
        x = x_new
        if converged:
            try:
                d1_new, _ = eig_derivatives(s, x)
            except DegenerateSpectrumError:
                d1_new = np.inf
            if abs(d1_new) < deriv_tol:
                lam, u0, _ = lambda_min_g(s, x)
                return _package(p, s, x, lam, u0, k + 1, trace)
    lam, u0, _ = lambda_min_g(s, x)
    raise ConvergenceError(
        f"Newton did not meet the stopping test in {max_iter} iterations",
        best=_package(p, s, x, lam, u0, max_iter, trace), trace=trace)


def solve(p: TotalPowerProblem) -> TotalPowerSolution:
    """Dispatch: diagonal instances in closed form, otherwise Newton from
    both bracket endpoints, keeping the run with the larger SNR objective
    (ties toward smaller x)."""
    s = build_s_pair(p)
    if s.is_diagonal():
        return solve_diagonal(p, s)
    xl, xu = bracket_x(s)
    runs = [newton_solve(p, x0, s=s) for x0 in (xl, xu)]
    runs.sort(key=lambda r: (-r.snr, r.x))
    return runs[0]


def objective_value(p: TotalPowerProblem, x: float, lam: float) -> float:
    """SNR achieved at normalized source power x with lambda_min(G(x)) = lam.

    Equals (P0/sigma^2) * x(1-x) / lambda_min(x S1 + (1-x) S2); the
    x(1-x) factors cancel against the convex-combination scaling of G.
    """
    return (p.P0 / p.stats.sigma2) / lam


def _golden_fallback(p, s, xl, xu, trace, grid_points: int = 100):
    xs = np.linspace(xl, xu, grid_points)
    vals = [lambda_min_g(s, x)[0] for x in xs]
    i = int(np.argmin(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, grid_points - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = lambda_min_g(s, c)[0]
    fd = lambda_min_g(s, d)[0]
    iters = grid_points
    while b - a > 1e-10:
        iters += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = lambda_min_g(s, c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = lambda_min_g(s, d)[0]
    x = 0.5 * (a + b)
    lam, u0, _ = lambda_min_g(s, x)
    trace.append(iters, x, lam, np.nan, np.nan, 0.0)
    return _package(p, s, x, lam, u0, iters, trace)


def _package(p, s, x, lam, u0, iterations, trace) -> TotalPowerSolution:
    stats = p.stats
    Ps = x * p.P0
    w_dir = s.R_inv_sqrt @ u0
    # saturate the budget: Ps + Ps w^H D w + sigma^2 w^H w = P0
    relay_power = Ps * float(stats.D @ np.abs(w_dir) ** 2) \
        + stats.sigma2 * float(np.vdot(w_dir, w_dir).real)
    w = w_dir * np.sqrt((p.P0 - Ps) / relay_power)
    # deterministic phase: largest-magnitude entry real positive
    j = int(np.argmax(np.abs(w)))
    if np.abs(w[j]) > 0:
        w = w * (np.abs(w[j]) / w[j])
    return TotalPowerSolution(x=float(x), Ps=float(Ps), w=w,
                              snr=snr(stats, Ps, w), lambda_min=float(lam),
                              iterations=iterations, trace=trace)


def as_beamforming_solution(p: TotalPowerProblem, sol: TotalPowerSolution) -> BeamformingSolution:
    """Repackage with the budget slack as the single feasibility entry."""
    used = sol.Ps + sol.Ps * float(p.stats.D @ np.abs(sol.w) ** 2) \
        + p.stats.sigma2 * float(np.vdot(sol.w, sol.w).real)
    return BeamformingSolution(w=sol.w, Ps=sol.Ps, snr=sol.snr,
                               feasibility=np.array([p.P0 - used]))
