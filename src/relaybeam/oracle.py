"""Independent brute-force and finite-difference verifiers.

These back the derived expected values in the test suite: exhaustive
polar-grid search for the per-relay problem (n <= 3), a dense scan of the
scalar total-power objective, and central finite differences for
derivative checks.  Results are feasibility-audited through the channel
formulas before being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import snr
from .errors import InputError, ScopeError
from .problems import IndivPowerProblem, TotalPowerProblem
from . import indiv_search

EVAL_GUARD = 10 ** 8


@dataclass
class GridSpec:
    radial_points: int = 24
    angular_points: int = 16

    def evaluations(self, n: int) -> int:
        # slot 1 phase is gauge-fixed to zero, so it contributes no angle
        return self.radial_points ** n * self.angular_points ** (n - 1)


def brute_force_indiv(p: IndivPowerProblem, g: GridSpec | None = None,
                      batch: int = 2 ** 20):
    """Exhaustive polar-grid search over the per-relay feasible box.

    The first weight's phase is fixed to zero (SNR is phase invariant);
    the best grid point is polished by one sweep of the closed-form scalar
    subproblem.  Returns ``(w, snr)``.
    """
    if p.n > 3:
        raise ScopeError("brute force is limited to n <= 3")
    g = g or GridSpec()
    total = g.evaluations(p.n)
    if total > EVAL_GUARD:
        raise InputError(
            f"grid of {total} evaluations exceeds the {EVAL_GUARD} guard; "
            "use a coarser GridSpec")
    caps = p.caps()
    n = p.n
    axes = []
    for k in range(n):
        radii = np.linspace(0.0, caps[k], g.radial_points)
        if k == 0:
            axes.append(radii.astype(complex))
        else:
            phases = np.exp(2j * np.pi * np.arange(g.angular_points) / g.angular_points)
            axes.append(np.outer(radii, phases).ravel())
    R, Q = p.stats.R, p.stats.Q
    scale = p.Ps / p.stats.sigma2
    best_val = -np.inf
    best_w = None
    sizes = [a.size for a in axes]
    grid_total = int(np.prod(sizes))
    for start in range(0, grid_total, batch):
        stop = min(start + batch, grid_total)
        idx = np.unravel_index(np.arange(start, stop), sizes)
        W = np.stack([axes[k][idx[k]] for k in range(n)], axis=1)
        num = np.einsum("bi,ij,bj->b", W.conj(), R, W).real
        den = 1.0 + np.einsum("bi,ij,bj->b", W.conj(), Q, W).real
        vals = scale * num / den
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_w = W[i].copy()
    # one polish sweep with the closed-form slot update
    w = best_w
    for k in range(n):
        sub = indiv_search.extract_coefficients(p, w, k)
        y, _, _ = indiv_search.solve_scalar_subproblem(sub)
        w[k] = y
    return w, snr(p.stats, p.Ps, w)


def brute_force_total(p: TotalPowerProblem, points: int = 100):
    """Dense scan of the total-power objective over the bracket.

    Returns ``(x, objective)`` for the best of ``points`` uniform grid
    values of the normalized source power.  Independent of ``total_power``:
    the bracket comes from the extreme eigenvalues c, d of the pencil
    (Q + rI, D + rI), r = sigma^2/P0, as x = sqrt(c)/(1+sqrt(c)), and at
    each x the relays spend (1-x) P0, so the best weights give
    (x P0/sigma^2) lambda_max(R, Q + (x D + r I)/(1-x)), evaluated through a
    Cholesky factor of the second matrix.
    """
    if points < 10:
        raise InputError("points must be >= 10")
    stats = p.stats
    r = stats.sigma2 / p.P0
    dis = 1.0 / np.sqrt(stats.D + r)
    ev = np.sqrt(np.linalg.eigvalsh(dis[:, None] * (stats.Q + r * np.eye(stats.n)) * dis))
    xs = np.linspace(ev[0] / (1.0 + ev[0]), ev[-1] / (1.0 + ev[-1]), points)
    bump = (xs[:, None] * stats.D + r) / (1.0 - xs)[:, None]
    Li = np.linalg.inv(np.linalg.cholesky(stats.Q + bump[:, :, None] * np.eye(stats.n)))
    lam = np.linalg.eigvalsh(Li @ stats.R @ np.conj(np.swapaxes(Li, 1, 2)))[:, -1]
    vals = xs * p.P0 / stats.sigma2 * lam
    i = int(np.argmax(vals))
    return float(xs[i]), float(vals[i])


def finite_diff(fn, x, h: float = 1e-5):
    """Central-difference first derivative (scalar) or gradient (vector)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return (fn(float(x) + h) - fn(float(x) - h)) / (2.0 * h)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def finite_diff_second(fn, x, h: float = 1e-4):
    """Central-difference second derivative (scalar) or Hessian (vector)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = float(x)
        return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)
    m = x.size
    H = np.zeros((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        for j in range(i, m):
            ej = np.zeros(m)
            ej[j] = h
            H[i, j] = (fn(x + ei + ej) - fn(x + ei - ej)
                       - fn(x - ei + ej) + fn(x - ei - ej)) / (4.0 * h * h)
            H[j, i] = H[i, j]
    return H
