"""Brute-force verifiers, run by the ``oracle`` subcommand.

An exhaustive polar-grid search for the per-relay problem (n <= 3) and a
dense scan of the scalar total-power objective.  The test suite also reads
them as the reference for the solvers' optima.  Neither runs a solver's
search, but the grid search shares one piece with coordinate descent: it
polishes its best point with one ``indiv_search._sweep``, CDM's own
closed-form slot update, so a fault in that update would reach both the
solver and its reference.
"""

from __future__ import annotations

import numpy as np

from .channel import snr
from .errors import ConvergenceError, InputError
from .linalg import check_scalar, check_type
from .problems import IndivPowerProblem, TotalPowerProblem
from . import indiv_search

EVAL_GUARD = 10 ** 8
BATCH = 2 ** 20            # grid points evaluated per block


def brute_force_indiv(p: IndivPowerProblem, radial_points: int = 24, angular_points: int = 16):
    """Exhaustive polar-grid search over the per-relay feasible box:
    ``radial_points`` magnitudes and ``angular_points`` phases per relay, both counts.

    The first weight's phase is fixed to zero (SNR is phase invariant);
    the best grid point is polished by one sweep of the closed-form scalar
    subproblem.  Returns ``(w, snr)``.
    """
    if check_type(p, IndivPowerProblem, name="p").n > 3:
        raise InputError("brute force is limited to n <= 3")
    radial = check_scalar(radial_points, name="radial_points", kind="count")
    angular = check_scalar(angular_points, name="angular_points", kind="count")
    n = p.n
    total = radial ** n * angular ** (n - 1)    # the first relay's phase adds no angle
    if total > EVAL_GUARD:
        raise InputError(
            f"grid of {total} evaluations exceeds the {EVAL_GUARD} guard; use a coarser grid")
    phases = np.exp(2j * np.pi * np.arange(angular) / angular)
    axes = [np.outer(np.linspace(0.0, cap, radial), phases if k else [1.0 + 0j]).ravel()
            for k, cap in enumerate(p.caps())]
    # in C order the grid is (leading relays) x (last relay).  On the leading
    # relays' broadcast grid a form is diagonal terms plus one cross term per
    # pair, A; the last relay at x adds M_ll |x|^2 + 2 Re(u x), u = sum_i
    # conj(w_i) M_il.  Blocks of whole rows keep grid order for the tie rule
    *lead, last = axes
    shape = [a.size for a in lead]
    grids = [a.reshape([-1 if i == k else 1 for i in range(n - 1)]) for k, a in enumerate(lead)]
    forms = []
    for M, noise in ((p.stats.R, 0.0), (p.stats.Q, 1.0)):
        A = sum(((1.0 if i == j else 2.0) * (gi.conj() * M[i, j] * grids[j]).real
                 for i, gi in enumerate(grids) for j in range(i, n - 1)), np.full(shape, noise))
        u = sum((gi.conj() * M[i, -1] for i, gi in enumerate(grids)), np.zeros(shape, complex))
        forms.append((A.reshape(-1, 1), u.reshape(-1, 1), M[-1, -1].real * np.abs(last) ** 2))
    rows = max(1, BATCH // last.size)
    best_val, best = -np.inf, 0
    for r0 in range(0, int(np.prod(shape)), rows):
        num, den = (A[r0:r0 + rows] + d + 2.0 * (u[r0:r0 + rows] * last).real
                    for A, u, d in forms)
        vals = num / den
        i = int(np.argmax(vals))
        if vals.flat[i] > best_val:
            best_val, best = vals.flat[i], r0 * last.size + i
    w = np.array([a[i] for a, i in zip(axes, np.unravel_index(best, [a.size for a in axes]))])
    # one polish sweep with the closed-form slot update
    indiv_search._sweep(indiv_search._slot_data(p), w)
    return w, snr(p.stats, p.Ps, w)


def brute_force_total(p: TotalPowerProblem, points: int = 100):
    """Dense scan of the total-power objective over the bracket.

    Returns ``(x, objective)`` for the best of ``points`` uniform grid
    values of the normalized source power.  Independent of ``total_power``:
    the bracket comes from the extreme eigenvalues c, d of the pencil
    (Q + rI, D + rI), r = sigma^2/P0, as x = sqrt(c)/(1+sqrt(c)), and at
    each x the relays spend (1-x) P0, so the best weights give
    (x P0/sigma^2) lambda_max(R, Q + (x D + r I)/(1-x)), evaluated through a
    Cholesky factor of the second matrix.  Where c <= n eps d, below what
    eigvalsh resolves (line of sight at large P0/sigma^2), it raises ConvergenceError.
    """
    points = check_scalar(points, name="points", kind="count")
    if points < 10:
        raise InputError("points must be >= 10")
    stats = check_type(p, TotalPowerProblem, name="p").stats
    r = stats.sigma2 / p.P0
    dis = 1.0 / np.sqrt(stats.D + r)
    ev = np.linalg.eigvalsh(dis[:, None] * (stats.Q + r * np.eye(stats.n)) * dis)
    tol = stats.n * np.finfo(float).eps * ev[-1]
    if not ev[0] > tol:
        raise ConvergenceError(
            f"the pencil's smallest eigenvalue {ev[0]:.3g} is below what eigvalsh resolves "
            f"(n eps lambda_max = {tol:.3g}): sigma^2/P0 is below Q's round-off")
    ev = np.sqrt(ev)
    xs = np.linspace(ev[0] / (1.0 + ev[0]), ev[-1] / (1.0 + ev[-1]), points)
    bump = (xs[:, None] * stats.D + r) / (1.0 - xs)[:, None]
    Li = np.linalg.inv(np.linalg.cholesky(stats.Q + bump[:, :, None] * np.eye(stats.n)))
    lam = np.linalg.eigvalsh(Li @ stats.R @ np.conj(np.swapaxes(Li, 1, 2)))[:, -1]
    vals = xs * p.P0 / stats.sigma2 * lam
    i = int(np.argmax(vals))
    return float(xs[i]), float(vals[i])
