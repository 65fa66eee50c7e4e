from collections import namedtuple

import numpy as np
import pytest
import scipy.linalg

from relaybeam import indiv_diag, indiv_search
from relaybeam.channel import ChannelStats, RicianParams, build_stats
from relaybeam.errors import ConvergenceError, InputError
from relaybeam.linalg import hermitian, symmetrize
from relaybeam.sdp import (_EXIT_CUT, _EXIT_GAP, _EXIT_MAX_N, _EXIT_RANK, _EXIT_STEPS, FEAS_TOL,
                           GAP_TOL, MAX_ITER, RANK_TOL, QcqpInstance, SdpSolution, range_eigh)
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem

MC_BATCH = 20000   # draws per monte_carlo_stats batch
PSD_TOL = 1e-9     # is_psd: lambda_min >= -PSD_TOL
# the arguments of indiv_search._solve_scalar_subproblem, CDM's slot update,
# by name; the first six and y are those of _subproblem_value
Slot = namedtuple("Slot", "a1 a2 b1 b2 c1 c2 beta")


def rand_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = scale * (A @ A.conj().T) / n
    return 0.5 * (H + H.conj().T)


def rand_pd(rng, n, scale=1.0, ridge=0.05):
    return rand_psd(rng, n, scale) + ridge * np.eye(n)


def rand_stats(rng, n, diagonal=False):
    if diagonal:
        R = np.diag(rng.uniform(0.1, 2.0, n)).astype(complex)
        Q = np.diag(rng.uniform(0.1, 2.0, n)).astype(complex)
    else:
        R = rand_pd(rng, n)
        Q = rand_pd(rng, n)
    D = rng.uniform(0.1, 2.0, n)
    return ChannelStats(D=D, R=R, Q=Q, sigma2=float(rng.uniform(0.5, 2.0)))


def rand_indiv_problem(rng, n, diagonal=False):
    stats = rand_stats(rng, n, diagonal=diagonal)
    return IndivPowerProblem(stats=stats, Ps=float(rng.uniform(0.5, 3.0)),
                             P=rng.uniform(0.5, 2.0, n))


def rand_total_problem(rng, n, diagonal=False):
    stats = rand_stats(rng, n, diagonal=diagonal)
    return TotalPowerProblem(stats=stats, P0=float(rng.uniform(2.0, 20.0)))


def identical_relays_problem(n, P0):
    """n relays with the same Rician parameters: lambda_min(G(x)) has
    repeated eigenvalues, so the gap reads 0 wherever the top one repeats."""
    params = RicianParams(f_mean=np.full(n, 0.7 + 0.2j), f_var=np.full(n, 0.8),
                          g_mean=np.full(n, -0.3 + 0.9j), g_var=np.full(n, 1.3))
    return TotalPowerProblem(stats=build_stats(params, 1.0), P0=P0)


def weak_rician_problem(n, P0, seed, mean_scale, var_lo, var_hi):
    """n Rician relays with CN(0, 1) mean gains scaled by ``mean_scale`` and
    per-link variances U(var_lo, var_hi); sigma^2 = 1.  Weak line of sight or
    strong scattering, where H's top eigenvalue need not dominate."""
    rng = np.random.default_rng(seed)

    def mean():
        return mean_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)

    params = RicianParams(f_mean=mean(), f_var=rng.uniform(var_lo, var_hi, n),
                          g_mean=mean(), g_var=rng.uniform(var_lo, var_hi, n))
    return TotalPowerProblem(stats=build_stats(params, 1.0), P0=P0)


def low_k_problem(K, n, seed):
    """n Rician relays with K-factor K, sigma^2 = 1: from rng [seed, n, 100 K],
    psi and then phi ~ U(0.5, 2), f_mean = sqrt(2 K psi) CN(n), then
    g_mean = sqrt(2 K phi) CN(n), then P0 = 10^U(-1, 3).  Scattering dominates
    at K = 0.01, where the secular pair cannot certify most evaluations;
    ``scenarios/total_lowk_n32.json`` is K = 0.01, n = 32, seed 20."""
    rng = np.random.default_rng([seed, n, round(100 * K)])
    psi, phi = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)

    def cn():
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)

    f_mean = np.sqrt(2 * K * psi) * cn()
    g_mean = np.sqrt(2 * K * phi) * cn()
    params = RicianParams(f_mean=f_mean, f_var=psi, g_mean=g_mean, g_var=phi)
    P0 = float(10.0 ** rng.uniform(-1.0, 3.0))
    return TotalPowerProblem(stats=build_stats(params, 1.0), P0=P0)


def matrix_built(p):
    """The same D, R and Q as matrices: ``build_s_pair`` gives the dense pair."""
    st = p.stats
    return TotalPowerProblem(stats=ChannelStats(D=st.D, R=st.R, Q=st.Q, sigma2=st.sigma2),
                             P0=p.P0)


def scan_snr(stats, P0, points=1001, zooms=2):
    """Independent dense scan of the best total-power SNR over x = Ps/P0.

    For fixed x the relays spend (1-x) P0 and the best weights give
    (x P0/sigma^2) lambda_max(R, Q + (x P0 D + sigma^2 I)/((1-x) P0)); the
    grid is refined ``zooms`` times around its best point.
    """
    xs = np.linspace(0.0, 1.0, points + 2)[1:-1]
    best = -np.inf
    for _ in range(zooms + 1):
        bump = (xs[:, None] * P0 * stats.D + stats.sigma2) / ((1.0 - xs)[:, None] * P0)
        Li = np.linalg.inv(np.linalg.cholesky(stats.Q + bump[:, :, None] * np.eye(stats.n)))
        lam = np.linalg.eigvalsh(Li @ stats.R @ np.conj(np.swapaxes(Li, 1, 2)))[:, -1]
        vals = xs * P0 / stats.sigma2 * lam
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], points)
    return best


def constraint_stack(prob):
    """The (n, n, n) stack of the QCQP constraint matrices A_k = Q + c_k
    e_k e_k^H of an individual-power problem, with c_k = (Ps D_kk +
    sigma^2)/P_k computed here: a reference independent of the library's
    (R, Q, c) form."""
    s = prob.stats
    c = (prob.Ps * s.D + s.sigma2) / prob.P
    A = np.empty((s.n, s.n, s.n), dtype=complex)
    for k in range(s.n):
        E = np.zeros((s.n, s.n))
        E[k, k] = 1.0
        A[k] = s.Q + c[k] * E
    return A


def stacked_relaxation(R, A):
    """Reference for ``sdp.solve_relaxation``: the same interior-point method
    (HKM direction, Mehrotra corrector, start, stop test, KKT exit and
    constants) on a generic (N, n, n) stack of PSD constraint matrices, with
    the Schur matrix Re Tr(A_k X A_j Z^-1) formed through the stack at
    O(N n^3 + N^2 n^2)."""
    A = np.asarray(A, dtype=complex)
    R = np.asarray(R, dtype=complex)
    N, n = A.shape[0], R.shape[0]

    def traces(X):
        return np.einsum("kab,ba->k", A, X).real

    def combine(y):
        return np.tensordot(y, A, 1)

    X = (0.5 / np.trace(A, axis1=1, axis2=2).real.max()) * np.eye(n, dtype=complex)
    s = 1.0 - traces(X)
    # dual-feasible start: y = (1 + 1/n) rho 1, with rho the spectral radius of
    # the pencil (R, sum_k A_k), then Z = sum_k y_k A_k - R at every iterate
    lam = scipy.linalg.eigvalsh(R, A.sum(axis=0))
    y = np.full(N, (1.0 + 1.0 / n) * max(lam[-1], -lam[0]) or 1.0)
    for it in range(MAX_ITER):
        rp = (1.0 - traces(X)) - s
        Z = combine(y) - R
        mu = (np.trace(Z @ X).real + y @ s) / (n + N)
        primal = np.trace(R @ X).real
        gap = y.sum() - primal
        if it and abs(gap) <= _EXIT_GAP * max(1.0, abs(primal)):
            sol = stacked_kkt_exit(R, A, X, y, s, it)
            if sol is not None:
                return sol
        if (np.abs(rp).max() <= FEAS_TOL
                and abs(gap) <= GAP_TOL * max(1.0, abs(primal))):
            break
        Zinv = symmetrize(np.linalg.inv(Z))
        XA = X @ A @ Zinv
        M = (A.reshape(N, -1) @ XA.transpose(0, 2, 1).reshape(N, -1).T).real
        M += np.diag(s / y)
        trAZ = traces(Zinv)
        w, U = np.linalg.eigh(np.stack([X, Z]))
        Pmh = (U / np.sqrt(np.maximum(w, 1e-300))[:, None, :]) @ U.conj().transpose(0, 2, 1)

        def directions(sig, C, cs):
            rhs = sig * mu * (trAZ + 1.0 / y) - 1.0 - traces(C) - cs / y
            dy = np.linalg.solve(M, rhs)
            dZ = combine(dy)
            dX = symmetrize(sig * mu * Zinv - X - X @ dZ @ Zinv - C)
            ds = (sig * mu - cs - y * s - s * dy) / y
            return dX, ds, dy, dZ

        def steps(dX, dZ, ds, dy, tau):
            lams = np.linalg.eigvalsh(Pmh @ np.stack([dX, dZ]) @ Pmh).min(axis=1)
            out = []
            for lam, v, dv in zip(lams, (s, y), (ds, dy)):
                a = 1.0 if lam >= 0 else min(1.0, -tau / lam)
                neg = dv < 0
                if neg.any():
                    a = min(a, float((-tau * v[neg] / dv[neg]).min()))
                out.append(a)
            return out

        dX, ds, dy, dZ = directions(0.0, np.zeros_like(X), 0.0)
        ap, ad = steps(dX, dZ, ds, dy, 1.0)
        mu_aff = (np.trace((Z + ad * dZ) @ (X + ap * dX)).real
                  + (y + ad * dy) @ (s + ap * ds)) / (n + N)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-4, 0.8))
        dX, ds, dy, dZ = directions(sigma, dX @ dZ @ Zinv, ds * dy)
        ap, ad = (0.98 * a for a in steps(dX, dZ, ds, dy, 0.99))
        X = symmetrize(X + ap * dX)
        s = s + ap * ds
        y = y + ad * dy
    else:
        raise ConvergenceError(f"reference IPM did not converge in {MAX_ITER} iterations")
    X = symmetrize(X)
    primal = float(np.trace(R @ X).real)
    return SdpSolution(X=X, dual_y=np.maximum(y, 0.0), primal_obj=primal,
                       dual_obj=float(y.sum()), gap=float(y.sum()) - primal,
                       rank_estimate=range_eigh(X)[0].size, iterations=it)


def stacked_kkt_exit(R, A, X, y, s, it):
    """``sdp._kkt_exit`` on the stack A: from X's top r factors V (r = 1 by
    the Frobenius test, else the eigenvalues above the cut, if r^2 <= |A|
    and n <= _EXIT_MAX_N), Newton steps on (sum_A y_k A_k - R) V = 0,
    (Tr(V^H A_k V) - 1)/2 = 0 bordered by the r^2 directions V S, S
    skew-Hermitian, then the same certificate, with Tr X <= N /
    lambda_min(sum_k A_k) (every Tr(A_k X) <= 1) in place of the relay
    form's sum_k 1/c_k, and the same retry with the caps V exceeds."""
    N, n = A.shape[0], R.shape[0]
    act = np.flatnonzero(y > s)
    m, yk = act.size, np.where(y > s, y, 0.0)
    one = np.vdot(X, X).real >= _EXIT_RANK * np.trace(X).real ** 2
    if not (one or 4 <= m and n <= _EXIT_MAX_N):
        return None

    def real_columns(M):
        # the real unknowns of an n x r complex M: [Re M_j, Im M_j] for each column j
        return np.concatenate([np.concatenate([col.real, col.imag]) for col in M.T])

    try:
        with np.errstate(all="ignore"):
            lam, U = np.linalg.eigh(X)
            r = 1 if one else int((lam > _EXIT_CUT * lam[-1]).sum())
            if not (one or 2 <= r and r * r <= m):
                return None
            V = U[:, -r:] * np.sqrt(lam[-r:])
            basis = []
            for a in range(r):
                for b in range(r):
                    S = np.zeros((r, r), dtype=complex)
                    S[a, b], S[b, a] = (1j, 1j) if a >= b else (1.0, -1.0)
                    basis.append(S)
            for _ in range(_EXIT_STEPS):
                Z = np.tensordot(yk, A, 1) - R
                E = np.block([[Z.real, -Z.imag], [Z.imag, Z.real]])
                B = np.array([real_columns(A[k] @ V) for k in act]
                             + [real_columns(V @ S) for S in basis]).T
                K = np.block([[scipy.linalg.block_diag(*[E] * r), B],
                              [B.T, np.zeros((m + r * r, m + r * r))]])
                caps = np.array([np.trace(V.conj().T @ A[k] @ V).real for k in act])
                d = np.linalg.solve(K, np.concatenate([-real_columns(Z @ V), 0.5 * (1.0 - caps),
                                                       np.zeros(r * r)]))
                D = d[:2 * n * r].reshape(r, 2, n)
                V = V + (D[:, 0] + 1j * D[:, 1]).T
                yk[act] += d[2 * n * r:2 * n * r + m]
            vals = np.einsum("aj,kab,bj->k", V.conj(), A, V).real
            peak = vals.max()
            lam_v = np.linalg.eigvalsh(V.conj().T @ V)
            if not (np.isfinite(yk).all() and yk.min() >= 0 and peak > 0
                    and lam_v[0] > RANK_TOL * lam_v[-1]):
                return None
            V = V / np.sqrt(peak)
            lam_z = np.linalg.eigvalsh(np.tensordot(yk, A, 1) - R)[0]
            trace_cap = N / np.linalg.eigvalsh(A.sum(axis=0))[0]
    except np.linalg.LinAlgError:
        return None
    bound = yk.sum() + max(0.0, -lam_z) * trace_cap
    primal = float(np.trace(V.conj().T @ R @ V).real)
    if not bound - primal <= GAP_TOL * bound:
        out = (vals > 1.0) & ~(y > s)     # the exceeded caps outside A join it
        return stacked_kkt_exit(R, A, X, y, np.where(out, -np.inf, s), it) if out.any() else None
    return SdpSolution(X=V @ V.conj().T, dual_y=yk, primal_obj=primal,
                       dual_obj=float(bound), gap=float(bound - primal), rank_estimate=r,
                       iterations=it, factor=V)


def stacked_residuals(R, A, sol):
    """(primal_feas, dual_feas, comp_slack) of ``sol`` against the stack A,
    as ``sdp.dual_certificate_residuals`` defines them."""
    A = np.asarray(A, dtype=complex)
    X, y = sol.X, sol.dual_y
    vals = np.array([np.trace(Ak @ X).real for Ak in A])
    primal_feas = max((vals - 1.0).max(), -min(np.linalg.eigvalsh(X)[0], 0.0), 0.0)
    Zbar = symmetrize(np.tensordot(y, A, 1) - R)
    comp = abs(np.trace(Zbar @ X).real) + float(y @ (1.0 - vals))
    return primal_feas, float(np.linalg.eigvalsh(Zbar)[0]), comp


def grid_maximum(s, radial=400, angular=720):
    """Largest ratio of the scalar subproblem ``s`` (a ``Slot``) on a polar grid of the
    disk |y| <= beta, and the grid point that attains it."""
    rr = np.linspace(0.0, s.beta, radial)
    th = np.linspace(0.0, 2 * np.pi, angular, endpoint=False)
    Y = rr[:, None] * np.exp(1j * th[None, :])
    num = s.a1 * np.abs(Y) ** 2 + 2 * np.real(s.b1 * Y) + s.c1
    den = s.a2 * np.abs(Y) ** 2 + 2 * np.real(s.b2 * Y) + s.c2
    vals = num / den
    i = np.unravel_index(np.argmax(vals), vals.shape)
    return float(vals[i]), Y[i]


def loose_cap_problem(seed, n, r_scale=1.0, q_scale=1.0):
    """Wishart R then Q from ``default_rng([seed, n])`` under caps so loose
    that every c_k = (Ps D_kk + sigma^2)/P_k = 2/2e8 = 1e-8: the n
    constraints A_k = Q + c_k e_k e_k^H are nearly parallel."""
    rng = np.random.default_rng([seed, n])
    R, Q = (A @ A.conj().T / n for A in
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)))
    return QcqpInstance(R=r_scale * R, Q=q_scale * Q, c=np.full(n, 1e-8))


def badly_scaled_problem(seed):
    """Per-relay caps on Rician statistics drawn over many decades, with rng
    [seed, 46]: means 10^U(-4, 2) CN(n), variances 10^U(-8, 4), a fifth of
    them zero, sigma^2 10^U(-6, 6), Ps 10^U(-4, 8) and caps 10^U(-4, 6)."""
    rng = np.random.default_rng([seed, 46])
    n = int(rng.integers(2, 20))

    def link():
        scale = 10.0 ** rng.uniform(-4, 2)
        mean = scale * ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0))
        var = 10.0 ** rng.uniform(-8, 4, n)
        var[rng.uniform(size=n) <= 0.2] = 0.0
        return mean, var
    (f_mean, f_var), (g_mean, g_var) = link(), link()
    stats = build_stats(RicianParams(f_mean=f_mean, f_var=f_var, g_mean=g_mean, g_var=g_var),
                        10.0 ** rng.uniform(-6, 6))
    return IndivPowerProblem(stats=stats, Ps=10.0 ** rng.uniform(-4, 8),
                             P=10.0 ** rng.uniform(-4, 6, n))


def break_stacked_kernel(monkeypatch, name, after=0):
    """Make ``np.linalg.<name>`` raise LinAlgError on stacked (batch) input
    after ``after`` such calls; 2-D calls run as usual."""
    real, calls = getattr(np.linalg, name), []

    def broken(a, *args):
        if np.ndim(a) == 3:
            calls.append(name)
            if len(calls) > after:
                raise np.linalg.LinAlgError(f"{name} forced to fail")
        return real(a, *args)
    monkeypatch.setattr(np.linalg, name, broken)


def degenerate_qcqp_instance(rng, n, inactive=False):
    """An individual-power instance whose SDP relaxation has a non-unique
    optimal face: R is a nonnegative combination sum_k y_k A_k of the
    constraint matrices, so every feasible X on which the caps with y_k > 0
    are active is optimal and the interior-point limit has rank >= 2.
    Every y_k is positive, unless ``inactive``, which sets one random y_j
    to 0 so that cap j may stay slack at the optimum."""
    from relaybeam.indiv_qcqp import build_qcqp
    Q = rand_psd(rng, n)
    D = rng.uniform(0.1, 2.0, n)
    Ps = float(rng.uniform(0.5, 2.0))
    sigma2 = float(rng.uniform(0.5, 2.0))
    P = rng.uniform(0.5, 2.0, n)
    coeffs = (Ps * D + sigma2) / P
    y = rng.uniform(0.3, 1.5, n)
    if inactive:
        y[rng.integers(n)] = 0.0
    R = y.sum() * Q + np.diag(y * coeffs)
    stats = ChannelStats(D=D, R=R, Q=Q, sigma2=sigma2)
    prob = IndivPowerProblem(stats=stats, Ps=Ps, P=P)
    return prob, build_qcqp(prob)


def is_psd(H) -> bool:
    """True iff lambda_min(H) >= -PSD_TOL."""
    H = hermitian(H)
    return bool(np.linalg.eigvalsh(H)[0] >= -PSD_TOL)


def phi_value(z, p):
    """phi_p(z) of the p-norm route from the slot powers |u_k|^2 of z = [Re u; Im u]."""
    n = z.size // 2
    return indiv_search._phi(z[:n] ** 2 + z[n:] ** 2, p)


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


def monte_carlo_stats(p, samples: int, seed: int):
    """Empirical (D, R, Q) of the Rician parameters ``p`` from circularly
    symmetric Gaussian draws, the check on ``build_stats``'s closed forms.

    Deterministic given ``seed``.  Returns ``(D_hat, R_hat, Q_hat)``.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = p.n
    D_acc = np.zeros(n)
    R_acc = np.zeros((n, n), dtype=complex)
    Q_acc = np.zeros((n, n), dtype=complex)
    done = 0
    sf = np.sqrt(p.f_var)
    sg = np.sqrt(p.g_var)
    while done < samples:
        b = min(MC_BATCH, samples - done)
        ft = (rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))) / np.sqrt(2)
        gt = (rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))) / np.sqrt(2)
        f = p.f_mean + sf * ft
        g = p.g_mean + sg * gt
        h = f * g
        D_acc += (np.abs(f) ** 2).sum(axis=0)
        R_acc += h.conj().T @ h
        Q_acc += g.conj().T @ g
        done += b
    # accumulators hold sum of conj-outer products transposed; fix orientation
    R_hat = (R_acc / samples).conj()
    Q_hat = (Q_acc / samples).conj()
    return D_acc / samples, symmetrize(R_hat), symmetrize(Q_hat)


def extract_coefficients(p, w, k: int):
    """The seven numbers (a1, a2, b1, b2, c1, c2, beta) of the scalar
    subproblem of the SNR ratio as a function of w_k alone, as coordinate
    descent forms them for slot k from R w, Q w and the full forms.

    Numerator coefficients come from R (a1 = R_kk, b1 from R's k-th
    column against the frozen entries, c1 the frozen R-form) and the
    denominator from Q with the +1 noise term in c2.
    """
    w = np.asarray(w, dtype=complex).ravel()
    if not 0 <= k < p.n:
        raise InputError(f"slot index {k} out of range for n={p.n}")
    cols, a1s, a2s, caps = indiv_search._slot_data(p)
    P, wRw, wQw = indiv_search._products(cols, w)
    (rw, qw), a1, a2, wk = P[k].tolist(), a1s[k], a2s[k], complex(w[k])
    m = abs(wk) ** 2
    return Slot(a1, a2, (rw - a1 * wk).conjugate(), (qw - a2 * wk).conjugate(),
                wRw - 2.0 * (wk.conjugate() * rw).real + a1 * m,
                1.0 + wQw - 2.0 * (wk.conjugate() * qw).real + a2 * m, caps[k])


def dinkelbach_F(p, t: float) -> float:
    """Dinkelbach's auxiliary function F(t) of a diagonal per-relay problem
    (see ``relaybeam.indiv_diag``), whose unique root is the optimal SNR.
    Raises InputError when R or Q is not diagonal."""
    r, q, coef = indiv_diag._diag_parts(p)
    margin = (p.Ps / p.stats.sigma2) * r - t * q
    return -t + float((coef * np.maximum(margin, 0.0)).sum())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
