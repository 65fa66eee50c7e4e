import numpy as np
import pytest

from relaybeam import indiv_diag, indiv_search
from relaybeam.channel import ChannelStats
from relaybeam.errors import ConvergenceError, InputError
from relaybeam.linalg import hermitian, symmetrize
from relaybeam.sdp import (_EXIT_GAP, _EXIT_RANK, _EXIT_STEPS, FEAS_TOL, GAP_TOL, MAX_ITER,
                           QcqpInstance, SdpSolution, range_eigh)
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem

MC_BATCH = 20000   # draws per monte_carlo_stats batch
PSD_TOL = 1e-9     # is_psd: lambda_min >= -PSD_TOL


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
    (HKM direction, Mehrotra corrector, start, stop test, rank-one exit and
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
    y = np.ones(N)
    Z = (np.linalg.eigvalsh(R).max() + 1.0) * np.eye(n, dtype=complex)
    for it in range(MAX_ITER):
        rp = (1.0 - traces(X)) - s
        Rd = Z - (combine(y) - R)
        mu = (np.trace(Z @ X).real + y @ s) / (n + N)
        primal = np.trace(R @ X).real
        gap = y.sum() - primal
        if (it and abs(gap) <= _EXIT_GAP * max(1.0, abs(primal))
                and np.vdot(X, X).real >= _EXIT_RANK * np.trace(X).real ** 2):
            sol = stacked_rank_one_exit(R, A, X, y, s, it)
            if sol is not None:
                return sol
        if (max(np.abs(rp).max(), np.linalg.norm(Rd)) <= FEAS_TOL
                and abs(gap) <= GAP_TOL * max(1.0, abs(primal))):
            break
        Zinv = symmetrize(np.linalg.inv(Z))
        XA = X @ A @ Zinv
        M = (A.reshape(N, -1) @ XA.transpose(0, 2, 1).reshape(N, -1).T).real
        M += np.diag(s / y)
        trAZ = traces(Zinv)
        trAXRdZ = traces(X @ Rd @ Zinv)
        w, U = np.linalg.eigh(np.stack([X, Z]))
        Pmh = (U / np.sqrt(np.maximum(w, 1e-300))[:, None, :]) @ U.conj().transpose(0, 2, 1)

        def directions(sig, C, cs):
            rhs = sig * mu * (trAZ + 1.0 / y) - 1.0 + trAXRdZ - traces(C) - cs / y
            dy = np.linalg.solve(M, rhs)
            dZ = combine(dy) - Rd
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
        Z = symmetrize(Z + ad * dZ)
    else:
        raise ConvergenceError(f"reference IPM did not converge in {MAX_ITER} iterations")
    X = symmetrize(X)
    primal = float(np.trace(R @ X).real)
    return SdpSolution(X=X, dual_y=np.maximum(y, 0.0), primal_obj=primal,
                       dual_obj=float(y.sum()), gap=float(y.sum()) - primal,
                       rank_estimate=range_eigh(X)[0].size, iterations=it)


def stacked_rank_one_exit(R, A, X, y, s, it):
    """``sdp._rank_one_exit`` on the stack A: Newton steps on (sum_A y_k A_k
    - R) w = 0, (w^H A_k w - 1)/2 = 0 bordered by i w from X's top factor,
    then the same certificate, with Tr X <= N / lambda_min(sum_k A_k) (every
    Tr(A_k X) <= 1) in place of the relay form's sum_k 1/c_k."""
    N, n = A.shape[0], R.shape[0]
    act = np.flatnonzero(y > s)
    m, yk = act.size, np.where(y > s, y, 0.0)
    try:
        with np.errstate(all="ignore"):
            lam, U = np.linalg.eigh(X)
            w = U[:, -1] * np.sqrt(lam[-1])
            for _ in range(_EXIT_STEPS):
                Z = np.tensordot(yk, A, 1) - R
                G = (A[act] @ w).T
                # real unknowns [Re dw, Im dw, dy_A, t]; dw enters as Z dw,
                # i.e. Z Re dw + i Z Im dw, and t along the phase i w
                top = np.hstack([Z, 1j * Z, G, 1j * w[:, None]])
                top = np.vstack([top.real, top.imag])
                K = np.vstack([top, np.hstack([top[:, 2 * n:].T, np.zeros((m + 1, m + 1))])])
                Zw = Z @ w
                caps = (w.conj() @ G).real
                d = np.linalg.solve(K, np.concatenate([-Zw.real, -Zw.imag,
                                                       0.5 * (1.0 - caps), [0.0]]))
                w = w + d[:n] + 1j * d[n:2 * n]
                yk[act] += d[2 * n:-1]
            peak = np.einsum("a,kab,b->k", w.conj(), A, w).real.max()
            if not (np.isfinite(yk).all() and yk.min() >= 0 and peak > 0):
                return None
            w = w / np.sqrt(peak)
            lam_z = np.linalg.eigvalsh(np.tensordot(yk, A, 1) - R)[0]
            trace_cap = N / np.linalg.eigvalsh(A.sum(axis=0))[0]
    except np.linalg.LinAlgError:
        return None
    bound = yk.sum() + max(0.0, -lam_z) * trace_cap
    primal = float(np.vdot(w, R @ w).real)
    if not bound - primal <= GAP_TOL * bound:
        return None
    return SdpSolution(X=np.outer(w, w.conj()), dual_y=yk, primal_obj=primal,
                       dual_obj=float(bound), gap=float(bound - primal), rank_estimate=1,
                       iterations=it)


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
    """Largest ratio of the scalar subproblem ``s`` on a polar grid of the
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
    """The ``ScalarFractionalSubproblem`` of the SNR ratio as a function of
    w_k alone, built as coordinate descent builds it for slot k.

    Numerator coefficients come from R (a1 = R_kk, b1 from R's k-th
    column against the frozen entries, c1 the frozen R-form) and the
    denominator from Q with the +1 noise term in c2.
    """
    w = np.asarray(w, dtype=complex).ravel()
    if not 0 <= k < p.n:
        raise InputError(f"slot index {k} out of range for n={p.n}")
    cols, a1s, a2s, caps = indiv_search._slot_data(p)
    P, wRw, wQw = indiv_search._products(cols, w)
    return indiv_search._slot_coefficients(a1s[k], a2s[k], caps[k], complex(w[k]),
                                           *P[k].tolist(), wRw, wQw)


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
