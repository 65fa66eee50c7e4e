"""Homogeneous QCQP route for general R, Q under per-relay caps.

The per-relay problem is equivalent (up to scaling) to

    max w^H R w   s.t.   w^H Q w + c_k |w_k|^2 <= 1   (k = 1..n),

with c_k = (Ps D_kk + sigma^2)/P_k, so every constraint matrix is
A_k = Q + c_k e_k e_k^H.  A ``QcqpInstance`` (defined with the relaxation
in ``sdp``) keeps that structure as (R, Q, c), and no A_k is ever formed.
This module drives the SDP relaxation, extracts rank-one solutions
(exactly for n <= 3, by rank reduction that holds every cap: at most n <= 3
constraints, read with ``QcqpInstance.traces``, cannot pin the r^2 >= 4 real
directions V H V^H of a rank-r >= 2 X = V V^H, H over the Hermitian basis
-i S of the KKT exit's ``_gauge_basis``, so each round lowers the rank and
at most two rounds are needed), runs the Gaussian-random-procedure
baseline, and maps QCQP points back to budget-feasible weight vectors.
``solve`` is the one per-relay route, which the CLI's ``solve`` and
``reproduce`` and library callers all run.
"""

from __future__ import annotations

import numpy as np

from . import indiv_diag, indiv_search
from .channel import BeamformingSolution
from .errors import ConvergenceError, InputError
from .linalg import check_scalar, check_type, check_vector, hermitian, qform, symmetrize
from .problems import IndivPowerProblem
from .sdp import QcqpInstance, SdpSolution, _gauge_basis, range_eigh, solve_relaxation

FALLBACKS = ("cdm", "pnorm")     # the searches the sdp route falls back to
ROUTES = ("auto", "indiv-diag", "sdp", *FALLBACKS, "grp")
# solve's options and the kind of each value, which cli.parse_scenario reads too (see cli._field)
OPTIONS = {"samples": "count", "eps": "positive", "p": "count", "w0": "vector",
           "fallback": FALLBACKS}

_GRP_CHUNK = 8192   # GRP's first chunk holds 1/r of it; later ones 2/r of it, or 2^15 at rank two


def build_qcqp(p: IndivPowerProblem) -> QcqpInstance:
    p = check_type(p, IndivPowerProblem, name="p")
    return QcqpInstance(R=p.stats.R, Q=p.stats.Q, c=p.c)


def qcqp_objective(q: QcqpInstance, w) -> float:
    """w^H R w / max_k (w^H Q w + c_k |w_k|^2): the QCQP value of w's ray."""
    q = check_type(q, QcqpInstance, name="q")
    w = check_vector(w, name="w", n=q.n)
    return qform(q.R, w) / float(q.constraint_values(w).max())


def rescale_to_original(w_qcqp, q: QcqpInstance, p: IndivPowerProblem) -> BeamformingSolution:
    """Map a point of p's own QCQP q back to the per-relay-cap problem p.

    eta = max_k c_k |w_k|^2; w/sqrt(eta) is feasible with at least one cap
    active (the optimum always saturates some relay).
    """
    p = check_type(p, IndivPowerProblem, name="p")
    _check_poses(q, p, "q")
    w = check_vector(w_qcqp, name="w", n=q.n)
    if not np.abs(w).max() > 0:
        raise InputError("cannot rescale the zero vector")
    eta = float((q.c * np.abs(w) ** 2).max())
    return p.solution(w / np.sqrt(eta))


def _check_poses(q: QcqpInstance, p: IndivPowerProblem, name: str) -> QcqpInstance:
    """q if it is a QcqpInstance of p's (R, Q, c): its points hold p's caps; else an InputError."""
    check_type(q, QcqpInstance, name=name)
    if not (np.array_equal(q.R, p.stats.R) and np.array_equal(q.Q, p.stats.Q)
            and np.array_equal(q.c, p.c)):
        raise InputError(f"{name} does not pose p: its (R, Q, c) is not p's")
    return q


def solve_via_sdp(p: IndivPowerProblem):
    """Solve p's relaxation; return (qcqp_instance, sdp_solution, w or None),
    where w is ``_rank_one(sdp_solution)``."""
    sol = solve_relaxation(build_qcqp(p))
    return sol.q, sol, _rank_one(sol)


def _rank_one(sol: SdpSolution):
    """The factor w of a (numerically) rank-one X = w w^H, optimal for the QCQP: the exit's,
    else sqrt(lambda_max) times X's top eigenvector; None above rank one."""
    if sol.rank_estimate == 1:
        return _top_factor(*range_eigh(sol.X)) if sol.factor is None else sol.factor[:, 0]
    return None


def solve(p: IndivPowerProblem, solver: str = "auto", options: dict | None = None,
          seed: int = 0, relaxation: SdpSolution | None = None):
    """Run the route ``solver`` of ``ROUTES`` with solver ``options`` keyed by
    ``OPTIONS`` (a None value is absent); returns ``(solution, metadata, trace
    or None)``.  ``auto`` is ``indiv-diag`` for diagonal statistics, else
    ``sdp``: the relaxation's rank-one point, else its rank-one decomposition
    (n <= 3), else the ``fallback`` search (``cdm`` or ``pnorm``) from X's top
    factor.  ``sdp`` and ``grp`` solve p's relaxation unless given it as
    ``relaxation``, an ``SdpSolution`` whose ``q`` poses p (such as
    ``solve_via_sdp(p)[1]``); its w is read as from a relaxation solved here."""
    if not (isinstance(solver, str) and solver in ROUTES):
        raise InputError(f"unknown per-relay solver {solver!r}; choose one of {ROUTES}")
    options = {} if options is None else options
    if not isinstance(options, dict):
        raise InputError(f"options must be a dict or None, got {options!r}")
    p = check_type(p, IndivPowerProblem, name="p")
    # the seed and every option's value are checked here, whatever the route reads
    seed = check_scalar(seed, name="seed", kind="seed")
    for key, value in options.items():
        kind = OPTIONS.get(key)
        if kind is None:
            raise InputError(f"unknown option {key!r}; known options: {', '.join(OPTIONS)}")
        if value is None:       # an option whose value is None is absent
            continue
        if isinstance(kind, tuple):
            if not (isinstance(value, str) and value in kind):
                raise InputError(f"unknown {key} {value!r}; choose one of {kind}")
        elif kind == "vector":
            check_vector(value, name=key, n=p.n)
        else:
            check_scalar(value, name=key, kind=kind)
    options = {key: value for key, value in options.items() if value is not None}
    if solver == "auto":
        solver = "indiv-diag" if p.stats.is_diagonal() else "sdp"
    meta = {"solver": solver}
    if solver == "indiv-diag":
        return indiv_diag.solve_diagonal(p), meta, None
    start = options.get("w0")
    if solver in ("sdp", "grp"):
        if relaxation is None:
            q, sdp_sol, w = solve_via_sdp(p)
        else:
            sdp_sol = check_type(relaxation, SdpSolution, name="relaxation")
            hermitian(sdp_sol.X, name="the relaxation's X", n=p.n)
            q, w = _check_poses(sdp_sol.q, p, "the relaxation's q"), _rank_one(sdp_sol)
        meta.update(sdp_obj=sdp_sol.primal_obj, sdp_gap=sdp_sol.gap,
                    dual_y=sdp_sol.dual_y.tolist(),
                    rank_estimate=sdp_sol.rank_estimate, iterations=sdp_sol.iterations)
        if solver == "grp":
            meta["samples"] = options.get("samples", 10 ** 6)
            w = grp_extract(sdp_sol.X, q, meta["samples"], seed)
        elif w is None and p.n <= 3:
            meta["fallback"] = "rank-one-decomposition"
            w = rank_one_decompose(sdp_sol.X, q)
        if w is not None:
            return rescale_to_original(w, q, p), meta, None
        solver = meta["fallback"] = options.get("fallback", "cdm")
        start = _top_factor(*range_eigh(sdp_sol.X))
    if solver == "cdm":
        sol, trace = indiv_search.coordinate_descent(
            p, np.ones(p.n) if start is None else start, eps=options.get("eps", 1e-3))
        meta["sweeps"] = int(trace.rows[-1][0]) + 1 if len(trace) else 0
        return sol, meta, trace
    # pnorm
    p_val = options.get("p", indiv_search.choose_p(p.n))
    sol, trace, more = indiv_search.augmented_lagrangian_solve(p, p_val, w0=start)
    meta.update(p=p_val, **more)
    return sol, meta, trace


def rank_one_decompose(X, q: QcqpInstance) -> np.ndarray:
    """Extract an objective-preserving feasible rank-one solution (n <= 3).

    Rank reduction that holds every constraint: write X = V V^H with r >= 2
    columns.  The H_l = -i S_l over the r^2 skew-Hermitian S_l of the exit's
    ``_gauge_basis(r)`` are a basis of the Hermitian r x r matrices, and row
    k of the n x r^2 system is ``q.traces(V H_l V^H)`` = Tr(A_k V H_l V^H)
    over l.  Its last right singular vector v is a null vector (n <= 3 < 4
    <= r^2), so M = sum_l v_l H_l is a nonzero Hermitian matrix with
    Tr(A_k V M V^H) = 0 for every k; scaled by whichever of lambda_max(M)
    and lambda_min(M) is larger in magnitude, I - M is PSD and singular, and
    X <- V (I - M) V^H.  Every constraint value is unchanged, X stays PSD
    and its rank drops, so r <= 3 ends in at most two rounds.  The range of
    X only shrinks, and the dual slack Z = sum y_k A_k - R vanishes on it
    (complementary slackness), so the objective Tr(R X) = sum y_k Tr(A_k X)
    is unchanged too.  A numerically zero X is an InputError, as in GRP.
    """
    q = check_type(q, QcqpInstance, name="q")
    if q.n > 3:
        raise InputError(
            "rank-one decomposition is only guaranteed for n <= 3; "
            "use coordinate descent or the p-norm solver")
    lam, U = range_eigh(hermitian(X, name="X", n=q.n))
    while lam.size >= 2:
        V = U * np.sqrt(lam)
        H = -1j * _gauge_basis(lam.size)
        rows = np.array([q.traces(V @ Hl @ V.conj().T) for Hl in H]).T
        M = np.tensordot(np.linalg.svd(rows)[2][-1], H, 1)
        mu = np.linalg.eigvalsh(M)
        M /= mu[-1] if mu[-1] >= -mu[0] else mu[0]
        lam, U = range_eigh(symmetrize(V @ (np.eye(lam.size) - M) @ V.conj().T))
    if lam.size == 0:
        raise InputError("X is numerically zero; nothing to sample")
    v = _top_factor(lam, U)
    j = int(np.argmax(np.abs(v)))
    return v * (np.abs(v[j]) / v[j])


def grp_extract(X, q: QcqpInstance, samples: int, seed: int) -> np.ndarray:
    """Gaussian random procedure: draw w ~ CN(0, X), rescale each sample to
    the feasible boundary, keep the best objective.

    One SFC64 stream seeded with ``SeedSequence(seed)`` draws every sample,
    so w is a pure function of (X, q, samples, seed) and growing ``samples``
    only extends the stream (prefix property).  A sample is w = L zeta, L =
    U_r sqrt(lambda_r) over the eigenpairs ``range_eigh`` keeps and zeta ~
    CN(0, I_r), whose ray alone sets its value and takes r - 1 64-bit words
    (``_rays``): Dirichlet(1, ..., 1) shares as spacings of the sorted high
    32 bits (Devroye 1986, ch. V), float32 phasors of zeta_2 ... zeta_r from
    the low 32 bits.  At rank one all samples tie: one is drawn, from no
    word.  An (n + 2) x r^2 matrix C on the real features F of zeta zeta^H
    (``_grp_features``, in units of 2^-32) gives w^H R w, w^H Q w and each
    c_k |w_k|^2, in float64 as the sums C_j0 F_0 + C_j1 F_1 + ... in order,
    so a sample's value does not depend on the samples beside it.  A sample
    whose float64 w^H Q w + max_k c_k |w_k|^2 is not positive (round-off
    near null spaces) has no value; ConvergenceError is raised when none has
    one.  w is the float64 first maximum of the values.

    The first chunk (``_GRP_CHUNK`` / r samples) is evaluated whole; later
    ones only where two exact filters leave a sample that can exceed the
    best value b > 0 so far: at rank two the band of shares of
    ``_bloch_band``, then a float32 screen, with C's R row and Q-and-caps
    rows each scaled by a power of two (no scale overflows; R -> 4^j R
    leaves it unchanged) and by 2^-32.  With u = eps32 / 2, |F_l| <= 1 +
    O(u) (the shares sum to one, |P_ij| <= sqrt(t_i t_j) |p_i p_j|); a share
    is rounded once, float32 cos and sin (2 ulps) give |p_j|^2 = 1 within 6
    u, and cross terms (at most 1/2) err by at most 4 u (P_1j) and 11 u
    (P_ij), so a float32 feature is within 4 eps32 of its float64 one.  With
    C's own rounding and Higham's dot-product bound (Accuracy and Stability,
    3.1), rows V_j are within a_j = (r^2 + 16) eps32 sum_l |C_jl| + 2^-100
    of their float64 values.  The screen keeps V_0 >= thr D - off, D = V_1 +
    max_k V_k, off = a_0 + thr (a_1 + max_k a_k), thr = b rounded down:
    where the bounded denominator D - a_1 - max_k a_k is not positive, thr D
    - off <= -a_0 keeps each nonnegative R form, and a negative R form over
    a positive denominator has a negative value.
    """
    samples = check_scalar(samples, name="samples", kind="count")
    seed = check_scalar(seed, name="seed", kind="seed")
    q = check_type(q, QcqpInstance, name="q")
    lam, U = range_eigh(hermitian(X, name="X", n=q.n))
    if lam.size == 0:
        raise InputError("X is numerically zero; nothing to sample")
    L, r = U * np.sqrt(lam), lam.size
    samples = 1 if r == 1 else samples      # at rank one every sample lies on L's ray: all tie
    C = _grp_forms(L, q)
    first, step = _GRP_CHUNK // r, 2 ** 15 if r == 2 else 2 * _GRP_CHUNK // r
    screen = samples > first    # a later chunk runs: build the float32 screen
    if screen:
        s0, s1 = np.ldexp(1.0, -np.frexp([np.abs(C[0]).max(), np.abs(C[1:]).max()])[1])
        Cs = np.vstack([s0 * C[:1], s1 * C[1:]])
        a = ((r * r + 16) * 2.0 ** -23 * np.abs(Cs).sum(axis=1) + 2.0 ** -100).astype(np.float32)
        a0, a_den = a[0], a[1] + a[2:].max()
        C32 = (2.0 ** -32 * np.vstack([Cs[:1], Cs[1] + Cs[2:]])).astype(np.float32)  # V_1 + V_k
        Vb = np.empty((q.n + 1, step), np.float32)    # reused: no page faults a chunk
    best_val, best_w, band = -np.inf, None, None
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    h = r * (r - 1) // 2
    for m in np.diff([0, *range(first, samples, step), samples]).tolist():
        words = rng.bit_generator.random_raw(m * (r - 1))
        if band is not None:    # rank two: the words outside the band cannot reach best_val
            words -= band[0]    # in place: a temporary of the chunk's size costs page faults
            words = words.compress(words < band[1]) + band[0]
            m = words.size
        k, cos, sin = _rays(words, m, r)
        if best_val <= 0:   # no bound yet: every sample is evaluated in float64
            idx = np.arange(m)
        else:
            V = np.matmul(C32, _grp_features(k, cos, sin, np.float32), out=Vb[:, :m])
            D = V[1:].max(axis=0)
            idx = (V[0] >= thr * D - off).nonzero()[0]
            if idx.size == 0:
                continue
        Fi = _grp_features(k.take(idx, 1), cos.take(idx, 1), sin.take(idx, 1), float)
        V = C[:, :1] * Fi[0]    # C @ Fi term by term: a BLAS kernel's sums depend on the batch
        for j in range(1, r * r):
            V += C[:, j:j + 1] * Fi[j]
        worst = V[1] + V[2:].max(axis=0)
        vals = np.divide(V[0], worst, out=np.full(worst.shape, -np.inf), where=worst > 0)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            # zeta, to scale, is (F_0, P_12, ..., P_1r) / sqrt(F_0), with F_0 > 0
            zeta = np.append(Fi[0, i], Fi[r:2 * r - 1, i] + 1j * Fi[r + h:r + h + r - 1, i])
            best_w = L @ (zeta / np.sqrt(Fi[0, i])) / np.sqrt(worst[i])
            if screen and best_val > 0:     # the bars of the band and the screen
                band = _bloch_band(C, best_val) if r == 2 else None
                x = min(best_val * s0 / s1 * (1 - 2.0 ** -19), 2.0 ** 100)
                thr = np.nextafter(np.float32(x), np.float32(0))    # x rounded down to float32
                off = a0 + thr * a_den
    if best_w is None:
        raise ConvergenceError("GRP: no sample has a positive w^H Q w + max_k c_k |w_k|^2")
    return best_w


@np.errstate(divide="ignore", over="ignore", invalid="ignore")   # a NaN candidate fails the test
def _bloch_band(C, best):
    """The rank-two words whose samples can exceed the float64 value ``best`` > 0, as (lo,
    width) with word - lo < width (mod 2^64), or None for every word.

    C's rows are affine in the Bloch vector v = (2 s cos phi, 2 s sin phi, 1 - 2 t), s^2 = t
    (1 - t), of t = k 2^-32 and phi = 2 pi u 2^-32 (high word k, low word u), and the float64
    features lie within 2^-20 2^32 of v's: to exceed best, v lies in each cap g_k(v) = N(v) -
    best D_k(v) + 2^-16 (S_0 + best (S_1 + S_k)) >= 0 (rows N of R, D_k of Q plus cap k, S_j =
    sum_l |C_jl|).  Their common part has its extreme z at the poles, circle tops, bottoms and
    crossings: where two of the planes of the circles g_k = 0, of the meridians through the
    caps' axes, x = 0 and y = 0 meet the sphere.  The band spans the z of those that each cap
    admits to 2^-16 (|h_k| + |grad g_k|), plus 2^-16 in t, which holds their rounding where
    planes meet at 2^-5 rad or more; a cap nearer an earlier one's plane is left out.
    """
    S, n = np.abs(C).sum(axis=1), len(C) - 2
    A = C[0] - best * (C[1] + C[2:])
    B = np.stack([A[:, 2], A[:, 3], A[:, 0] - A[:, 1]], axis=1) / 2     # g_k(v) = B_k . v - h_k
    h = -(A[:, 0] + A[:, 1]) / 2 - 2.0 ** -16 * (S[0] + best * (S[1] + S[2:]))
    # the planes P v = h of the circles, of the meridians through the caps' axes, x = 0, y = 0
    P, h = np.vstack([B, B[:, [1, 0, 2]] * [1, -1, 0], np.eye(3)[:2]]), np.r_[h, [0] * (n + 2)]
    G = (P[:, None] * P).sum(axis=2)
    g = G.diagonal()
    s2 = 1 - G * G / (g[:, None] * g)       # sin^2 of the angle between planes i and j
    keep = ~np.triu(s2[:n, :n] < 2.0 ** -10, 1).any(axis=0)  # no cap near an earlier one
    a = (h[:, None] * g - h * G) / (g[:, None] * g * s2)
    x0 = a[..., None] * P[:, None] + a.T[..., None] * P    # on planes i and j, nearest 0
    d = np.cross(P[:, None], P)
    e = 1 - (x0 * x0).sum(axis=2)
    d *= np.sqrt(np.where(e > -2.0 ** -32, np.maximum(e, 0), np.nan)
                 / (d * d).sum(axis=2))[..., None]    # NaN where the line misses the sphere
    pts = np.concatenate([x0 + d, x0 - d]).reshape(-1, 3)
    B, h = B[keep], h[:n][keep]
    z = pts[(pts @ B.T - h >= -2.0 ** -16 * (np.abs(h) + np.sqrt(g[:n][keep]))).all(axis=1), 2]
    if z.size == 0:
        return 0, 0
    k0 = max(int(np.floor(((1 - z.max()) / 2 - 2.0 ** -16) * 2.0 ** 32)), 0)
    k1 = min(int(np.ceil(((1 - z.min()) / 2 + 2.0 ** -16) * 2.0 ** 32)) + 1, 2 ** 32)
    return None if k1 - k0 == 2 ** 32 else (k0 << 32, (k1 - k0) << 32)


def _rays(words, m, r):
    """m samples of GRP's stream from their r - 1 64-bit words each, as (k, cos, sin) of shape
    (r - 1, m): the words' high 32 bits sorted down each column, k_(r-1) >= ... >= k_(1), and
    the float32 phasors of zeta_2 ... zeta_r, of 2 pi u with u = their low 32 bits times 2^-32."""
    # int64 and uint32 (the low word, by truncation) convert faster than uint64
    k = np.ascontiguousarray((words >> 32).view(np.int64).reshape(m, r - 1).T)
    for j in range(1, r - 1):   # insert row j into the sorted rows above it
        low = np.minimum(k[:j], k[j])
        np.maximum(k[0], k[j], out=k[0])
        np.maximum(k[1:j], low[:-1], out=k[1:j])
        k[j] = low[-1]
    ang = np.multiply(words.astype(np.uint32), np.float32(2 * np.pi * 2.0 ** -32),
                      dtype=np.float32)
    return k, np.cos(ang).reshape(m, r - 1).T, np.sin(ang).reshape(m, r - 1).T


def _grp_forms(L, q: QcqpInstance):
    """``grp_extract``'s (n + 2) x r^2 matrix C of the quadratic forms of w =
    L zeta in the r^2 real features F of zeta zeta^H (``_grp_features``): the
    rows of C @ F are w^H R w, w^H Q w and each c_k |w_k|^2."""
    r = L.shape[1]
    RQ = L.conj().T @ np.stack([q.R, q.Q]) @ L
    # zeta^H A zeta = sum_k A_kk |zeta_k|^2 + 2 sum_{i<j} (Re A_ij Re P_ij
    # - Im A_ij Im P_ij) with P_ij = conj(zeta_i) zeta_j, and c_k |w_k|^2
    # has A = c_k l_k^H l_k, l_k the k-th row of L
    A = np.concatenate([RQ, q.c[:, None, None] * (L.conj()[:, :, None] * L[:, None, :])])
    iu, ju = np.triu_indices(r, 1)
    return np.hstack([A.diagonal(axis1=1, axis2=2).real,
                      2 * A[:, iu, ju].real, -2 * A[:, iu, ju].imag])


def _grp_features(k, cos, sin, dtype):
    """The rays of ``_rays`` as the features of zeta = (sqrt(t_1), sqrt(t_2) p_2, ...) in dtype
    and units of 2^-32, shape (r^2, m): the shares |zeta_j|^2 = t_j, 2^32 t_j = 2^32 - k_(r-1),
    k_(r-1) - k_(r-2), ..., k_(1) in one rounding (float32 takes |p_j|^2 = 1), then Re and Im
    of P_1j = sqrt(t_1 t_j) p_j and P_ij = conj(P_1i) P_1j / t_1 (i < j, row-major, t_1 > 0)."""
    r = len(k) + 1
    F = np.empty((r * r, k.shape[1]), dtype)
    upper = 2 ** 32             # k_(r), then each k_(j) down to k_(1) above k_(0) = 0
    for j in range(r - 1):
        F[j] = upper - k[j]
        upper = k[j]
    F[r - 1] = upper
    h = r * (r - 1) // 2        # Re P_ij in rows r + l, Im P_ij in rows r + h + l, l = 0..h-1
    for j in range(1, r):
        g = np.sqrt(F[0] * F[j])
        np.multiply(g, cos[j - 1], out=F[r + j - 1])
        np.multiply(g, sin[j - 1], out=F[r + h + j - 1])
    re, im = F[r:r + h], F[r + h:]
    stop = r - 1
    for i in range(1, r - 1):
        pairs = slice(stop, stop + r - 1 - i)
        stop = pairs.stop
        a, b = re[i - 1] / F[0], im[i - 1] / F[0]
        np.multiply(re[i:r - 1], a, out=re[pairs])
        re[pairs] += b * im[i:r - 1]
        np.multiply(im[i:r - 1], a, out=im[pairs])
        im[pairs] -= b * re[i:r - 1]
    if dtype is float:
        F[1:r] *= np.square(cos, dtype=float) + np.square(sin, dtype=float)
    return F


def _top_factor(lam, U) -> np.ndarray:
    """sqrt(lambda) u of the top pair of ``range_eigh``'s (lam, U), else zero."""
    return U[:, -1] * np.sqrt(lam[-1]) if lam.size else np.zeros(U.shape[0], dtype=complex)

