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
from .errors import InputError
from .linalg import check_scalar, check_type, check_vector, hermitian, qform, symmetrize
from .problems import IndivPowerProblem
from .sdp import QcqpInstance, _gauge_basis, range_eigh, solve_relaxation

FALLBACKS = ("cdm", "pnorm")     # the searches the sdp route falls back to
ROUTES = ("auto", "indiv-diag", "sdp", *FALLBACKS, "grp")
# solve's options and the kind of each value, which cli.parse_scenario reads too (see cli._field)
OPTIONS = {"samples": "count", "eps": "positive", "p": "count", "w0": "vector",
           "fallback": FALLBACKS}

_GRP_CHUNK = 8192   # GRP samples per column chunk at rank two, 2/r of it at rank r: in L2


def build_qcqp(p: IndivPowerProblem) -> QcqpInstance:
    p = check_type(p, IndivPowerProblem, name="p")
    return QcqpInstance(R=p.stats.R, Q=p.stats.Q, c=p.c)


def qcqp_objective(q: QcqpInstance, w) -> float:
    """w^H R w / max_k (w^H Q w + c_k |w_k|^2): the QCQP value of w's ray."""
    q = check_type(q, QcqpInstance, name="q")
    w = check_vector(w, name="w", n=q.n)
    return qform(q.R, w) / float(q.constraint_values(w).max())


def rescale_to_original(w_qcqp, q: QcqpInstance, p: IndivPowerProblem) -> BeamformingSolution:
    """Map a QCQP point back to the per-relay-cap problem.

    eta = max_k c_k |w_k|^2; w/sqrt(eta) is feasible with at least one cap
    active (the optimum always saturates some relay).
    """
    q = check_type(q, QcqpInstance, name="q")
    p = check_type(p, IndivPowerProblem, name="p")
    w = check_vector(w_qcqp, name="w", n=q.n)
    if not np.abs(w).max() > 0:
        raise InputError("cannot rescale the zero vector")
    eta = float((q.c * np.abs(w) ** 2).max())
    return p.solution(w / np.sqrt(eta))


def solve_via_sdp(p: IndivPowerProblem):
    """Solve the relaxation; return (qcqp_instance, sdp_solution, w or None).

    w is populated only when the relaxation comes back (numerically)
    rank one, in which case its factor w (X = w w^H) is already optimal for
    the QCQP: the exit's, else sqrt(lambda_max) times X's top eigenvector.
    """
    q = build_qcqp(p)
    sol = solve_relaxation(q)
    w = None
    if sol.rank_estimate == 1:
        w = _top_factor(*range_eigh(sol.X)) if sol.factor is None else sol.factor[:, 0]
    return q, sol, w


def solve(p: IndivPowerProblem, solver: str = "auto", options: dict | None = None,
          seed: int = 0, relaxation=None):
    """Run the route ``solver`` of ``ROUTES`` with solver ``options`` keyed by
    ``OPTIONS``; returns ``(solution, metadata, trace or None)``.  ``auto`` is
    ``indiv-diag`` for diagonal statistics, else ``sdp``: the relaxation's
    rank-one point, else its rank-one decomposition (n <= 3), else the
    ``fallback`` search (``cdm`` or ``pnorm``) from X's top factor.  ``sdp``
    and ``grp`` solve the relaxation unless given ``solve_via_sdp``'s triple."""
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
        if isinstance(kind, tuple) and not (isinstance(value, str) and value in kind):
            raise InputError(f"unknown {key} {value!r}; choose one of {kind}")
        if kind == "vector" and value is not None:
            check_vector(value, name=key, n=p.n)
        elif value is not None and not isinstance(kind, tuple):
            check_scalar(value, name=key, kind=kind)
    if solver == "auto":
        solver = "indiv-diag" if p.stats.is_diagonal() else "sdp"
    meta = {"solver": solver}
    if solver == "indiv-diag":
        return indiv_diag.solve_diagonal(p), meta, None
    start = options.get("w0")
    if solver in ("sdp", "grp"):
        q, sdp_sol, w = solve_via_sdp(p) if relaxation is None else relaxation
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
    p_val = indiv_search.choose_p(p.n) if options.get("p") is None else options["p"]
    emb = indiv_search.build_pnorm_embedding(p, p_val)
    sol, trace, state = indiv_search.augmented_lagrangian_solve(emb, p, w0=start)
    meta.update(p=p_val, multiplier=state.lam, constraint_residual=state.constraint_residual)
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
    is unchanged too.
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
    v = _top_factor(lam, U)
    j = int(np.argmax(np.abs(v)))
    if np.abs(v[j]) > 0:
        v = v * (np.abs(v[j]) / v[j])
    return v


def grp_extract(X, q: QcqpInstance, samples: int, seed: int) -> np.ndarray:
    """Gaussian random procedure: draw w ~ CN(0, X), rescale each sample to
    the feasible boundary, keep the best objective.

    One SFC64 stream seeded with ``SeedSequence(seed)`` draws every sample,
    so w is a pure function of (X, q, samples, seed) and growing ``samples``
    only extends the stream (prefix property).  The samples lie in the range
    of X: with the eigenpairs of X that ``range_eigh`` keeps (the rule behind
    ``SdpSolution.rank_estimate``) L = U_r sqrt(lambda_r), and each sample
    is w = L zeta for zeta ~ CN(0, I_r).  A sample's value is unchanged by
    w -> alpha w, so only the ray of zeta counts, drawn with its law from
    r - 1 64-bit words (``_rays``): the shares t_j = |zeta_j|^2 / |zeta|^2
    are Dirichlet(1, ..., 1), the spacings of r - 1 sorted uniforms (the
    high 32 bits; Devroye 1986, ch. V), independent of the float32 phasors
    p_j of zeta_2 ... zeta_r relative to a real zeta_1 (the low 32 bits).
    At rank one every sample has the same value, so one sample is drawn,
    from no word, whatever ``samples`` says.  Every quadratic form is linear
    in zeta zeta^H, so one (n + 2) x r^2 product C on its r^2 real features
    F (``_grp_features``, in units of 2^-32) gives w^H R w, w^H Q w and each
    c_k |w_k|^2.  It runs on the calling thread in column chunks that stay
    in cache, first in float32, with C's R row and Q-and-caps rows each
    scaled by a power of two (no scale overflows; R -> 4^j R leaves it
    unchanged) and by 2^-32.  The float32 bound, at every rank, with u =
    eps32 / 2: the shares sum to one and |P_ij| <= sqrt(t_i t_j) |p_i p_j|,
    so |F_l| <= 1 + O(u).  Each share is rounded once, numpy's float32 cos
    and sin (within 2 ulps) give |p_j|^2 = 1 within 6 u, and the cross terms
    (at most 1/2) take relative errors of at most 4 u (P_1j) and 11 u
    (P_ij), so each float32 feature is within 4 eps32 of its float64 value.
    With C's own rounding and Higham's dot-product bound (Accuracy and
    Stability, 3.1), the rows V_j are within a_j = (r^2 + 16) eps32 sum_l
    |C_jl| + 2^-100 (underflow) of their float64 values, and (V_0 + a_0) /
    (V_1 + max_k V_k - a_1 - max_k a_k) bounds a sample's float64 value.
    Only samples whose bound reaches the best float64 value so far (all
    while none is positive; the first chunk is half), or whose bounded
    denominator is not positive, are evaluated in float64: w is the float64
    first maximum over the drawn samples.
    """
    samples = check_scalar(samples, name="samples", kind="count")
    seed = check_scalar(seed, name="seed", kind="seed")
    q = check_type(q, QcqpInstance, name="q")
    lam, U = range_eigh(hermitian(X, name="X", n=q.n))
    if lam.size == 0:
        raise InputError("X is numerically zero; nothing to sample")
    L = U * np.sqrt(lam)
    r = lam.size
    if r == 1:
        # every sample lies on the ray of L, so rescaling gives every sample
        # the same value, and the first sample wins the tie
        samples = 1
    C = _grp_forms(L, q)
    step = 2 * _GRP_CHUNK // r
    screen = samples > step // 2    # a chunk after the first runs: build the float32 screen
    if screen:
        s0, s1 = np.ldexp(1.0, -np.frexp([np.abs(C[0]).max(), np.abs(C[1:]).max()])[1])
        Cs = np.vstack([s0 * C[:1], s1 * C[1:]])
        a = ((r * r + 16) * 2.0 ** -23 * np.abs(Cs).sum(axis=1) + 2.0 ** -100).astype(np.float32)
        a0, a_den = a[0], a[1] + a[2:].max()
        C32 = (2.0 ** -32 * np.vstack([Cs[:1], Cs[1] + Cs[2:]])).astype(np.float32)  # V_1 + V_k
        Vb = np.empty((q.n + 1, step), np.float32)    # reused: no page faults a chunk
    best_val, best_w = -np.inf, None
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    h = r * (r - 1) // 2
    for c0 in range(-(step // 2), samples, step):   # the first chunk, all float64, is half
        m = min(c0 + step, samples) - max(c0, 0)
        k, cos, sin = _rays(rng, m, r)
        if best_val <= 0:   # no bound yet: every sample is evaluated in float64
            idx = np.arange(m)
        else:
            V = np.matmul(C32, _grp_features(k, cos, sin, np.float32), out=Vb[:, :m])
            D = V[1:].max(axis=0)
            idx = ((D <= a_den) | (V[0] >= thr * D - off)).nonzero()[0]
            if idx.size == 0:
                continue
        Fi = _grp_features(k.take(idx, 1), cos.take(idx, 1), sin.take(idx, 1), float)
        V = C @ Fi
        worst = V[1] + V[2:].max(axis=0)
        vals = V[0] / worst
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            # zeta, to scale, is (F_0, P_12, ..., P_1r) / sqrt(F_0), with F_0 > 0
            zeta = np.append(Fi[0, i], Fi[r:2 * r - 1, i] + 1j * Fi[r + h:r + h + r - 1, i])
            best_w = L @ (zeta / np.sqrt(Fi[0, i])) / np.sqrt(worst[i])
            if screen:      # the bar of the screen, used once best_val > 0
                x = min(best_val * s0 / s1 * (1 - 2.0 ** -19), 2.0 ** 100)
                thr = np.nextafter(np.float32(x), np.float32(0))    # x rounded down to float32
                off = a0 + thr * a_den
    return best_w


def _rays(rng, m, r):
    """The next m samples of GRP's stream, r - 1 words each, as (k, cos, sin) of shape
    (r - 1, m): the words' high 32 bits sorted down each column, k_(r-1) >= ... >= k_(1),
    and the float32 phasors of zeta_2 ... zeta_r, of 2 pi u with u = their low 32 bits
    times 2^-32."""
    words = rng.bit_generator.random_raw(m * (r - 1))
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

