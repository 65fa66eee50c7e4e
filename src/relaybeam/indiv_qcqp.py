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
    return QcqpInstance(R=p.stats.R, Q=p.stats.Q, c=p.c)


def qcqp_objective(q: QcqpInstance, w) -> float:
    """w^H R w / max_k (w^H Q w + c_k |w_k|^2): the QCQP value of w's ray."""
    w = check_vector(w, name="w", n=q.n)
    return qform(q.R, w) / float(q.constraint_values(w).max())


def rescale_to_original(w_qcqp, q: QcqpInstance, p: IndivPowerProblem) -> BeamformingSolution:
    """Map a QCQP point back to the per-relay-cap problem.

    eta = max_k c_k |w_k|^2; w/sqrt(eta) is feasible with at least one cap
    active (the optimum always saturates some relay).
    """
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
    w -> alpha w, so it depends only on the complex ray of zeta, which is
    drawn with its CN(0, I_r) law from uniform bits alone.  At rank two the
    normalized ray is uniform on the Bloch sphere: the share t = |zeta_2|^2
    / |zeta|^2 is U(0, 1) and independent of the relative phase, so one
    64-bit word a sample gives zeta = (sqrt(1 - t), sqrt(t) p), p a float32
    phasor (``_bloch_rays``).  Above rank two the polar (Box-Muller) form
    takes 2r - 1 uniforms: row u of one (samples, 2r - 1) block gives
    independent unit exponentials |zeta_k|^2 = -log(1 - u_k) and the phases
    2 pi u_{r+k} of zeta_{k+1} relative to zeta_1, which is real; its
    float32 phasors are renormalized in float64.  When X has rank one (the
    report's ``rank_estimate`` is 1), every sample has the same value, so
    one sample is drawn whatever ``samples`` says.  Every quadratic form is
    linear in zeta zeta^H, so one (n + 2) x r^2 product C on its r^2 real
    features F (``_grp_forms``) gives w^H R w, w^H Q w and each c_k |w_k|^2.
    It runs on the calling thread in column chunks that stay in cache, first
    in float32, with C's R row and Q-and-caps rows each scaled by a power of
    two (no scale overflows; R -> 4^j R leaves it unchanged).  Its rows V_j
    are within a_j = (r^2 + 16) eps32 sum_l |C_jl| max |F_l| + 2^-100 of
    their float64 values (Higham, Accuracy and Stability, 3.1, with F's own
    rounding and underflow), so (V_0 + a_0) / (V_1 + max_k V_k - a_1 -
    max_k a_k) bounds a sample's float64 value.  Only samples whose bound reaches
    the best float64 value so far (all while none is positive; the first chunk
    is half), or whose bounded denominator is not positive, are evaluated in
    float64: w is the float64 first maximum over the drawn samples, from one zeta.
    """
    samples = check_scalar(samples, name="samples", kind="count")
    seed = check_scalar(seed, name="seed", kind="seed")
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
    if samples > step // 2:     # a chunk after the first runs: build the float32 screen
        s0, s1 = np.ldexp(1.0, -np.frexp([np.abs(C[0]).max(), np.abs(C[1:]).max()])[1])
        Cs = np.vstack([s0 * C[:1], s1 * C[1:]])
        # eps32 = 2^-23; |F_l| <= 1 at rank two, and < -log(2^-53) < 37 in the polar draw
        a = ((r * r + 16) * 2.0 ** -23 * (1.0 if r == 2 else 37.0) * np.abs(Cs).sum(axis=1)
             + 2.0 ** -100).astype(np.float32)
        a0, a_den = a[0], a[1] + a[2:].max()
        C32 = np.vstack([Cs[:1], Cs[1] + Cs[2:]]).astype(np.float32)    # V_1 + V_k in one row
        Vb = np.empty((q.n + 1, step), np.float32)    # reused: no page faults a chunk
    best_val, best_w = -np.inf, None
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    for c0 in range(-(step // 2), samples, step):   # the first chunk, all float64, is half
        m = min(c0 + step, samples) - max(c0, 0)
        if r == 2:
            k, cos, sin = _bloch_rays(rng, m)
        else:
            e, Z = _polar_rays(rng, m, r)
        if best_val <= 0:   # no bound yet: every sample is evaluated in float64
            idx = np.arange(m)
        else:
            F = (_bloch_features(k, cos, sin, np.float32) if r == 2
                 else _polar_features(e.astype(np.float32), Z.astype(np.float32)))
            V = np.matmul(C32, F, out=Vb[:, :m])
            D = V[1:].max(axis=0)
            x = min(best_val * s0 / s1 * (1 - 2.0 ** -19), 2.0 ** 100)
            thr = np.nextafter(np.float32(x), np.float32(0))    # x rounded down to float32
            idx = np.flatnonzero((D <= a_den) | (V[0] >= thr * D - (a0 + thr * a_den)))
            if idx.size == 0:
                continue
        Fi = (_bloch_features(k[idx], cos[idx], sin[idx], float) if r == 2
              else _polar_features(e[:, idx], Z[:, idx]))
        V = C @ Fi
        worst = V[1] + V[2:].max(axis=0)
        vals = V[0] / worst
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            # at rank two (F_0, F_2 + i F_3) = sqrt(1 - t) zeta
            zeta = (np.array([Fi[0, i], Fi[2, i] + 1j * Fi[3, i]]) / np.sqrt(Fi[0, i])
                    if r == 2 else Z[:r, idx[i]] + 1j * Z[r:, idx[i]])
            best_w = L @ zeta / np.sqrt(worst[i])
    return best_w


def _bloch_rays(rng, m):
    """The next m words of GRP's rank-two stream as (k, cos, sin): t = k 2^-32 from each
    word's high 32 bits, and the float32 phasor of 2 pi u, u = its low 32 bits times 2^-32."""
    words = rng.bit_generator.random_raw(m)
    # uint32 (the low word, by truncation) and int64 convert faster than uint64
    ang = np.multiply(words.astype(np.uint32), np.float32(2 * np.pi * 2.0 ** -32),
                      dtype=np.float32)
    return (words >> 32).view(np.int64), np.cos(ang), np.sin(ang)


def _bloch_features(k, cos, sin, dtype):
    """The rays of ``_bloch_rays`` as the features (1 - t, t |p|^2, s Re p, s Im p) of zeta
    = (sqrt(1 - t), sqrt(t) p) in dtype, shape (4, m), s = sqrt(t (1 - t)), with 1 - t =
    (2^32 - k) 2^-32 formed before its one rounding; float32 takes |p|^2 = 1 + O(eps32)."""
    F = np.empty((4, k.size), dtype)
    unit = dtype(2.0 ** -32)
    np.multiply(2 ** 32 - k, unit, out=F[0], dtype=dtype)
    np.multiply(k, unit, out=F[1], dtype=dtype)
    s = np.sqrt(F[0] * F[1])
    np.multiply(s, cos, out=F[2])
    np.multiply(s, sin, out=F[3])
    if dtype is float:
        F[1] *= np.square(cos, dtype=float) + np.square(sin, dtype=float)
    return F


def _polar_rays(rng, m, r):
    """The next m rows of GRP's (samples, 2r - 1) block of uniforms as rays
    zeta in columns: |zeta|^2, shape (r, m), and [Re zeta; Im zeta], shape
    (2r, m), with zeta_1 real and non-negative."""
    U = np.ascontiguousarray(rng.random((m, 2 * r - 1)).T)
    e = -np.log(1.0 - U[:r])
    Z = np.empty((2 * r, m))
    np.sqrt(e[0], out=Z[0])
    Z[r] = 0.0
    ang = np.multiply(U[r:], 2 * np.pi, dtype=np.float32)
    cos, sin = np.cos(ang), np.sin(ang)
    # |zeta_k| = sqrt(e_k) / |phasor|: the float32 phasor renormalized
    np.sqrt(e[1:] / (np.square(cos, dtype=float) + np.square(sin, dtype=float)), out=Z[1:r])
    np.multiply(Z[1:r], sin, out=Z[r + 1:])
    Z[1:r] *= cos
    return e, Z


def _grp_forms(L, q: QcqpInstance):
    """``grp_extract``'s (n + 2) x r^2 matrix C of the quadratic forms of w =
    L zeta in the r^2 real features F of zeta zeta^H: the rows of C @ F are
    w^H R w, w^H Q w and each c_k |w_k|^2.  The features are those of
    ``_bloch_features`` at rank two, else of ``_polar_features``."""
    r = L.shape[1]
    RQ = L.conj().T @ np.stack([q.R, q.Q]) @ L
    # zeta^H A zeta = sum_k A_kk |zeta_k|^2 + 2 sum_{i<j} (Re A_ij Re P_ij
    # - Im A_ij Im P_ij) with P_ij = conj(zeta_i) zeta_j, and c_k |w_k|^2
    # has A = c_k l_k^H l_k, l_k the k-th row of L
    A = np.concatenate([RQ, q.c[:, None, None] * (L.conj()[:, :, None] * L[:, None, :])])
    iu, ju = np.triu_indices(r, 1)
    return np.hstack([A.diagonal(axis1=1, axis2=2).real,
                      2 * A[:, iu, ju].real, -2 * A[:, iu, ju].imag])


def _polar_features(e, Z):
    """The rays (e, Z) of ``_polar_rays`` as the features |zeta_k|^2,
    Re P_ij and Im P_ij (i < j, row-major) of ``_grp_forms``, shape (r^2, m)."""
    r = e.shape[0]
    F = np.empty((r * r, e.shape[1]), e.dtype)
    F[:r] = e
    re, im = np.split(F[r:], 2)
    stop = 0
    for i in range(r - 1):
        pairs = slice(stop, stop + r - 1 - i)
        stop = pairs.stop
        np.multiply(Z[i], Z[i + 1:r], out=re[pairs])
        np.multiply(Z[i], Z[r + i + 1:], out=im[pairs])
        if i:       # Im zeta_1 = 0
            re[pairs] += Z[r + i] * Z[r + i + 1:]
            im[pairs] -= Z[r + i] * Z[i + 1:r]
    return F


def _top_factor(lam, U) -> np.ndarray:
    """sqrt(lambda) u of the top pair of ``range_eigh``'s (lam, U), else zero."""
    return U[:, -1] * np.sqrt(lam[-1]) if lam.size else np.zeros(U.shape[0], dtype=complex)

