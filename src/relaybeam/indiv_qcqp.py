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
from .linalg import _real_embed, qform, symmetrize
from .problems import IndivPowerProblem
from .sdp import QcqpInstance, _gauge_basis, range_eigh, solve_relaxation

FALLBACKS = ("cdm", "pnorm")     # the searches the sdp route falls back to
ROUTES = ("auto", "indiv-diag", "sdp", *FALLBACKS, "grp")

_GRP_CHUNK = 4096   # GRP samples per column chunk: its temporaries stay in L2
# GRP's feature kernel up to this rank, the real embedding above it.  At 10^5
# samples on one BLAS thread the features took 0.6x the embedding's time at
# r = 4 (n = 6 to 64), but 1.5x at r = 5, n = 6 and 2.6x at r = 16, n = 16
_GRP_FEATURE_MAX_RANK = 4


def build_qcqp(p: IndivPowerProblem) -> QcqpInstance:
    return QcqpInstance(R=p.stats.R, Q=p.stats.Q, c=p.c)


def qcqp_objective(q: QcqpInstance, w) -> float:
    """w^H R w / max_k (w^H Q w + c_k |w_k|^2): the QCQP value of w's ray."""
    return qform(q.R, w) / float(q.constraint_values(w).max())


def rescale_to_original(w_qcqp, q: QcqpInstance, p: IndivPowerProblem) -> BeamformingSolution:
    """Map a QCQP point back to the per-relay-cap problem.

    eta = max_k c_k |w_k|^2; w/sqrt(eta) is feasible with at least one cap
    active (the optimum always saturates some relay).
    """
    w = np.asarray(w_qcqp, dtype=complex).ravel()
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
    """Run the route ``solver`` of ``ROUTES`` with a scenario's solver
    ``options``; returns ``(solution, metadata, trace or None)``.  ``auto`` is
    ``indiv-diag`` for diagonal statistics, else ``sdp``: the relaxation's
    rank-one point, else its rank-one decomposition (n <= 3), else the
    ``fallback`` search (``cdm`` or ``pnorm``) from X's top factor.  ``sdp``
    and ``grp`` solve the relaxation unless given ``solve_via_sdp``'s triple."""
    if solver not in ROUTES:
        raise InputError(f"unknown per-relay solver {solver!r}; choose one of {ROUTES}")
    options = options or {}
    # every option's value is checked here, whatever the route reads
    if options.get("fallback", "cdm") not in FALLBACKS:
        raise InputError(f"unknown fallback {options['fallback']!r}; choose one of {FALLBACKS}")
    for key, check in (("eps", indiv_search._check_eps), ("samples", _check_samples),
                       ("p", indiv_search._check_p)):
        if options.get(key) is not None:
            check(options[key])
    if options.get("w0") is not None:
        indiv_search._check_w0(options["w0"], p.n)
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


def _check_samples(samples):
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise InputError("samples must be >= 1 and an integer")


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
    lam, U = range_eigh(symmetrize(X))
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
    w -> alpha w, so it depends only on the complex ray of zeta, and the
    polar (Box-Muller) form draws that ray with its CN(0, I_r) law from
    2r - 1 uniforms and no normal: row u of one (samples, 2r - 1) block
    gives independent unit exponentials |zeta_k|^2 = -log(1 - u_k) and the
    phases 2 pi u_{r+k} of zeta_{k+1} relative to zeta_1, which is real.
    The phasors are taken in float32 and renormalized in float64, so every
    value and the returned w come from one zeta.  When X has rank one (the
    report's ``rank_estimate`` is 1), every sample has the same value, so
    one sample is drawn whatever ``samples`` says.  Every quadratic form is
    linear in zeta zeta^H: up to rank ``_GRP_FEATURE_MAX_RANK`` one (n + 2)
    x r^2 product on its r^2 real features gives w^H R w, w^H Q w and each
    c_k |w_k|^2, (n + 2) r^2 multiply-adds a sample; above it the forms are
    taken in the real embedding of zeta, 8 r^2 + 4 n r.  So GRP's cost
    follows r and n, and its draw only r.  The kernel runs on the calling
    thread in column chunks that keep its temporaries in cache, and the
    first maximum wins.
    """
    _check_samples(samples)
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 64):
        raise InputError("seed must be a non-negative integer below 2**64")
    lam, U = range_eigh(symmetrize(X))
    if lam.size == 0:
        raise InputError("X is numerically zero; nothing to sample")
    L = U * np.sqrt(lam)
    r = lam.size
    if r == 1:
        # every sample lies on the ray of L, so rescaling gives every sample
        # the same value, and the first sample wins the tie
        samples = 1
    forms = _grp_forms(L, q)
    best_val, best_w = -np.inf, None
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    for c0 in range(0, samples, _GRP_CHUNK):
        e, Z = _polar_rays(rng, min(_GRP_CHUNK, samples - c0), r)
        robj, worst = forms(e, Z)
        vals = robj / worst
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_w = L @ (Z[:r, i] + 1j * Z[r:, i]) / np.sqrt(worst[i])
    return best_w


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
    """``grp_extract``'s chunk kernel: rays (e, Z) of ``_polar_rays`` to the
    rows w^H R w and max_k (w^H Q w + c_k |w_k|^2), w = L zeta."""
    r = L.shape[1]
    RQ = L.conj().T @ np.stack([q.R, q.Q]) @ L
    if r > _GRP_FEATURE_MAX_RANK:
        # with E(M) = [[Re M, -Im M], [Im M, Re M]] and z = [Re zeta; Im
        # zeta], both forms are z^T E(L^H M L) z, and w's real embedding is
        # E(L) z (scaled by sqrt(c): 2n rows)
        K = np.vstack([_real_embed(M) for M in RQ])
        EL = _real_embed(np.sqrt(q.c)[:, None] * L)

        def embedded(e, Z):
            KZ = (K @ Z).reshape(2, 2 * r, -1)
            KZ *= Z
            robj, quad_Q = KZ.sum(axis=1)
            W = EL @ Z
            W *= W
            return robj, quad_Q + (W[:q.n] + W[q.n:]).max(axis=0)
        return embedded
    # zeta^H A zeta = sum_k A_kk |zeta_k|^2 + 2 sum_{i<j} (Re A_ij Re P_ij
    # - Im A_ij Im P_ij) with P_ij = conj(zeta_i) zeta_j, and c_k |w_k|^2
    # has A = c_k l_k^H l_k, l_k the k-th row of L
    A = np.concatenate([RQ, q.c[:, None, None] * (L.conj()[:, :, None] * L[:, None, :])])
    iu, ju = np.triu_indices(r, 1)
    C = np.hstack([A.diagonal(axis1=1, axis2=2).real,
                   2 * A[:, iu, ju].real, -2 * A[:, iu, ju].imag])

    def featured(e, Z):
        # the features |zeta_k|^2, Re P_ij, Im P_ij (i < j, row-major)
        F = np.empty((r * r, e.shape[1]))
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
        V = C @ F
        return V[0], V[1] + V[2:].max(axis=0)
    return featured


def _top_factor(lam, U) -> np.ndarray:
    """sqrt(lambda) u of the top pair of ``range_eigh``'s (lam, U), else zero."""
    return U[:, -1] * np.sqrt(lam[-1]) if lam.size else np.zeros(U.shape[0], dtype=complex)

