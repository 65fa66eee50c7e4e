"""Homogeneous QCQP route for general R, Q under per-relay caps.

The per-relay problem is equivalent (up to scaling) to

    max w^H R w   s.t.   w^H Q w + c_k |w_k|^2 <= 1   (k = 1..n),

with c_k = (Ps D_kk + sigma^2)/P_k, so every constraint matrix is
A_k = Q + c_k e_k e_k^H.  A ``QcqpInstance`` (defined with the relaxation
in ``sdp``) keeps that structure as (R, Q, c), and no A_k is ever formed.
This module drives the SDP relaxation, extracts rank-one solutions
(exactly for n <= 3, by rank reduction that holds every cap: at most n <= 3
constraints cannot pin the r^2 >= 4 real directions of a rank-r >= 2 X, so
each round lowers the rank and at most two rounds are needed), runs the
Gaussian-random-procedure baseline, and maps QCQP points back to
budget-feasible weight vectors.  ``solve`` is the one per-relay route, which
the CLI's ``solve`` and ``reproduce`` and library callers all run.
"""

from __future__ import annotations

import numpy as np

from . import indiv_diag, indiv_search
from .channel import BeamformingSolution
from .errors import InputError
from .linalg import _real_embed, qform, symmetrize
from .problems import IndivPowerProblem
from .sdp import QcqpInstance, range_eigh, solve_relaxation

ROUTES = ("auto", "indiv-diag", "sdp", "cdm", "pnorm", "grp")

_GRP_CHUNK = 4096   # GRP samples per column chunk: its temporaries stay in L2


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
    p_val = options.get("p") or indiv_search.choose_p(p.n)
    emb = indiv_search.build_pnorm_embedding(p, p_val)
    sol, trace, state = indiv_search.augmented_lagrangian_solve(emb, p, w0=start)
    meta.update(p=p_val, multiplier=state.lam, constraint_residual=state.constraint_residual)
    return sol, meta, trace


def rank_one_decompose(X, q: QcqpInstance) -> np.ndarray:
    """Extract an objective-preserving feasible rank-one solution (n <= 3).

    Rank reduction that holds every constraint: write X = V V^H with r >= 2
    columns, find a nonzero Hermitian M with Tr(V^H A_k V M) = 0 for all n
    constraints (one exists: n <= 3 < 4 <= r^2), scaled so that
    lambda_max(M) = 1, and set X <- V (I - M) V^H.  Every constraint value
    is unchanged, X stays PSD and its rank drops, so r <= 3 ends in at most
    two rounds.  The range of X only shrinks, and the dual slack
    Z = sum y_k A_k - R vanishes on it (complementary slackness), so the
    objective Tr(R X) = sum y_k Tr(A_k X) is unchanged too.
    """
    if q.n > 3:
        raise InputError(
            "rank-one decomposition is only guaranteed for n <= 3; "
            "use coordinate descent or the p-norm solver")
    lam, U = range_eigh(symmetrize(X))
    while lam.size >= 2:
        V = U * np.sqrt(lam)
        VQV = V.conj().T @ q.Q @ V      # V^H A_k V = VQV + c_k V[k]^H V[k]
        M = _null_direction([_vech(VQV + q.c[k] * np.outer(V[k].conj(), V[k]))
                             for k in range(q.n)], lam.size)
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
    is w = L (a + i b) for z = [a; b] ~ N(0, I_2r).  That w is CN(0, 2X);
    the factor 2 is immaterial because every sample is rescaled.  A sample
    therefore costs 2r normals, and GRP's cost follows the rank r rather
    than n.  When X has rank one (the report's ``rank_estimate`` is 1),
    every sample has the same value, so one sample is drawn whatever
    ``samples`` says.  With E(M) = [[Re M, -Im M], [Im M, Re M]], both
    quadratic forms are z^T E(L^H M L) z in 2r dimensions; only the
    per-relay term max_k c_k |w_k|^2 forms E(sqrt(c) L) z, 2n rows per
    sample.  The kernel runs on the calling thread in column chunks that
    keep its temporaries in cache, and the first maximum wins.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise InputError("samples must be >= 1 and an integer")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
        raise InputError("seed must be a non-negative integer below 2**64")
    lam, U = range_eigh(symmetrize(X))
    if lam.size == 0:
        raise InputError("X is numerically zero; nothing to sample")
    L = U * np.sqrt(lam)
    r, n = lam.size, q.n
    if r == 1:
        # every sample lies on the ray of L, so rescaling gives every sample
        # the same value, and the first sample wins the tie
        samples = 1
    # the Q form is shared by every constraint: take it once per sample and
    # add the per-relay term c_k |w_k|^2
    LH = L.conj().T
    K = np.vstack([_real_embed(LH @ q.R @ L), _real_embed(LH @ q.Q @ L)])
    EL = _real_embed(np.sqrt(q.c)[:, None] * L)
    best_val, best_w = -np.inf, None
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    for c0 in range(0, samples, _GRP_CHUNK):
        # rows z = [a; b]: the next rows of one (samples, 2r) draw, copied to
        # columns so the products below run on contiguous rows
        ZT = np.ascontiguousarray(
            rng.standard_normal((min(_GRP_CHUNK, samples - c0), 2 * r)).T)
        KZ = (K @ ZT).reshape(2, 2 * r, -1)
        KZ *= ZT
        robj, quad_Q = KZ.sum(axis=1)
        WT = EL @ ZT
        WT *= WT
        worst = quad_Q + (WT[:n] + WT[n:]).max(axis=0)
        vals = robj / worst
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            z = ZT[:, i]
            best_val = float(vals[i])
            best_w = L @ (z[:r] + 1j * z[r:]) / np.sqrt(worst[i])
    return best_w


def _top_factor(lam, U) -> np.ndarray:
    """sqrt(lambda) u of the top pair of ``range_eigh``'s (lam, U), else zero."""
    return U[:, -1] * np.sqrt(lam[-1]) if lam.size else np.zeros(U.shape[0], dtype=complex)


def _vech(H) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in an orthonormal basis: the
    diagonal, then sqrt 2 (Re, Im) of each entry above it, row by row."""
    off = H[np.triu_indices(H.shape[0], 1)]
    return np.concatenate([H.diagonal().real,
                           np.sqrt(2.0) * np.column_stack([off.real, off.imag]).ravel()])


def _unvech(v, r) -> np.ndarray:
    """The Hermitian r x r matrix with coordinates v (inverse of _vech)."""
    i, j = np.triu_indices(r, 1)
    H = np.diag(v[:r]).astype(complex)
    H[i, j] = (v[r::2] + 1j * v[r + 1::2]) / np.sqrt(2.0)
    H[j, i] = H[i, j].conj()
    return H


def _null_direction(rows, r):
    """A Hermitian r x r matrix orthogonal to all rows, scaled so that its
    largest eigenvalue is 1.  The n <= 3 rows span fewer than the r^2 >= 4
    coordinates, so the last right singular vector is orthogonal to them
    all; of M and -M the one whose top eigenvalue is larger in magnitude
    is returned, so I - M is PSD with a zero eigenvalue and norm <= 2."""
    M = _unvech(np.linalg.svd(np.array(rows))[2][-1], r)
    lam = np.linalg.eigvalsh(M)
    return M / (lam[-1] if lam[-1] >= -lam[0] else lam[0])
