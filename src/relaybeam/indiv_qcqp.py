"""Homogeneous QCQP route for general R, Q under per-relay caps.

The per-relay problem is equivalent (up to scaling) to

    max w^H R w   s.t.   w^H A_k w <= 1,   A_k = c_k J_k + Q,

with c_k = (Ps D_kk + sigma^2)/P_k and J_k the k-th diagonal selector.
This module builds that instance, drives the SDP relaxation, extracts
rank-one solutions (exactly for n <= 3 via iterative rank reduction on the
optimal face), runs the Gaussian-random-procedure baseline, and maps QCQP
points back to budget-feasible weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamformingSolution, snr
from .errors import InputError, ScopeError
from .linalg import _real_embed, principal_factor, qform, symmetrize
from .problems import IndivPowerProblem
from .sdp import SdpProblem, _traces, solve_relaxation

GRP_BATCH = 65536   # fixed batch so the sample stream is prefix-stable
_GRP_CHUNK = 4096   # GRP samples per column chunk: its temporaries stay in L2


@dataclass
class QcqpInstance:
    R: np.ndarray
    A: np.ndarray                # (n, n, n) stack of the constraint matrices A_k
    scale_coeffs: np.ndarray     # c_k = (Ps D_kk + sigma^2)/P_k

    @property
    def n(self) -> int:
        return self.R.shape[0]

    def constraint_values(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex).ravel()
        return (self.A @ w @ w.conj()).real


def build_qcqp(p: IndivPowerProblem) -> QcqpInstance:
    coeffs = (p.Ps * p.stats.D + p.stats.sigma2) / p.P
    n = coeffs.size
    A = np.broadcast_to(p.stats.Q, (n, n, n)).copy()
    A[np.arange(n), np.arange(n), np.arange(n)] += coeffs
    return QcqpInstance(R=p.stats.R, A=A, scale_coeffs=coeffs)


def qcqp_objective(q: QcqpInstance, w) -> float:
    """w^H R w / max_k w^H A_k w: the QCQP value of w's ray."""
    return qform(q.R, w) / float(q.constraint_values(w).max())


def rescale_to_original(w_qcqp, q: QcqpInstance, p: IndivPowerProblem) -> BeamformingSolution:
    """Map a QCQP point back to the per-relay-cap problem.

    eta = max_k c_k |w_k|^2; w/sqrt(eta) is feasible with at least one cap
    active (the optimum always saturates some relay).
    """
    w = np.asarray(w_qcqp, dtype=complex).ravel()
    if not np.abs(w).max() > 0:
        raise InputError("cannot rescale the zero vector")
    eta = float((q.scale_coeffs * np.abs(w) ** 2).max())
    w = w / np.sqrt(eta)
    return BeamformingSolution(w=w, Ps=p.Ps, snr=snr(p.stats, p.Ps, w),
                               feasibility=p.slacks(w))


def solve_via_sdp(p: IndivPowerProblem, tol: float = 1e-8):
    """Solve the relaxation; return (sdp_solution, w or None).

    w is populated only when the relaxation comes back (numerically)
    rank one, in which case sqrt(lambda_max) times the top eigenvector is
    already optimal for the QCQP.
    """
    q = build_qcqp(p)
    sol = solve_relaxation(SdpProblem(objective=q.R, constraints=q.A), tol=tol)
    w = principal_factor(sol.X) if sol.rank_estimate == 1 else None
    return q, sol, w


def rank_one_decompose(X, q: QcqpInstance, rank_tol: float = 1e-7,
                       active_tol: float = 1e-7, max_rounds: int = 64) -> np.ndarray:
    """Extract an objective-preserving feasible rank-one solution (n <= 3).

    Iterative rank reduction on the optimal face: write X = V V^H, find a
    nonzero Hermitian M with Tr(V^H A_k V M) = 0 for every active
    constraint (possible since the active count <= 3 < rank^2), and move
    X(tau) = V (I - tau M) V^H until either an eigenvalue of I - tau M
    hits zero (rank drops) or an inactive constraint becomes active (the
    active set grows); both events are finite.  Active constraint values
    and, by complementary slackness, the objective are invariant along
    the path.
    """
    n = q.n
    if n > 3:
        raise ScopeError(
            "rank-one decomposition is only guaranteed for n <= 3; "
            "use coordinate descent or the p-norm solver")
    X = symmetrize(X)
    A = q.A
    for _ in range(max_rounds):
        w, U = np.linalg.eigh(X)
        w = np.maximum(w, 0.0)
        keep = w > rank_tol * max(w.max(), 1e-300)
        r = int(keep.sum())
        if r <= 1:
            v = U[:, -1] * np.sqrt(w[-1])
            j = int(np.argmax(np.abs(v)))
            if np.abs(v[j]) > 0:
                v = v * (np.abs(v[j]) / v[j])
            return v
        V = U[:, keep] * np.sqrt(w[keep])
        vals = _traces(A, X)
        active = np.flatnonzero(vals >= 1.0 - active_tol)
        rows = [_vech(V.conj().T @ A[k] @ V) for k in active]
        M = _null_direction(rows, r)
        if M is None:
            raise InputError(
                "no reduction direction found; X is likely not an optimal "
                f"face point (rank {r}, {len(active)} active constraints)")
        for Ms in (M, -M):
            lmax = float(np.linalg.eigvalsh(Ms).max())
            if lmax > 1e-12 and 1.0 / lmax <= _blocking_step(V, A, vals, active, Ms):
                tau = 1.0 / lmax
                break
        else:
            # both signs blocked: walk to the blocking point, growing the active set
            Ms = M if np.linalg.eigvalsh(M).max() > 1e-12 else -M
            tau = _blocking_step(V, A, vals, active, Ms)
            if not np.isfinite(tau):
                raise InputError("rank reduction stalled without a blocking constraint")
        X = symmetrize(V @ (np.eye(r) - tau * Ms) @ V.conj().T)
    raise InputError(f"rank reduction did not reach rank one in {max_rounds} rounds")


def grp_extract(X, q: QcqpInstance, samples: int, seed: int) -> np.ndarray:
    """Gaussian random procedure: draw w ~ CN(0, X), rescale each sample to
    the feasible boundary, keep the best objective.

    Samples are generated in fixed-size batches, each drawn by an SFC64
    generator seeded with ``SeedSequence([seed, batch index])``, so w is a
    pure function of (X, q, samples, seed) and growing ``samples`` only
    extends the stream (prefix property).  The samples lie in the range of
    X: with the eigenpairs of X above 1e-6 lambda_max (the rule behind
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
    wv, U = np.linalg.eigh(symmetrize(X))
    if wv.max() <= 0:
        raise InputError("X is numerically zero; nothing to sample")
    keep = wv > 1e-6 * wv.max()
    L = U[:, keep] * np.sqrt(wv[keep])
    r, n = L.shape[1], q.n
    if r == 1:
        # every sample lies on the ray of L, so rescaling gives every sample
        # the same value, and the first sample wins the tie
        samples = 1
    # A_k = c_k J_k + Q: evaluate the shared Q form once per sample and add
    # the per-relay diagonal bump
    Qmat = q.A[0].copy()
    Qmat[0, 0] -= q.scale_coeffs[0]
    LH = L.conj().T
    K = np.vstack([_real_embed(LH @ q.R @ L), _real_embed(LH @ Qmat @ L)])
    EL = _real_embed(np.sqrt(q.scale_coeffs)[:, None] * L)
    best_val, best_w = -np.inf, None
    for batch_idx in range(-(-samples // GRP_BATCH)):
        take = min(GRP_BATCH, samples - batch_idx * GRP_BATCH)
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence([int(seed), batch_idx])))
        for c0 in range(0, take, _GRP_CHUNK):
            # rows z = [a; b]: the next rows of one (GRP_BATCH, 2r) draw,
            # copied to columns so the products below run on contiguous rows
            ZT = np.ascontiguousarray(
                rng.standard_normal((min(_GRP_CHUNK, take - c0), 2 * r)).T)
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


def _vech(H) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in an orthonormal basis."""
    r = H.shape[0]
    out = [H[i, i].real for i in range(r)]
    rt2 = np.sqrt(2.0)
    for i in range(r):
        for j in range(i + 1, r):
            out.append(rt2 * H[i, j].real)
            out.append(rt2 * H[i, j].imag)
    return np.array(out)


def _unvech(v, r) -> np.ndarray:
    H = np.zeros((r, r), dtype=complex)
    for i in range(r):
        H[i, i] = v[i]
    idx = r
    rt2 = np.sqrt(2.0)
    for i in range(r):
        for j in range(i + 1, r):
            H[i, j] = (v[idx] + 1j * v[idx + 1]) / rt2
            H[j, i] = H[i, j].conjugate()
            idx += 2
    return H


def _null_direction(rows, r):
    """A unit-normalized Hermitian r x r matrix orthogonal to all rows."""
    if rows:
        Arows = np.array(rows)
        _, sv, Vt = np.linalg.svd(Arows, full_matrices=True)
        cut = (sv > 1e-10 * max(1.0, sv.max())).sum()
        null = Vt[cut:]
    else:
        null = np.eye(r * r)
    if null.shape[0] == 0:
        return None
    M = _unvech(null[0], r)
    return M / np.abs(np.linalg.eigvalsh(M)).max()


def _blocking_step(V, A, vals, active, Ms) -> float:
    """Largest tau before X(tau) = V (I - tau Ms) V^H makes an inactive
    constraint active; inf when none ever does."""
    rates = _traces(A, V @ Ms @ V.conj().T)
    hit = rates < -1e-14
    hit[active] = False
    return float(((1.0 - vals[hit]) / -rates[hit]).min(initial=np.inf))
