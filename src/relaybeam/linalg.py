"""Dense complex Hermitian linear algebra kernel.

Everything downstream (channel statistics, the total-power eigenvalue
search, the SDP relaxation) manipulates small Hermitian matrices; this
module owns their construction, eigendecomposition and PSD tests.
``hermitian`` validates a matrix where it enters from a caller;
``symmetrize`` only cleans the round-off asymmetry of a matrix the library
computed itself.  Matrices are n x n or 2n x 2n for relay counts up to
n = 128, so dense LAPACK routines via numpy are used throughout; the
contracts here are accuracy bounds, not a particular algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def hermitian(a, *, atol: float = 1e-9, name: str = "matrix") -> np.ndarray:
    """Validate and symmetrize a square array into an exact Hermitian matrix.

    Stores (H + H^dagger)/2, which silently absorbs round-off in the input
    without changing already-Hermitian matrices.  Asymmetry beyond ``atol``
    raises; any non-finite entry raises.
    """
    H = np.asarray(a, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError(f"{name} must be square, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise InputError(f"{name} contains non-finite entries")
    asym = np.abs(H - H.conj().T).max()
    scale = max(1.0, np.abs(H).max())
    if asym > atol * scale:
        raise InputError(
            f"{name} is not Hermitian: max asymmetry {asym:.3e} exceeds {atol:.1e}"
        )
    return symmetrize(H)


def symmetrize(H) -> np.ndarray:
    """(H + H^dagger)/2 with a real diagonal, without validation.

    For matrices the library computed itself, whose round-off asymmetry is
    not an input error however badly conditioned the product.
    """
    H = 0.5 * (H + H.conj().T)
    # exact symmetry: real diagonal, conjugate off-diagonal pairs
    np.fill_diagonal(H, H.diagonal().real)
    return H


def _real_embed(M):
    """[[Re M, -Im M], [Im M, Re M]]: M acting on [Re z; Im z]."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def is_diagonal(M, rtol: float = 1e-12) -> bool:
    """True when M's off-diagonal mass is negligible against its trace."""
    off = M - np.diag(np.diag(M))
    return bool(np.abs(off).sum() <= rtol * max(np.abs(np.trace(M)), 1e-300))


def check_vector(v, *, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    if v.size < 1:
        raise InputError(f"{name} must have length >= 1")
    if not np.isfinite(v).all():
        raise InputError(f"{name} contains non-finite entries")
    return v


@dataclass
class EigenDecomposition:
    """Full spectrum of a Hermitian matrix.

    ``eigenvalues`` ascending; ``eigenvectors[:, i]`` is the unit
    eigenvector for ``eigenvalues[i]``; ``spectral_gap`` is the smallest
    difference of adjacent eigenvalues (0.0 for a 1x1 matrix), exported so
    callers can detect near-degeneracy themselves.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spectral_gap: float


def hermitian_eig(H) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Deterministic for identical input (LAPACK ``eigh`` is); eigenvector
    phases are fixed by making the largest-magnitude component of each
    column real positive so repeated calls and round-trips compare equal.
    """
    H = hermitian(H)
    w, U = np.linalg.eigh(H)
    for i in range(U.shape[1]):
        j = np.argmax(np.abs(U[:, i]))
        ph = U[j, i]
        if np.abs(ph) > 0:
            U[:, i] *= np.abs(ph) / ph
    gap = float(np.diff(w).min()) if w.size > 1 else 0.0
    return EigenDecomposition(eigenvalues=w, eigenvectors=U, spectral_gap=gap)


def is_psd(H, tol: float = 1e-9) -> bool:
    """True iff lambda_min(H) >= -tol."""
    H = hermitian(H)
    return bool(np.linalg.eigvalsh(H)[0] >= -tol)


def principal_factor(X) -> np.ndarray:
    """sqrt(lambda_max) times the top unit eigenvector of a Hermitian X:
    the factor of X's best rank-one approximation."""
    vals, vecs = np.linalg.eigh(X)
    return np.sqrt(max(vals[-1], 0.0)) * vecs[:, -1]


def qform(H, v) -> float:
    """Real quadratic form v^dagger H v for Hermitian H."""
    v = np.asarray(v, dtype=complex).ravel()
    return float(np.real(v.conj() @ H @ v))
