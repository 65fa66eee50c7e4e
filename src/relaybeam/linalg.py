"""Dense complex Hermitian linear algebra kernel.

Everything downstream (channel statistics, the total-power eigenvalue
search, the SDP relaxation) manipulates small Hermitian matrices; this
module owns their construction and validation.
``hermitian`` validates a matrix where it enters from a caller;
``symmetrize`` only cleans the round-off asymmetry of a matrix the library
computed itself.  Matrices are n x n or 2n x 2n for relay counts up to
n = 128, so dense LAPACK routines via numpy are used throughout; the
contracts here are accuracy bounds, not a particular algorithm.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

HERMITIAN_TOL = 1e-9   # largest asymmetry hermitian() absorbs, relative to max(1, max |H_ij|)
DIAGONAL_RTOL = 1e-12  # is_diagonal: off-diagonal mass <= DIAGONAL_RTOL |trace|
PSD_RTOL = 1e-9        # psd_violation: lambda_min >= -PSD_RTOL max(1, max |M_ij|) is PSD


def hermitian(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and symmetrize a square array into an exact Hermitian matrix.

    Stores (H + H^dagger)/2, which silently absorbs round-off in the input
    without changing already-Hermitian matrices.  Asymmetry beyond
    HERMITIAN_TOL raises; any non-finite entry raises.
    """
    H = np.asarray(a, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError(f"{name} must be square, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise InputError(f"{name} contains non-finite entries")
    asym = np.abs(H - H.conj().T).max()
    scale = max(1.0, np.abs(H).max())
    if asym > HERMITIAN_TOL * scale:
        raise InputError(
            f"{name} is not Hermitian: max asymmetry {asym:.3e} exceeds {HERMITIAN_TOL:.1e}"
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


def is_diagonal(M) -> bool:
    """True when M's off-diagonal mass is negligible against its trace."""
    off = M - np.diag(np.diag(M))
    return bool(np.abs(off).sum() <= DIAGONAL_RTOL * max(np.abs(np.trace(M)), 1e-300))


def psd_violation(M) -> float:
    """lambda_min(M) when the Hermitian M fails the package's PSD test, else 0.0.
    The test is relative: at entries near 1e8 an absolute one rejects round-off."""
    lam = float(np.linalg.eigvalsh(M)[0])
    return lam if lam < -PSD_RTOL * max(1.0, np.abs(M).max()) else 0.0


def check_vector(v, *, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    if v.size < 1:
        raise InputError(f"{name} must have length >= 1")
    if not np.isfinite(v).all():
        raise InputError(f"{name} contains non-finite entries")
    return v


def qform(H, v) -> float:
    """Real quadratic form v^dagger H v for Hermitian H."""
    v = np.asarray(v, dtype=complex).ravel()
    return float(np.real(v.conj() @ H @ v))
