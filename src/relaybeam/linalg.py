"""Dense complex Hermitian linear algebra kernel, and the package's one scalar and vector checks.

Statistics given as matrices, the dense total-power pair, the SDP
relaxation and the per-relay searches work on n x n or 2n x 2n Hermitian
matrices with numpy's dense LAPACK routines (statistics from
``build_stats`` are vectors, see ``channel``); this module owns their
validation.  ``hermitian`` validates a matrix where it enters from a
caller; ``symmetrize`` only cleans the round-off asymmetry of a matrix the
library computed itself.  The contracts here are accuracy bounds, not a
particular algorithm.
"""

from __future__ import annotations

import reprlib

import numpy as np

from .errors import InputError

HERMITIAN_TOL = 1e-9   # largest asymmetry hermitian() absorbs, relative to max(1, max |H_ij|)
DIAGONAL_RTOL = 1e-12  # is_diagonal: off-diagonal mass <= DIAGONAL_RTOL |trace|
PSD_RTOL = 1e-9        # psd_violation: lambda_min >= -PSD_RTOL max(1, max |M_ij|) is PSD


def hermitian(a, *, name: str = "matrix", n: int | None = None) -> np.ndarray:
    """Validate and symmetrize a square array (n x n if given) into an exact Hermitian matrix.

    Stores (H + H^dagger)/2, which silently absorbs round-off in the input
    without changing already-Hermitian matrices.  Asymmetry beyond
    HERMITIAN_TOL raises; any non-finite entry raises.
    """
    try:
        H = np.asarray(a, dtype=complex)
    except (TypeError, ValueError):     # no number, or a ragged nesting
        raise InputError(f"{name} must be a matrix of numbers, got {reprlib.repr(a)}") from None
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError(f"{name} must be square, got shape {H.shape}")
    if n is not None and H.shape[0] != n:
        raise InputError(f"{name} must be {n} x {n}, got shape {H.shape}")
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
    """(H + H^dagger)/2, exactly Hermitian, without validation.

    For matrices the library computed itself, whose round-off asymmetry is
    not an input error however badly conditioned the product.  The diagonal
    of H + H^dagger is exactly real in IEEE arithmetic: b + (-b) = +0.
    """
    return 0.5 * (H + H.conj().T)


def _real_embed(M):
    """[[Re M, -Im M], [Im M, Re M]]: M acting on [Re z; Im z]."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def is_diagonal(M) -> bool:
    """True when M's off-diagonal mass is negligible against its trace."""
    off = M - np.diag(np.diag(M))
    return _negligible(np.abs(off).sum(), np.trace(M))


def _negligible(mass, trace) -> bool:
    """is_diagonal's test of an off-diagonal mass against a trace."""
    return bool(mass <= DIAGONAL_RTOL * max(np.abs(trace), 1e-300))


def psd_violation(M) -> float:
    """lambda_min(M) when the Hermitian M fails the package's PSD test, else 0.0.
    The test is relative: at entries near 1e8 an absolute one rejects round-off."""
    lam = float(np.linalg.eigvalsh(M)[0])
    return lam if lam < -PSD_RTOL * max(1.0, np.abs(M).max()) else 0.0


_MAX = float(np.finfo(float).max)
_REAL = (float, int, np.floating, np.integer)
_INTEGER = (int, np.integer)
# scalar kind: (description, the types it takes, its test of a value of them);
# check_vector's real kinds are the first three's tests, applied entrywise
SCALAR_KINDS = {
    "number": ("a number", _REAL, lambda v: (v >= -_MAX) & (v <= _MAX)),
    "positive": ("a positive number", _REAL, lambda v: (v > 0) & (v <= _MAX)),
    "nonnegative": ("a nonnegative number", _REAL, lambda v: (v >= 0) & (v <= _MAX)),
    "count": ("an integer >= 1", _INTEGER, lambda v: v >= 1),
    "seed": ("a non-negative integer below 2**64", _INTEGER, lambda v: 0 <= v < 2 ** 64),
}


def check_scalar(v, *, name: str, kind: str = "number"):
    """v as a scalar of ``kind`` (a key of SCALAR_KINDS): a finite Python float, or
    an int for "count" and "seed", which take no float.  A numpy scalar or 0-d
    array is one; a bool, a string, None, a complex number or other array is not."""
    what, types, test = SCALAR_KINDS[kind]
    x = v.item() if isinstance(v, np.ndarray) and v.ndim == 0 else v
    if isinstance(x, types) and not isinstance(x, bool) and test(x):
        return int(x) if types is _INTEGER else float(x)
    raise InputError(f"{name} must be {what}, got {reprlib.repr(v)}")


def check_vector(v, *, name: str = "vector", n: int | None = None,
                 kind: str | None = None) -> np.ndarray:
    """v as a complex 1-D array of one or more (n if given) finite numbers, a
    scalar being one, or given a real ``kind`` ("nonnegative" or "positive")
    as a float array of entries of that kind, which takes no complex entry."""
    try:
        a = np.asarray(v)
    except ValueError:      # a ragged nesting
        a = None
    if a is None or a.dtype.kind not in ("iuf" if kind else "iufc") or a.ndim > 1:
        what = f"a vector of {kind} numbers" if kind else "a vector of numbers"
        raise InputError(f"{name} must be {what}, got {reprlib.repr(v)}")
    a = np.asarray(a, dtype=float if kind else complex).ravel()
    if n is not None and a.size != n:
        raise InputError(f"{name} has length {a.size}, expected {n}")
    if a.size < 1:
        raise InputError(f"{name} must have length >= 1")
    if kind is not None and not SCALAR_KINDS[kind][2](a).all():
        raise InputError(f"{name} must be {kind} and finite, got {reprlib.repr(v)}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def check_type(v, kind, *, name: str):
    """v if it is a ``kind`` (a class or a tuple of classes), else an InputError naming ``name``."""
    if not isinstance(v, kind):
        what = " or ".join(("an " if k.__name__[0] in "AEIOU" else "a ") + k.__name__
                           for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise InputError(f"{name} must be {what}, got a {type(v).__name__}")
    return v


def qform(H, v) -> float:
    """Real quadratic form v^dagger H v for Hermitian H."""
    v = np.asarray(v, dtype=complex).ravel()
    return float(np.real(v.conj() @ H @ v))
