import numpy as np
import pytest

from relaybeam.errors import InputError
from relaybeam.linalg import hermitian, hermitian_eig, is_psd, qform
from conftest import rand_pd, rand_psd


def char_poly_roots(H):
    """Independent oracle: eigenvalues as roots of det(H - lambda I)."""
    coeffs = np.poly(H)          # characteristic polynomial coefficients
    roots = np.roots(coeffs)
    return np.sort(roots.real)


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        assert dec.spectral_gap == 0.0

    def test_diag_sorted_ascending(self):
        dec = hermitian_eig(np.diag([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, 2.0])
        # eigenvectors are the permuted standard basis
        assert np.allclose(np.abs(dec.eigenvectors), [[0, 1], [1, 0]])

    def test_matches_char_poly_oracle(self, rng):
        for _ in range(10):
            H = rand_psd(rng, 4) - 0.7 * np.eye(4)
            dec = hermitian_eig(H)
            expected = char_poly_roots(H)
            assert np.allclose(dec.eigenvalues, expected, rtol=1e-8, atol=1e-10)

    def test_eigen_equation_and_orthonormality(self, rng):
        H = rand_psd(rng, 6)
        dec = hermitian_eig(H)
        scale = np.linalg.norm(H)
        for i in range(6):
            v = dec.eigenvectors[:, i]
            assert np.linalg.norm(H @ v - dec.eigenvalues[i] * v) <= 1e-10 * scale
        G = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(G - np.eye(6)).max() <= 1e-10

    def test_reconstruction(self, rng):
        H = rand_psd(rng, 5)
        dec = hermitian_eig(H)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.abs(rebuilt - H).max() <= 1e-9 * np.linalg.norm(H)

    def test_trace_and_det_consistency(self, rng):
        H = rand_pd(rng, 4)
        dec = hermitian_eig(H)
        assert np.isclose(dec.eigenvalues.sum(), np.trace(H).real, rtol=1e-8)
        assert np.isclose(np.prod(dec.eigenvalues), np.linalg.det(H).real, rtol=1e-8)

    def test_deterministic(self, rng):
        H = rand_psd(rng, 5)
        d1 = hermitian_eig(H)
        d2 = hermitian_eig(H)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_finite(self):
        H = np.eye(3, dtype=complex)
        H[0, 0] = np.nan
        with pytest.raises(InputError):
            hermitian_eig(H)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            hermitian(np.array([[1.0, 2.0], [3.0, 1.0]]))


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3), tol=1e-9)

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]), tol=1e-9)

    def test_rank_one_gram(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert is_psd(np.outer(v, v.conj()))


def test_qform_real(rng):
    H = rand_psd(rng, 3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert qform(H, v) == pytest.approx(np.real(v.conj() @ H @ v))
