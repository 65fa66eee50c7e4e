import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relaybeam.errors import InputError
from relaybeam.linalg import hermitian, qform, symmetrize
from conftest import is_psd, rand_psd


class TestHermitian:
    def test_rejects_non_finite(self):
        H = np.eye(3, dtype=complex)
        H[0, 0] = np.nan
        with pytest.raises(InputError):
            hermitian(H)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            hermitian(np.array([[1.0, 2.0], [3.0, 1.0]]))


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]))

    def test_rank_one_gram(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert is_psd(np.outer(v, v.conj()))


def test_qform_real(rng):
    H = rand_psd(rng, 3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert qform(H, v) == pytest.approx(np.real(v.conj() @ H @ v))


@given(st.integers(1, 6).flatmap(lambda n: arrays(
    complex, (n, n), elements=st.complex_numbers(max_magnitude=1e300, allow_infinity=False,
                                                 allow_nan=False))))
def test_symmetrize_is_exactly_hermitian(H):
    # the diagonal of H + H^H is exactly real without a fix-up: b + (-b) = +0
    S = symmetrize(H)
    assert np.array_equal(S, S.conj().T)
    assert not S.diagonal().imag.any()
