import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybeam import fixtures
from relaybeam.channel import (BeamformingSolution, ChannelStats, RicianParams,
                               build_stats, powers, snr)
from relaybeam.errors import InputError
from relaybeam.linalg import qform
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem
from conftest import is_psd, monte_carlo_stats, rand_stats


class TestBuildStats:
    def test_pure_rayleigh_unit_variance(self):
        n = 4
        p = RicianParams(f_mean=np.zeros(n), f_var=np.ones(n),
                         g_mean=np.zeros(n), g_var=np.ones(n))
        s = build_stats(p)
        assert np.allclose(s.D, 1.0)
        assert np.allclose(s.Q, np.eye(n))
        assert np.allclose(s.R, np.eye(n))
        assert s.is_diagonal()

    def test_single_relay_unit_modulus(self):
        p = RicianParams(f_mean=[1.0], f_var=[0.0], g_mean=[1j], g_var=[0.0])
        s = build_stats(p)
        assert np.isclose(s.D[0], 1.0)
        assert np.isclose(s.Q[0, 0], 1.0)
        assert np.isclose(s.R[0, 0], 1.0)

    def test_fixture_psd_and_diag_consistency(self):
        for case in (1, 2):
            s = build_stats(fixtures.total_fixture(case))
            assert is_psd(s.R)
            assert is_psd(s.Q)
            # R_ii factorizes as D_ii * Q_ii in the Rician construction
            assert np.allclose(np.diag(s.R).real, s.D * np.diag(s.Q).real)

    @pytest.mark.parametrize("case", [1, 2])
    def test_as_checked_by_channel_stats(self, case):
        # build_stats skips ChannelStats' caller-input checks; running them
        # would change no bit of D, R or Q
        s = build_stats(fixtures.total_fixture(case), 0.7)
        checked = ChannelStats(D=s.D, R=s.R, Q=s.Q, sigma2=s.sigma2)
        for name in ("D", "R", "Q"):
            assert np.array_equal(getattr(s, name), getattr(checked, name))
        assert s.sigma2 == checked.sigma2 == 0.7

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
    def test_bad_sigma2_rejected(self, sigma2):
        with pytest.raises(InputError, match="sigma2 must be positive and finite"):
            build_stats(fixtures.total_fixture(1), sigma2)

    def test_negative_variance_rejected(self):
        with pytest.raises(InputError):
            RicianParams(f_mean=[1.0], f_var=[-0.1], g_mean=[1.0], g_var=[0.0])


class TestSnr:
    def test_zero_weights(self, rng):
        s = rand_stats(rng, 3)
        assert snr(s, 1.0, np.zeros(3)) == 0.0

    def test_scalar_case(self):
        from relaybeam.channel import ChannelStats
        s = ChannelStats(D=np.ones(2), R=np.eye(2), Q=np.eye(2), sigma2=1.0)
        w = np.array([1.0, 0.0])
        assert snr(s, 1.0, w) == pytest.approx(0.5)

    @given(theta=st.floats(0.0, 2 * np.pi, allow_nan=False))
    @settings(deadline=None, max_examples=30)
    def test_phase_invariance(self, theta):
        rng = np.random.default_rng(7)
        s = rand_stats(rng, 4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v0 = snr(s, 2.0, w)
        v1 = snr(s, 2.0, np.exp(1j * theta) * w)
        assert v1 == pytest.approx(v0, rel=1e-12)

    def test_scaling_up_increases_snr(self, rng):
        # the monotonicity the reductions rely on: snr(beta w) > snr(w), beta > 1
        for _ in range(20):
            s = rand_stats(rng, 4)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            if qform(s.R, w) <= 0:
                continue
            beta = rng.uniform(1.01, 3.0)
            assert snr(s, 1.5, beta * w) > snr(s, 1.5, w)


class TestPowers:
    def test_zero(self, rng):
        s = rand_stats(rng, 3)
        total, per = powers(s, 1.0, np.zeros(3))
        assert total == 0.0
        assert np.allclose(per, 0.0)

    def test_unit_diagonal_identity(self):
        from relaybeam.channel import ChannelStats
        s = ChannelStats(D=np.ones(2), R=np.eye(2), Q=np.eye(2), sigma2=1.0)
        w = np.array([1.0, 1j]) / np.sqrt(2)
        total, per = powers(s, 1.0, w)
        assert total == pytest.approx(2.0 * np.vdot(w, w).real)

    def test_sum_identity(self, rng):
        s = rand_stats(rng, 5)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        total, per = powers(s, 1.3, w)
        assert total == pytest.approx(per.sum(), rel=1e-12)


class TestMonteCarlo:
    def test_deterministic_channels_exact(self):
        p = RicianParams(f_mean=[1.0 + 1j, 0.5], f_var=[0.0, 0.0],
                         g_mean=[2.0, 1j], g_var=[0.0, 0.0])
        D, R, Q = monte_carlo_stats(p, samples=10, seed=0)
        h = np.array([1.0 + 1j, 0.5]) * np.array([2.0, 1j])
        g = np.array([2.0, 1j])
        assert np.allclose(R, np.outer(h, h.conj()))
        assert np.allclose(Q, np.outer(g, g.conj()))
        assert np.allclose(D, np.abs([1.0 + 1j, 0.5]) ** 2)

    def test_seed_determinism(self):
        p = RicianParams(f_mean=np.zeros(3), f_var=np.ones(3),
                         g_mean=np.zeros(3), g_var=np.ones(3))
        out1 = monte_carlo_stats(p, samples=500, seed=42)
        out2 = monte_carlo_stats(p, samples=500, seed=42)
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)

    def test_rayleigh_unit_variance_clt(self):
        n = 4
        p = RicianParams(f_mean=np.zeros(n), f_var=np.ones(n),
                         g_mean=np.zeros(n), g_var=np.ones(n))
        _, R_hat, _ = monte_carlo_stats(p, samples=10 ** 5, seed=3)
        assert np.abs(R_hat - np.eye(n)).max() <= 0.05


def test_beamforming_solution_snr_db():
    sol = BeamformingSolution(w=np.ones(2, dtype=complex), Ps=1.0, snr=100.0)
    assert sol.snr_db == pytest.approx(20.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["Ps", "P", "P0", "D", "sigma2"])
def test_non_finite_budget_or_statistic_names_field(field, bad):
    def stats(D=(1.0, 1.0), sigma2=1.0):
        return ChannelStats(D=np.array(D), R=np.eye(2), Q=np.eye(2), sigma2=sigma2)

    build = {"Ps": lambda: IndivPowerProblem(stats=stats(), Ps=bad, P=[1.0, 1.0]),
             "P": lambda: IndivPowerProblem(stats=stats(), Ps=1.0, P=[bad, 1.0]),
             "P0": lambda: TotalPowerProblem(stats=stats(), P0=bad),
             "D": lambda: stats(D=(bad, 1.0)),
             "sigma2": lambda: stats(sigma2=bad)}
    with pytest.raises(InputError, match=rf"^{field} must"):
        build[field]()
