import numpy as np
import pytest
from scipy.optimize import brentq

from relaybeam.channel import ChannelStats, snr
from relaybeam.errors import InputError
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.problems import IndivPowerProblem
from conftest import dinkelbach_F, rand_indiv_problem


def scalar_problem():
    # N=1, r = q = 1, full-cap |w|^2 = 1, Ps/sigma2 = 1: F(t) = -t + (1-t)^+
    stats = ChannelStats(D=np.ones(1), R=np.eye(1), Q=np.eye(1), sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=np.array([2.0]))


class TestDinkelbachF:
    def test_positive_at_zero(self, rng):
        for _ in range(10):
            p = rand_indiv_problem(rng, 4, diagonal=True)
            assert dinkelbach_F(p, 0.0) > 0

    def test_negative_at_largest_breakpoint(self, rng):
        for _ in range(10):
            p = rand_indiv_problem(rng, 4, diagonal=True)
            r = np.diag(p.stats.R).real
            q = np.diag(p.stats.Q).real
            t_max = (p.Ps * r / (p.stats.sigma2 * q)).max()
            assert dinkelbach_F(p, t_max) == pytest.approx(-t_max, rel=1e-9)

    def test_scalar_instance(self):
        p = scalar_problem()
        assert dinkelbach_F(p, 0.25) == pytest.approx(0.5)
        assert dinkelbach_F(p, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_strictly_decreasing(self, rng):
        for _ in range(20):
            p = rand_indiv_problem(rng, 5, diagonal=True)
            t1, t2 = sorted(rng.uniform(0.0, 3.0, 2))
            if t2 - t1 < 1e-9:
                continue
            assert dinkelbach_F(p, t1) > dinkelbach_F(p, t2)

    def test_dispatch_error_for_dense(self, rng):
        p = rand_indiv_problem(rng, 3, diagonal=False)
        with pytest.raises(InputError, match="R or Q is not diagonal"):
            dinkelbach_F(p, 1.0)


class TestSolveDiagonal:
    def test_scalar_closed_form(self):
        sol = solve_diagonal(scalar_problem())
        assert sol.snr == pytest.approx(0.5, rel=1e-12)
        assert np.abs(sol.w[0]) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_matches_bisection_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            p = rand_indiv_problem(rng, n, diagonal=True)
            sol = solve_diagonal(p)
            r = np.diag(p.stats.R).real
            q = np.diag(p.stats.Q).real
            hi = float((p.Ps * r / (p.stats.sigma2 * q)).max())
            t_star = brentq(lambda t: dinkelbach_F(p, t), 0.0, hi,
                            xtol=1e-14)
            assert sol.snr == pytest.approx(t_star, rel=1e-9, abs=1e-12)

    def test_root_properties(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            p = rand_indiv_problem(rng, n, diagonal=True)
            sol = solve_diagonal(p)
            r = np.diag(p.stats.R).real
            q = np.diag(p.stats.Q).real
            t_max = (p.Ps * r / (p.stats.sigma2 * q)).max()
            # root bracketing and residual
            assert 0 < sol.snr < t_max
            assert abs(dinkelbach_F(p, sol.snr)) <= 1e-9
            # active set: full cap above the root's breakpoint, silent below
            tk = p.Ps * r / (p.stats.sigma2 * q)
            cap2 = p.P / (p.Ps * p.stats.D + p.stats.sigma2)
            on = tk > sol.snr + 1e-12
            off = tk < sol.snr - 1e-12
            assert np.allclose(np.abs(sol.w[on]) ** 2, cap2[on], rtol=1e-12)
            assert np.allclose(np.abs(sol.w[off]), 0.0)

    def test_snr_equals_root_via_formula(self, rng):
        p = rand_indiv_problem(rng, 4, diagonal=True)
        sol = solve_diagonal(p)
        assert snr(p.stats, p.Ps, sol.w) == pytest.approx(sol.snr, rel=1e-12)

    def test_feasible_with_nonneg_slacks(self, rng):
        p = rand_indiv_problem(rng, 5, diagonal=True)
        sol = solve_diagonal(p)
        assert sol.feasibility.min() >= -1e-9

    def test_zero_numerator_degenerate(self):
        stats = ChannelStats(D=np.ones(2), R=np.zeros((2, 2)),
                             Q=np.eye(2), sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.ones(2))
        sol = solve_diagonal(p)
        assert sol.snr == 0.0
        assert np.allclose(sol.w, 0.0)

    def test_relay_without_signal_or_noise_stays_silent(self):
        # R_kk = Q_kk = 0 puts no finite breakpoint on relay 2 and adds
        # nothing to either sum: it stays silent, with no 0/0 on the way
        stats = ChannelStats(D=np.ones(2), R=np.diag([1.0, 0.0]).astype(complex),
                             Q=np.diag([1.0, 0.0]).astype(complex), sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.array([2.0, 2.0]))
        sol = solve_diagonal(p)
        assert sol.snr == pytest.approx(0.5, rel=1e-12)
        assert sol.w[1] == 0
        assert abs(dinkelbach_F(p, sol.snr)) <= 1e-12

    def test_zero_q_row_handled(self):
        # q_k = 0 with r_k > 0: breakpoint at infinity, root beyond the
        # finite breakpoints
        stats = ChannelStats(D=np.ones(2), R=np.diag([1.0, 1.0]).astype(complex),
                             Q=np.diag([1.0, 0.0]).astype(complex), sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.array([2.0, 2.0]))
        sol = solve_diagonal(p)
        assert abs(dinkelbach_F(p, sol.snr)) <= 1e-12
        assert sol.snr == pytest.approx(snr(p.stats, p.Ps, sol.w), rel=1e-12)
