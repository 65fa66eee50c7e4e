import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybeam import fixtures
from relaybeam.channel import ChannelStats, RicianParams, build_stats, snr
from relaybeam.errors import DegenerateSpectrumError, DispatchError
from relaybeam.problems import TotalPowerProblem
from relaybeam.linalg import is_psd
from relaybeam.oracle import finite_diff, finite_diff_second
from relaybeam.total_power import (SPair, bracket_x, build_s_pair,
                                   eig_derivatives, lambda_min_g, newton_solve,
                                   objective_value, solve, solve_diagonal)
from conftest import rand_total_problem


def fixture_problem(case):
    stats = build_stats(fixtures.total_fixture(case),
                        fixtures.TOTAL_ASSUMED_SIGMA2)
    return TotalPowerProblem(stats=stats, P0=fixtures.TOTAL_ASSUMED_P0)


def scan_snr(stats, P0, points=1001, zooms=2):
    """Independent dense scan of the best SNR over x = Ps/P0.

    For fixed x the relays spend (1-x) P0 and the best weights give
    (x P0/sigma^2) lambda_max(R, Q + (x P0 D + sigma^2 I)/((1-x) P0)); the
    grid is refined ``zooms`` times around its best point.
    """
    xs = np.linspace(0.0, 1.0, points + 2)[1:-1]
    best = -np.inf
    for _ in range(zooms + 1):
        bump = (xs[:, None] * P0 * stats.D + stats.sigma2) / ((1.0 - xs)[:, None] * P0)
        Li = np.linalg.inv(np.linalg.cholesky(stats.Q + bump[:, :, None] * np.eye(stats.n)))
        lam = np.linalg.eigvalsh(Li @ stats.R @ np.conj(np.swapaxes(Li, 1, 2)))[:, -1]
        vals = xs * P0 / stats.sigma2 * lam
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], points)
    return best


def los_problem(n, var, P0, seed):
    """Rician links with line-of-sight gains of modulus 0.5..2 and random
    phase, plus scattering of variance ``var`` on every link; sigma^2 = 1.

    Moduli bounded away from 0 keep lambda_min(R) >= var/2, above the
    R > 0 cut of build_s_pair; a relay whose mean gains are both weak makes
    R numerically singular, which build_s_pair rejects with SingularityError.
    """
    rng = np.random.default_rng(seed)

    def los():
        return rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))

    params = RicianParams(f_mean=los(), f_var=np.full(n, var),
                          g_mean=los(), g_var=np.full(n, var))
    return TotalPowerProblem(stats=build_stats(params, 1.0), P0=P0)


class TestBuildSPair:
    def test_zero_d_zero_q(self):
        stats = ChannelStats(D=np.zeros(3), R=np.eye(3), Q=np.zeros((3, 3)),
                             sigma2=1.0)
        s = build_s_pair(TotalPowerProblem(stats=stats, P0=1.0))
        assert np.allclose(s.S1, np.eye(3))
        assert np.allclose(s.S2, np.eye(3))

    def test_diagonal_algebra(self, rng):
        n = 4
        Rd = rng.uniform(0.5, 2.0, n)
        Qd = rng.uniform(0.5, 2.0, n)
        D = rng.uniform(0.1, 2.0, n)
        sigma2, P0 = 1.3, 7.0
        stats = ChannelStats(D=D, R=np.diag(Rd).astype(complex),
                             Q=np.diag(Qd).astype(complex), sigma2=sigma2)
        s = build_s_pair(TotalPowerProblem(stats=stats, P0=P0))
        assert np.allclose(np.diag(s.S1).real, (D + sigma2 / P0) / Rd)
        assert np.allclose(np.diag(s.S2).real, (Qd + sigma2 / P0) / Rd)

    def test_fixture_positive_definite(self):
        for case in (1, 2):
            s = build_s_pair(fixture_problem(case))
            assert is_psd(s.S1 - 1e-12 * np.eye(6))
            assert is_psd(s.S2 - 1e-12 * np.eye(6))


class TestBracket:
    def test_equal_matrices(self, rng):
        from conftest import rand_pd
        S = rand_pd(rng, 3)
        s = SPair(S1=S, S2=S.copy(), R_inv_sqrt=np.eye(3))
        xl, xu = bracket_x(s)
        assert xl == pytest.approx(0.5, abs=1e-12)
        assert xu == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("case", [1, 2])
    def test_fixture_brackets(self, case):
        s = build_s_pair(fixture_problem(case))
        xl, xu = bracket_x(s)
        exp = fixtures.TOTAL_EXPECT[case]["bracket"]
        assert xl == pytest.approx(exp[0], abs=5e-3)
        assert xu == pytest.approx(exp[1], abs=5e-3)

    def test_bracket_monotonicity_outside(self, rng):
        # lambda_min(K) strictly increases moving left of x_l / right of x_u
        for _ in range(10):
            p = rand_total_problem(rng, 4)
            s = build_s_pair(p)
            xl, xu = bracket_x(s)
            for x in np.linspace(0.02, xl, 5):
                delta = min(0.01, x / 2)
                assert (lambda_min_g(s, x - delta)[0]
                        > lambda_min_g(s, x)[0] - 1e-12)
            for x in np.linspace(xu, 0.98, 5):
                delta = min(0.01, (1 - x) / 2)
                assert (lambda_min_g(s, x + delta)[0]
                        > lambda_min_g(s, x)[0] - 1e-12)


class TestLambdaMin:
    def test_degenerate_identity_pair(self):
        s = SPair(S1=np.eye(2), S2=np.eye(2), R_inv_sqrt=np.eye(2))
        val, u0, gap = lambda_min_g(s, 0.5)
        assert val == pytest.approx(4.0)
        assert gap == pytest.approx(0.0)

    def test_diagonal_value(self, rng):
        a = rng.uniform(0.5, 2.0, 3)
        b = rng.uniform(0.5, 2.0, 3)
        s = SPair(S1=np.diag(a).astype(complex), S2=np.diag(b).astype(complex),
                  R_inv_sqrt=np.eye(3))
        x = 0.37
        val, _, _ = lambda_min_g(s, x)
        assert val == pytest.approx((a / (1 - x) + b / x).min())


class TestEigDerivatives:
    def test_scalar_case(self):
        a, b = 1.4, 0.6
        s = SPair(S1=np.array([[a]], dtype=complex),
                  S2=np.array([[b]], dtype=complex), R_inv_sqrt=np.eye(1))
        x = 0.3
        d1, d2 = eig_derivatives(s, x)
        assert d1 == pytest.approx(a / (1 - x) ** 2 - b / x ** 2, rel=1e-12)
        assert d2 == pytest.approx(2 * a / (1 - x) ** 3 + 2 * b / x ** 3, rel=1e-12)

    def test_matches_finite_differences(self, rng):
        hits = 0
        for _ in range(60):
            p = rand_total_problem(rng, 4)
            s = build_s_pair(p)
            xl, xu = bracket_x(s)
            x = float(rng.uniform(xl, xu))
            try:
                d1, d2 = eig_derivatives(s, x)
            except DegenerateSpectrumError:
                continue
            f = lambda xv: lambda_min_g(s, float(xv))[0]
            fd1 = finite_diff(f, x, h=1e-5)
            fd2 = finite_diff_second(f, x, h=1e-4)
            assert d1 == pytest.approx(fd1, rel=1e-4, abs=1e-6)
            assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-4)
            hits += 1
        assert hits >= 50

    def test_degenerate_raises(self):
        s = SPair(S1=np.eye(2), S2=np.eye(2), R_inv_sqrt=np.eye(2))
        with pytest.raises(DegenerateSpectrumError):
            eig_derivatives(s, 0.5)

    def test_stationary_point_small_d1(self):
        p = fixture_problem(1)
        s = build_s_pair(p)
        xl, _ = bracket_x(s)
        sol = newton_solve(p, xl, s=s)
        d1, _ = eig_derivatives(s, sol.x)
        assert abs(d1) <= 1e-3


class TestNewton:
    @pytest.mark.parametrize("case", [1, 2])
    def test_fixture_convergence(self, case):
        p = fixture_problem(case)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        exp = fixtures.TOTAL_EXPECT[case]
        for key, x0 in (("from_xl", xl), ("from_xu", xu)):
            sol = newton_solve(p, x0, s=s)
            assert sol.x == pytest.approx(exp[key][0], abs=5e-3)
            assert sol.lambda_min == pytest.approx(exp[key][1], abs=5e-3)
            assert sol.iterations <= 30

    def test_budget_saturation(self, rng):
        for _ in range(10):
            p = rand_total_problem(rng, 4)
            sol = solve(p)
            used = sol.Ps * (1.0 + np.real(sol.w.conj() @ np.diag(p.stats.D)
                                           @ sol.w)) \
                + p.stats.sigma2 * np.vdot(sol.w, sol.w).real
            assert used == pytest.approx(p.P0, rel=1e-6)

    def test_objective_equivalence_chain(self, rng):
        # the scalar objective equals the recomputed SNR of the scaled weights
        for _ in range(10):
            p = rand_total_problem(rng, 5)
            sol = solve(p)
            assert sol.snr == pytest.approx(
                objective_value(p, sol.x, sol.lambda_min), rel=1e-8)
            assert sol.snr == pytest.approx(snr(p.stats, sol.Ps, sol.w), rel=1e-12)

    def test_trace_columns(self):
        p = fixture_problem(1)
        s = build_s_pair(p)
        xl, _ = bracket_x(s)
        sol = newton_solve(p, xl, s=s)
        assert sol.trace.columns == ("k", "x", "lambda_min", "d1", "d2", "step")
        assert len(sol.trace) == sol.iterations
        csv = sol.trace.to_csv()
        assert csv.splitlines()[0] == "k,x,lambda_min,d1,d2,step"

    def test_rejects_start_outside_bracket(self):
        p = fixture_problem(1)
        with pytest.raises(ValueError):
            newton_solve(p, 0.999)


class TestDiagonal:
    def test_single_relay_symmetric(self):
        stats = ChannelStats(D=np.ones(1), R=np.eye(1), Q=np.eye(1), sigma2=1.0)
        # a1 = b1 = (1 + sigma2/P0)/1 with P0 chosen so sigma2/P0 = 0 limit is
        # approached; easier: exact symmetric instance via D = Q diag entries
        p = TotalPowerProblem(stats=stats, P0=1000.0)
        sol = solve_diagonal(p)
        assert sol.x == pytest.approx(0.5, abs=1e-3)

    def test_min_selection(self):
        # S1 = diag(1, 4), S2 = diag(1, 1): scores (4, 9) => k0 = 0, x = 1/2
        s = SPair(S1=np.diag([1.0, 4.0]).astype(complex),
                  S2=np.diag([1.0, 1.0]).astype(complex), R_inv_sqrt=np.eye(2))
        stats = ChannelStats(D=np.ones(2), R=np.eye(2), Q=np.eye(2), sigma2=1.0)
        p = TotalPowerProblem(stats=stats, P0=10.0)
        sol = solve_diagonal(p, s=s)
        assert sol.x == pytest.approx(0.5, abs=1e-12)
        assert np.argmax(np.abs(sol.w)) == 0

    def test_dispatch_error_for_dense(self):
        p = fixture_problem(1)
        s = build_s_pair(p)
        with pytest.raises(DispatchError):
            solve_diagonal(p, s=s)

    def test_solve_routes_diagonal(self, rng):
        p = rand_total_problem(rng, 3, diagonal=True)
        sol = solve(p)
        ref = solve_diagonal(p)
        assert sol.x == pytest.approx(ref.x, abs=1e-12)

    def test_multistart_picks_better_basin(self):
        # fixture 1 has two stationary points; the smaller lambda_min wins
        sol = solve(fixture_problem(1))
        assert sol.x == pytest.approx(0.2156, abs=5e-3)
        assert sol.lambda_min == pytest.approx(1.2191, abs=5e-3)

    def test_newton_matches_closed_form(self, rng):
        # cross-solver agreement on diagonal instances
        for _ in range(25):
            p = rand_total_problem(rng, int(rng.integers(2, 5)), diagonal=True)
            s = build_s_pair(p)
            ref = solve_diagonal(p, s=s)
            xl, xu = bracket_x(s)
            runs = [newton_solve(p, x0, s=s) for x0 in (xl, xu)]
            best = max(runs, key=lambda r: r.snr)
            assert best.x == pytest.approx(ref.x, abs=1e-6)
            assert best.snr == pytest.approx(ref.snr, rel=1e-6)


class TestLineOfSight:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 8), log_var=st.floats(-9.0, -3.0),
           log_ratio=st.floats(-2.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=4, log_var=-9.0, log_ratio=1.0, seed=4)
    @example(n=6, log_var=-9.0, log_ratio=1.0, seed=6)
    @example(n=16, log_var=-9.0, log_ratio=1.0, seed=16)
    def test_near_los_matches_dense_scan(self, n, log_var, log_ratio, seed):
        # at variance 1e-9 the internal product S1^-1/2 S2 S1^-1/2 is badly
        # conditioned; its round-off asymmetry is not an input error
        p = los_problem(n, 10.0 ** log_var, 10.0 ** log_ratio, seed)
        sol = solve(p)
        assert sol.snr >= (1.0 - 1e-6) * scan_snr(p.stats, p.P0)

    def test_identical_relays_take_golden_section(self):
        # identical relays make lambda_min(G(x)) degenerate, so Newton hands
        # over to the golden-section scan of the bracket
        params = RicianParams(f_mean=np.full(3, 0.7 + 0.2j), f_var=np.full(3, 0.8),
                              g_mean=np.full(3, -0.3 + 0.9j), g_var=np.full(3, 1.3))
        p = TotalPowerProblem(stats=build_stats(params, 1.0), P0=10.0)
        sol = solve(p)
        assert any("golden" in note for note in sol.trace.notes)
        assert sol.snr == pytest.approx(scan_snr(p.stats, p.P0), rel=1e-6)
