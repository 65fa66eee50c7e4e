import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybeam import channel, fixtures, indiv_diag, total_power
from relaybeam.channel import ChannelStats, RicianParams, build_stats, snr
from relaybeam.errors import ConvergenceError, InputError, ModelError
from relaybeam.oracle import brute_force_total
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem
from relaybeam.total_power import (GAP_TOL, _target, bracket_x, build_s_pair,
                                   lambda_min_g, newton_solve, solve,
                                   solve_diagonal)
from conftest import (finite_diff, finite_diff_second, identical_relays_problem, is_psd,
                      low_k_problem, matrix_built, rand_pd, rand_stats, rand_total_problem,
                      scan_snr)


def fixture_problem(case):
    stats = build_stats(fixtures.total_fixture(case),
                        fixtures.TOTAL_ASSUMED_SIGMA2)
    return TotalPowerProblem(stats=stats, P0=fixtures.TOTAL_ASSUMED_P0)


def diagonal_stats(D, Rd, Qd, sigma2=1.0):
    return ChannelStats(D=np.asarray(D, dtype=float), R=np.diag(Rd).astype(complex),
                        Q=np.diag(Qd).astype(complex), sigma2=sigma2)


def identity_problem():
    """D = 0, R = I, Q = 0, sigma^2 = P0 = 1: B(x) = I/(1-x) + I/x, every
    eigenvalue repeated."""
    return TotalPowerProblem(stats=diagonal_stats(np.zeros(3), np.ones(3), np.zeros(3)),
                             P0=1.0)


def los_problem(n, var, P0, seed):
    """Rician links with CN(0, 1) line-of-sight gains plus scattering of
    variance ``var`` on every link; sigma^2 = 1.  At var = 0, R has rank
    one; a relay whose mean gains are both weak leaves R nearly singular.
    """
    rng = np.random.default_rng(seed)

    def los():
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)

    params = RicianParams(f_mean=los(), f_var=np.full(n, var),
                          g_mean=los(), g_var=np.full(n, var))
    return TotalPowerProblem(stats=build_stats(params, 1.0), P0=P0)


def rician_problem(n, P0, seed):
    """n Rician relays with CN(0, 1) mean gains and per-link variances
    U(0.2, 2); sigma^2 = 1."""
    rng = np.random.default_rng(seed)

    def mean():
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)

    params = RicianParams(f_mean=mean(), f_var=rng.uniform(0.2, 2.0, n),
                          g_mean=mean(), g_var=rng.uniform(0.2, 2.0, n))
    return TotalPowerProblem(stats=build_stats(params, 1.0), P0=P0)


def near_diagonal_two_relay_problem(seed):
    """Two relays, each strong on one hop, whose objective has a stationary
    point near each bracket end: R = I plus real coupling U(1e-3, 1e-1),
    D = (10a, U(20, 200)), Q = diag(U(20, 200), 10a), a ~ U(0.5, 2),
    sigma^2 = 1, P0 = 10."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0)
    c = rng.uniform(1e-3, 1e-1)
    D = np.array([10.0 * a, rng.uniform(20.0, 200.0)])
    Q = np.diag([rng.uniform(20.0, 200.0), 10.0 * a]).astype(complex)
    R = np.array([[1.0, c], [c, 1.0]], dtype=complex)
    return TotalPowerProblem(stats=ChannelStats(D=D, R=R, Q=Q, sigma2=1.0), P0=10.0)


def two_full_runs(p):
    """The rule before the meeting stop: both endpoint runs to convergence,
    the x_u run kept only where its SNR is larger by more than 1e-12."""
    s = build_s_pair(p)
    run_l, run_u = (newton_solve(p, x0) for x0 in bracket_x(s))
    return run_u if run_u.snr > run_l.snr * (1.0 + 1e-12) else run_l


def count_lambda_min_g(monkeypatch):
    """Count the solver's lambda_min_g calls; a bracket scan would make
    about a hundred per run."""
    calls = []
    inner = total_power.lambda_min_g
    monkeypatch.setattr(total_power, "lambda_min_g",
                        lambda s, x: calls.append(x) or inner(s, x))
    return calls


def term_minimizer(x, lam, d1):
    """Minimizer of the term a/(1-x) + b/x with value lam and slope d1 at x."""
    a = (1.0 - x) ** 2 * (lam + x * d1)
    b = x ** 2 * (lam - (1.0 - x) * d1)
    return np.sqrt(b) / (np.sqrt(a) + np.sqrt(b))


def fitted_target(x, d1, d2):
    """Minimizer of a/(1-x) + b/x + C fitted to (d1, d2) at x, or Newton's
    x - d1/d2 where the fit has a <= 0 or b <= 0."""
    a = (d2 + 2.0 * d1 / x) * (1.0 - x) ** 3 * x / 2.0
    b = (d2 - 2.0 * d1 / (1.0 - x)) * x ** 3 * (1.0 - x) / 2.0
    if a <= 0 or b <= 0:
        return x - d1 / d2
    return np.sqrt(b) / (np.sqrt(a) + np.sqrt(b))


def assert_whitens(p, s):
    """basis^H (D + rI) basis = I, basis^H (Q + rI) basis = diag(lam) and
    basis^H R basis = Rt, so B(x) is diag(1/(1-x) + lam/x) in that basis."""
    st = p.stats
    r = st.sigma2 / p.P0
    T = s.basis
    assert np.allclose(T.conj().T @ np.diag(st.D + r) @ T, np.eye(st.n), atol=1e-10)
    assert np.allclose(T.conj().T @ (st.Q + r * np.eye(st.n)) @ T, np.diag(s.lam),
                       atol=1e-10 * s.lam[-1])
    assert np.allclose(T.conj().T @ st.R @ T, s.Rt, atol=1e-12)


class TestBuildSPair:
    def test_zero_d_zero_q(self):
        p = identity_problem()
        s = build_s_pair(p)
        assert np.allclose(s.lam, 1.0)
        assert np.allclose(s.Rt, np.eye(3))
        assert_whitens(p, s)

    def test_diagonal_algebra(self, rng):
        n = 4
        Rd = rng.uniform(0.5, 2.0, n)
        Qd = rng.uniform(0.5, 2.0, n)
        D = rng.uniform(0.1, 2.0, n)
        sigma2, P0 = 1.3, 7.0
        p = TotalPowerProblem(stats=diagonal_stats(D, Rd, Qd, sigma2), P0=P0)
        s = build_s_pair(p)
        r = sigma2 / P0
        assert np.allclose(s.lam, np.sort((Qd + r) / (D + r)))
        assert np.allclose(np.sort(np.diag(s.Rt).real), np.sort(Rd / (D + r)))
        assert_whitens(p, s)

    def test_fixture_positive_definite(self):
        for case in (1, 2):
            p = fixture_problem(case)
            s = build_s_pair(p)
            assert s.lam[0] > 1e-12
            assert is_psd(s.Rt)
            assert_whitens(p, s)

    def test_zero_r_is_a_model_error(self, rng):
        # no signal path: the SNR is 0 for every weight vector
        n = 3
        for Q in (rand_pd(rng, n), np.eye(n)):
            stats = ChannelStats(D=np.ones(n), R=np.zeros((n, n)), Q=Q, sigma2=1.0)
            with pytest.raises(ModelError):
                solve(TotalPowerProblem(stats=stats, P0=10.0))


class TestBracket:
    def test_equal_matrices(self, rng):
        # Q = diag(D) makes the pencil (Q + rI, D + rI) the identity
        D = rng.uniform(0.1, 2.0, 3)
        stats = ChannelStats(D=D, R=rand_pd(rng, 3), Q=np.diag(D).astype(complex))
        xl, xu = bracket_x(build_s_pair(TotalPowerProblem(stats=stats, P0=5.0)))
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
        val, _, _, _, gap = lambda_min_g(build_s_pair(identity_problem()), 0.5)
        assert val == pytest.approx(4.0)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_value(self, rng):
        Rd, Qd, D = (rng.uniform(0.5, 2.0, 3) for _ in range(3))
        sigma2, P0 = 0.8, 3.0
        s = build_s_pair(TotalPowerProblem(stats=diagonal_stats(D, Rd, Qd, sigma2), P0=P0))
        r = sigma2 / P0
        a, b = (D + r) / Rd, (Qd + r) / Rd
        x = 0.37
        assert lambda_min_g(s, x)[0] == pytest.approx((a / (1 - x) + b / x).min())

    def test_direction_attains_lambda_max(self, rng):
        # w^H R w / w^H B(x) w = mu(x) = 1/lambda_min(G(x)) for the returned w
        for _ in range(5):
            p = rand_total_problem(rng, 5)
            st, r = p.stats, p.stats.sigma2 / p.P0
            x = float(rng.uniform(0.1, 0.9))
            val, _, _, w, _ = lambda_min_g(build_s_pair(p), x)
            B = np.diag(st.D + r) / (1 - x) + (st.Q + r * np.eye(st.n)) / x
            ratio = np.vdot(w, st.R @ w).real / np.vdot(w, B @ w).real
            assert ratio == pytest.approx(1.0 / val, rel=1e-10)


class TestEigDerivatives:
    def test_scalar_case(self):
        # n = 1: lambda_min(G(x)) = a/(1-x) + b/x, a = (D + r)/R, b = (Q + r)/R
        stats = diagonal_stats([0.5], [0.75], [0.05], sigma2=2.0)
        p = TotalPowerProblem(stats=stats, P0=4.0)
        a, b = (0.5 + 0.5) / 0.75, (0.05 + 0.5) / 0.75
        x = 0.3
        _, d1, d2, _, gap = lambda_min_g(build_s_pair(p), x)
        assert d1 == pytest.approx(a / (1 - x) ** 2 - b / x ** 2, rel=1e-12)
        assert d2 == pytest.approx(2 * a / (1 - x) ** 3 + 2 * b / x ** 3, rel=1e-12)
        assert gap == np.inf

    def test_matches_finite_differences(self, rng):
        hits = 0
        for _ in range(60):
            p = rand_total_problem(rng, 4)
            s = build_s_pair(p)
            xl, xu = bracket_x(s)
            x = float(rng.uniform(xl, xu))
            _, d1, d2, _, gap = lambda_min_g(s, x)
            if gap <= GAP_TOL:
                continue
            f = lambda xv: lambda_min_g(s, float(xv))[0]
            fd1 = finite_diff(f, x, h=1e-5)
            fd2 = finite_diff_second(f, x, h=1e-4)
            assert d1 == pytest.approx(fd1, rel=1e-4, abs=1e-6)
            assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-4)
            hits += 1
        assert hits >= 50

    def test_degenerate_start_steps_to_the_term_minimizer(self, monkeypatch):
        # at a repeated eigenvalue d2 does not exist: the step goes to the
        # minimizer of the returned direction's term, here 1/(1-x) + 1/x
        p = identity_problem()
        calls = count_lambda_min_g(monkeypatch)
        sol = newton_solve(p, 0.5)
        assert len(calls) <= 30
        assert sol.x == pytest.approx(0.5)
        assert sol.lambda_min == pytest.approx(4.0)

    def test_rank_one_r_matches_finite_differences(self):
        # pure line of sight: R = g g^H, so mu(x) = g^H B(x)^{-1} g exactly
        for seed in range(5):
            p = los_problem(5, 0.0, 10.0 ** (seed - 1), seed)
            st, r = p.stats, p.stats.sigma2 / p.P0
            assert np.linalg.matrix_rank(st.R, tol=1e-10 * np.abs(st.R).max()) == 1
            wR, VR = np.linalg.eigh(st.R)
            g = np.sqrt(wR[-1]) * VR[:, -1]
            s = build_s_pair(p)
            xl, xu = bracket_x(s)
            for x in np.linspace(xl, xu, 5)[1:-1]:
                val, d1, d2, _, gap = lambda_min_g(s, x)
                assert gap == pytest.approx(1.0)
                B = np.diag(st.D + r) / (1 - x) + (st.Q + r * np.eye(st.n)) / x
                assert 1.0 / val == pytest.approx(
                    np.vdot(g, np.linalg.solve(B, g)).real, rel=1e-10)
                f = lambda xv: lambda_min_g(s, float(xv))[0]
                assert d1 == pytest.approx(finite_diff(f, x, h=1e-6), rel=1e-6, abs=1e-9)
                assert d2 == pytest.approx(finite_diff_second(f, x, h=1e-4),
                                           rel=1e-4, abs=1e-6)

    def test_one_eigh_per_newton_iterate(self, monkeypatch):
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append("eigh") or eigh(M))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda M: calls.append("eigvalsh") or eigvalsh(M))
        for case in (1, 2):
            p = fixture_problem(case)
            s = build_s_pair(p)
            calls.clear()
            for x0 in bracket_x(s):
                sol = newton_solve(p, x0)
                # one for the dense pair, one at the start point, then one per Newton step
                assert calls == ["eigh"] * (sol.iterations + 2)
                calls.clear()

    def test_stationary_point_small_d1(self):
        p = fixture_problem(1)
        s = build_s_pair(p)
        xl, _ = bracket_x(s)
        sol = newton_solve(p, xl)
        assert abs(lambda_min_g(s, sol.x)[1]) <= 1e-3


class TestNewton:
    @pytest.mark.parametrize("case", [1, 2])
    def test_fixture_convergence(self, case):
        p = fixture_problem(case)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        exp = fixtures.TOTAL_EXPECT[case]
        for key, x0 in (("from_xl", xl), ("from_xu", xu)):
            sol = newton_solve(p, x0)
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
            # (P0/sigma^2) mu(x) with mu = 1/lambda_min(G(x))
            assert sol.snr == pytest.approx(
                p.P0 / p.stats.sigma2 / sol.lambda_min, rel=1e-8)
            assert sol.snr == pytest.approx(snr(p.stats, sol.Ps, sol.w), rel=1e-12)

    def test_nonconvex_curvature_steps_to_the_term_minimizer(self, monkeypatch):
        # pinned by a seeded search: from x_l the path meets d2 <= 0 on this
        # instance, and those steps go to the top direction's term minimizer
        p = rand_total_problem(np.random.default_rng(352), 3)
        s = build_s_pair(p)
        calls = count_lambda_min_g(monkeypatch)
        sol = newton_solve(p, bracket_x(s)[0])
        assert len(calls) <= 30
        bent = [(x, lam, d1, step) for _, x, lam, d1, d2, step in sol.trace.rows if d2 <= 0]
        assert bent
        for x, lam, d1, step in bent:
            assert x + step == pytest.approx(term_minimizer(x, lam, d1), rel=1e-12)
        assert sol.snr >= (1.0 - 1e-6) * scan_snr(p.stats, p.P0)

    def test_target_outside_bracket_takes_the_term_minimizer(self):
        # pinned by a seeded search: from x_l the first fitted target of this
        # instance lies outside [x_l, x_u]
        p = rand_total_problem(np.random.default_rng(7), 2)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        sol = newton_solve(p, xl)
        _, x, lam, d1, d2, step = sol.trace.rows[0]
        assert d2 > 0 and lambda_min_g(s, x)[4] > GAP_TOL
        assert not xl <= fitted_target(x, d1, d2) <= xu
        assert x + step == pytest.approx(term_minimizer(x, lam, d1), rel=1e-12)
        assert sol.snr >= (1.0 - 1e-6) * scan_snr(p.stats, p.P0)

    def test_fit_without_interior_minimum_takes_newtons_step(self):
        # pinned by a seeded search: from x_u the first fit of this instance
        # has a <= 0 or b <= 0, and the step is Newton's -d1/d2
        p = rand_total_problem(np.random.default_rng(15), 2)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        sol = newton_solve(p, xu)
        _, x, lam, d1, d2, step = sol.trace.rows[0]
        assert d2 > 0 and lambda_min_g(s, x)[4] > GAP_TOL
        assert fitted_target(x, d1, d2) == x - d1 / d2
        assert xl <= x - d1 / d2 <= xu
        assert x + step == pytest.approx(x - d1 / d2, rel=1e-14)
        assert sol.snr >= (1.0 - 1e-6) * scan_snr(p.stats, p.P0)

    def test_trace_columns(self):
        p = fixture_problem(1)
        s = build_s_pair(p)
        xl, _ = bracket_x(s)
        sol = newton_solve(p, xl)
        assert sol.trace.columns == ("k", "x", "lambda_min", "d1", "d2", "step")
        assert len(sol.trace) == sol.iterations

    def test_rejects_start_outside_bracket(self):
        p = fixture_problem(1)
        with pytest.raises(InputError):
            newton_solve(p, 0.999)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_lambda_min_g_rejects_x_outside_unit_interval(self, x):
        with pytest.raises(InputError):
            lambda_min_g(build_s_pair(fixture_problem(1)), x)


class TestModelStep:
    @pytest.mark.parametrize("a, b, x", [(1.0, 1.0, 0.3), (4.0, 0.5, 0.8), (0.2, 7.0, 0.1),
                                         (1e-3, 2.0, 0.6), (3.0, 3e-2, 0.05)])
    def test_one_step_reaches_the_minimizer_of_an_exact_model(self, a, b, x):
        # d1, d2 of a/(1-x) + b/x: the fit recovers (a, b) and steps to its minimizer
        lam = a / (1.0 - x) + b / x
        d1 = a / (1.0 - x) ** 2 - b / x ** 2
        d2 = 2.0 * a / (1.0 - x) ** 3 + 2.0 * b / x ** 3
        x_star = np.sqrt(b) / (np.sqrt(a) + np.sqrt(b))
        assert _target(x, lam, d1, d2, 1.0, 0.0, 1.0) == pytest.approx(x_star, rel=1e-12)

    @pytest.mark.parametrize("x, d1, d2", [(0.5, -1.0, 1.0),   # fitted a < 0
                                           (0.5, 1.0, 1.0),    # fitted b < 0
                                           (0.25, -0.125, 1.0)])  # fitted a = 0
    def test_newton_step_without_interior_minimum(self, x, d1, d2):
        # an unbounded bracket, so only the fit decides
        assert _target(x, 2.0, d1, d2, 1.0, -np.inf, np.inf) == x - d1 / d2

    @pytest.mark.parametrize("x, d1, d2", [(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
    def test_newton_target_outside_bracket_takes_the_term_minimizer(self, x, d1, d2):
        # x - d1/d2 is 1.5 and -0.5, outside [0.1, 0.9]
        assert _target(x, 2.0, d1, d2, 1.0, 0.1, 0.9) == pytest.approx(
            term_minimizer(x, 2.0, d1), rel=1e-12)

    @pytest.mark.parametrize("gap, d2", [(0.0, 5.0), (GAP_TOL, -2.0), (0.0, np.nan),
                                         (1.0, 0.0), (1.0, -7.0)])
    @pytest.mark.parametrize("a, b, x", [(1.0, 1.0, 0.3), (4.0, 0.5, 0.8), (3.0, 3e-2, 0.05)])
    def test_untrusted_curvature_steps_to_the_term_through_lam_and_d1(self, a, b, x, gap, d2):
        # the term through (lam, d1) is a/(1-x) + b/x itself, whatever d2 says
        lam = a / (1.0 - x) + b / x
        d1 = a / (1.0 - x) ** 2 - b / x ** 2
        x_star = np.sqrt(b) / (np.sqrt(a) + np.sqrt(b))
        assert _target(x, lam, d1, d2, gap, 0.0, 1.0) == pytest.approx(x_star, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["random", "near-los", "identical"]), n=st.integers(2, 8),
           log_ratio=st.floats(-2.0, 4.0), u=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_term_minimizer_stays_in_bracket_and_never_raises_lambda_min(
            self, kind, n, log_ratio, u, seed):
        rng = np.random.default_rng(seed)
        if kind == "random":
            p = TotalPowerProblem(stats=rand_stats(rng, n), P0=10.0 ** log_ratio)
        elif kind == "near-los":
            p = los_problem(n, 1e-6, 10.0 ** log_ratio, seed)
        else:
            p = identical_relays_problem(n, 10.0 ** log_ratio)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        x = xl + u * (xu - xl)
        lam, d1, _, _, gap = lambda_min_g(s, x)
        t = _target(x, lam, d1, 0.0, gap, xl, xu)   # d2 = 0 selects the term minimizer
        assert xl * (1.0 - 1e-12) <= t <= xu * (1.0 + 1e-12)
        assert lambda_min_g(s, t)[0] <= lam * (1.0 + 1e-12)

    @pytest.mark.parametrize("case", [1, 2])
    def test_fixtures_converge_in_three_iterations(self, case):
        p = fixture_problem(case)
        s = build_s_pair(p)
        for x0 in bracket_x(s):
            assert newton_solve(p, x0).iterations == 3


class TestDiagonal:
    def test_single_relay_symmetric(self):
        stats = ChannelStats(D=np.ones(1), R=np.eye(1), Q=np.eye(1), sigma2=1.0)
        # a1 = b1 = (1 + sigma2/P0)/1 with P0 chosen so sigma2/P0 = 0 limit is
        # approached; easier: exact symmetric instance via D = Q diag entries
        p = TotalPowerProblem(stats=stats, P0=1000.0)
        sol = solve_diagonal(p)
        assert sol.x == pytest.approx(0.5, abs=1e-3)

    def test_min_selection(self):
        # r = 0.1, a = (D + r)/R = (1, 4), b = (Q + r)/R = (1, 1):
        # scores (4, 9) => k0 = 0, x = 1/2
        stats = diagonal_stats([0.9, 3.9], [1.0, 1.0], [0.9, 0.9])
        sol = solve_diagonal(TotalPowerProblem(stats=stats, P0=10.0))
        assert sol.x == pytest.approx(0.5, abs=1e-12)
        assert sol.lambda_min == pytest.approx(4.0, rel=1e-12)
        assert np.argmax(np.abs(sol.w)) == 0

    def test_relay_without_signal_never_chosen(self):
        # relay 0 has the best a, b but R_00 = 0
        stats = diagonal_stats([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
        sol = solve(TotalPowerProblem(stats=stats, P0=10.0))
        assert np.abs(sol.w[0]) == 0.0 and sol.snr > 0

    def test_dispatch_error_for_dense(self):
        with pytest.raises(InputError, match="R, Q are not diagonal"):
            solve_diagonal(fixture_problem(1))

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

    def test_tied_runs_keep_the_x_l_run(self):
        # when both Newton runs end at one optimum, solve returns the run
        # from x_l exactly rather than whichever run round-off favours
        tied = 0
        for seed in range(20):
            rng = np.random.default_rng([seed, 7])
            p = TotalPowerProblem(stats=rand_stats(rng, int(rng.integers(2, 9))),
                                  P0=float(10.0 ** rng.uniform(-1.0, 3.0)))
            s = build_s_pair(p)
            xl, xu = bracket_x(s)
            run_l, run_u = (newton_solve(p, x0) for x0 in (xl, xu))
            if abs(run_l.x - run_u.x) <= 1e-6:
                tied += 1
                assert solve(p).x == run_l.x, seed
        assert tied >= 10

    def test_newton_matches_closed_form(self, rng):
        # cross-solver agreement on diagonal instances
        for _ in range(25):
            p = rand_total_problem(rng, int(rng.integers(2, 5)), diagonal=True)
            s = build_s_pair(p)
            ref = solve_diagonal(p)
            xl, xu = bracket_x(s)
            runs = [newton_solve(p, x0) for x0 in (xl, xu)]
            best = max(runs, key=lambda r: r.snr)
            assert best.x == pytest.approx(ref.x, abs=1e-6)
            assert best.snr == pytest.approx(ref.snr, rel=1e-6)


class TestMeetingStop:
    @pytest.mark.parametrize("kind", ["rician", "near-los", "los", "identical"])
    def test_solve_equals_two_full_runs(self, kind):
        # stopping the x_u run where it meets the x_l run changes no output
        for seed in range(20):
            rng = np.random.default_rng([seed, 25])
            n, P0 = int(rng.integers(2, 17)), float(10.0 ** rng.uniform(-2.0, 4.0))
            if kind == "rician":
                p = rician_problem(n, P0, [seed, 26])
            elif kind == "identical":
                p = identical_relays_problem(n, P0)
            else:
                var = 0.0 if kind == "los" else float(10.0 ** rng.uniform(-6.0, -1.0))
                p = los_problem(n, var, P0, [seed, 27])
            got, ref = solve(p), two_full_runs(p)
            assert (got.x, got.snr, got.lambda_min, got.iterations) == \
                (ref.x, ref.snr, ref.lambda_min, ref.iterations), (kind, seed)
            assert np.array_equal(got.w, ref.w), (kind, seed)

    def test_one_basin_fixture_stops_the_x_u_run_where_it_meets(self, monkeypatch):
        # total-2: both runs end at x = 0.4087; the x_u run stops after one
        # step, whose successor lands on the x_l run's x (8 calls before)
        p = fixture_problem(2)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        run_l = newton_solve(p, xl)
        calls = count_lambda_min_g(monkeypatch)
        # met (None) after one step, at x_u and its successor, on the shared pair
        assert total_power._run(p, xu, s, meet=run_l.x) is None and len(calls) == 2
        calls.clear()
        sol = solve(p)
        assert len(calls) == 6
        assert sol.x == run_l.x and sol.iterations == 3

    def test_a_met_run_never_competes(self, monkeypatch):
        # the met x_u run stopped short of its end and returns no run (None),
        # so no lambda_min of it is compared: the x_l run is returned
        inner, runs = total_power._run, []

        def kept(p, x0, s, meet=None):
            runs.append(inner(p, x0, s, meet))
            return runs[-1]

        p = fixture_problem(2)
        run_l = newton_solve(p, bracket_x(build_s_pair(p))[0])
        monkeypatch.setattr(total_power, "_run", kept)
        sol = solve(p)
        assert len(runs) == 2 and runs[1] is None
        assert (sol.x, sol.snr, sol.iterations) == (run_l.x, run_l.snr, run_l.iterations)

    def test_two_basin_fixture_runs_both_to_convergence(self, monkeypatch):
        # total-1: the x_u run heads into the other basin (x = 0.5844) and
        # is not cut short; the x_l basin's larger SNR wins
        p = fixture_problem(1)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        run_l, run_u = (newton_solve(p, x0) for x0 in (xl, xu))
        run = total_power._run(p, xu, s, meet=run_l.x)
        assert run is not None and run[0] == run_u.x and not run_u.trace.notes
        assert run_u.x == pytest.approx(0.5844, abs=5e-3)
        calls = count_lambda_min_g(monkeypatch)
        sol = solve(p)
        assert len(calls) == 8
        assert sol.x == run_l.x and sol.snr > run_u.snr

    def test_x_u_basin_wins_on_a_near_diagonal_two_relay_instance(self, monkeypatch):
        # pinned by a seeded search over near_diagonal_two_relay_problem:
        # the x_u run ends in its own basin with a larger SNR and is returned
        p = near_diagonal_two_relay_problem(23)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        run_l, run_u = (newton_solve(p, x0) for x0 in (xl, xu))
        assert run_u.x - run_l.x > 0.1 and run_u.snr > run_l.snr * 1.01
        calls = count_lambda_min_g(monkeypatch)
        sol = solve(p)
        assert len(calls) == run_l.iterations + run_u.iterations + 2
        assert not sol.trace.notes
        assert (sol.x, sol.snr, sol.iterations) == (run_u.x, run_u.snr, run_u.iterations)
        assert sol.snr >= (1.0 - 1e-6) * scan_snr(p.stats, p.P0)

    @pytest.mark.parametrize("P0", [1e-13, 1e-100, 1e-150])
    def test_tiny_p0_stops_on_the_step_test(self, P0):
        # lambda_min ~ sigma^2/P0, so d1 carries round-off of that size at
        # the optimum and no absolute bound on it holds there; the noise
        # terms dominate B(x), whose optimum tends to x = 1/2
        p = los_problem(5, 0.5, P0, 5)
        sol = solve(p)
        assert sol.x == pytest.approx(0.5, abs=1e-6)
        assert sol.snr >= (1.0 - 1e-9) * brute_force_total(p)[1]

    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("P0", [1e-200, 1e-300])
    def test_underflowing_curvature_is_a_convergence_error(self, P0, n):
        # mu ~ P0/sigma^2, so mu^2 underflows: d1 = -inf and the target is
        # NaN, a numerical failure rather than bad input; at n = 16 the
        # secular bracket's slope underflows first, and the dense pair runs
        if n >= total_power.RICIAN_MIN_N:
            assert isinstance(build_s_pair(rician_problem(n, P0, 5)), total_power.SPair)
        with pytest.raises(ConvergenceError, match="broke down at iteration 0"):
            solve(rician_problem(n, P0, 5))


class TestLineOfSight:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 8), log_var=st.floats(-9.0, -3.0),
           log_ratio=st.floats(-6.0, 8.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=4, log_var=-9.0, log_ratio=1.0, seed=4)
    @example(n=6, log_var=-9.0, log_ratio=1.0, seed=6)
    @example(n=16, log_var=-9.0, log_ratio=1.0, seed=16)
    @example(n=5, log_var=-np.inf, log_ratio=1.0, seed=5)    # variance 0: rank-one R
    @example(n=6, log_var=-9.0, log_ratio=-6.0, seed=7)
    @example(n=6, log_var=-9.0, log_ratio=8.0, seed=8)
    def test_near_los_matches_dense_scan(self, n, log_var, log_ratio, seed):
        p = los_problem(n, 10.0 ** log_var, 10.0 ** log_ratio, seed)
        sol = solve(p)
        assert sol.snr >= (1.0 - 1e-6) * scan_snr(p.stats, p.P0)

    def test_identical_relays_solve_without_a_scan(self, monkeypatch):
        # identical relays make lambda_min(G(x)) degenerate; the term
        # minimizer steps need no scan of the bracket
        p = identical_relays_problem(3, 10.0)
        calls = count_lambda_min_g(monkeypatch)
        sol = solve(p)
        assert len(calls) <= 30
        assert sol.snr == pytest.approx(scan_snr(p.stats, p.P0), rel=1e-6)

    @pytest.mark.parametrize("P0", [1e-2, 1.0, 1e4])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_identical_relays_reach_the_dense_scan(self, n, P0):
        p = identical_relays_problem(n, P0)
        s = build_s_pair(p)
        for x0 in bracket_x(s):
            assert newton_solve(p, x0).iterations <= 10
        assert solve(p).snr >= (1.0 - 1e-9) * scan_snr(p.stats, p.P0)


def count_eigh(monkeypatch):
    """Record the size of every np.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(len(M)) or eigh(M))
    return calls


def kind_problem(kind, n, seed, P0=None):
    P0 = 10.0 ** (seed - 1) if P0 is None else P0
    if kind == "rician":
        return rician_problem(n, P0, [seed, n])
    return los_problem(n, 1e-3 if kind == "near-los" else 0.0, P0, [seed, n])


class TestDensePair:
    # matrix-built statistics take the dense pair at every n: one eigh of H
    # per evaluation, checked against the pencil (R, B(x)) itself
    @pytest.mark.parametrize("kind", ["rician", "near-los", "los"])
    @pytest.mark.parametrize("n", [48, 64, 96])
    def test_agrees_with_the_pencil(self, n, kind, monkeypatch):
        # mu = lambda_max(R, B(x)) by scipy's generalized eigh; d1 by
        # Hellmann-Feynman, mu' = -mu v^H B'(x) v / v^H B(x) v for R v = mu B v
        for seed in range(3):
            p = matrix_built(kind_problem(kind, n, seed))
            st, r = p.stats, p.stats.sigma2 / p.P0
            Dr, Qr = np.diag(st.D + r), st.Q + r * np.eye(n)
            s = build_s_pair(p)
            xs = np.linspace(*bracket_x(s), 7)[1:-1]
            calls = count_eigh(monkeypatch)
            dense = [lambda_min_g(s, x) for x in xs]
            assert calls == [n] * len(xs)
            for x, (lam, d1, _, w, gap) in zip(xs, dense):
                B = Dr / (1.0 - x) + Qr / x
                mus, V = scipy.linalg.eigh(st.R, B)
                mu, v = mus[-1], V[:, -1]
                dB = Dr / (1.0 - x) ** 2 - Qr / x ** 2
                rd1 = (v.conj() @ dB @ v).real / (mu * (v.conj() @ B @ v).real)
                assert lam == pytest.approx(1.0 / mu, rel=1e-12)
                assert d1 == pytest.approx(rd1, rel=1e-10, abs=1e-10 * lam)
                assert (np.linalg.norm(st.R @ w - mu * (B @ w))
                        <= 1e-12 * mu * np.linalg.norm(B @ w))
                assert gap == pytest.approx((mus[-1] - mus[-2]) / mus[-1], abs=1e-12)

    def test_derivatives_match_finite_differences(self, monkeypatch):
        s = build_s_pair(matrix_built(rician_problem(64, 10.0, 64)))
        calls = count_eigh(monkeypatch)
        f = lambda xv: lambda_min_g(s, float(xv))[0]
        xs = np.linspace(*bracket_x(s), 5)[1:-1]
        for x in xs:
            _, d1, d2, _, _ = lambda_min_g(s, x)
            assert d1 == pytest.approx(finite_diff(f, x, h=1e-5), rel=1e-6, abs=1e-9)
            assert d2 == pytest.approx(finite_diff_second(f, x, h=1e-4), rel=1e-4, abs=1e-6)
        assert set(calls) == {64}


def eigh_reference(p):
    """lambda_min_g on the dense pair of matrix-built statistics, one eigh per call."""
    s = build_s_pair(matrix_built(p))
    return lambda x: lambda_min_g(s, x)


def rayleigh_first_hop_problem(n, seed):
    """Rayleigh source links (fbar = 0) before line-of-sight relay links: h = 0,
    so R = diag(delta) while Q is not diagonal."""
    rng = np.random.default_rng(seed)
    params = RicianParams(f_mean=np.zeros(n), f_var=rng.uniform(0.5, 2.0, n),
                          g_mean=(rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0),
                          g_var=rng.uniform(0.2, 2.0, n))
    return TotalPowerProblem(stats=build_stats(params, 1.0), P0=10.0)


class TestSecularPair:
    # build_stats statistics from RICIAN_MIN_N relays; RuntimeWarnings are
    # errors under the suite's filterwarnings setting, so no case warns
    @pytest.mark.parametrize("P0", [1e-150, 10.0])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("kind", ["rician", "near-los", "los"])
    def test_agrees_with_the_dense_pair(self, kind, n, P0, monkeypatch):
        for seed in range(3):
            p = kind_problem(kind, n, seed, P0)
            s = build_s_pair(p)
            assert isinstance(s, total_power.RicianPair)
            reference = eigh_reference(p)
            xs = np.linspace(*bracket_x(s), 7)[1:-1]
            calls = count_eigh(monkeypatch)
            secular = [lambda_min_g(s, x) for x in xs]
            assert calls == []
            for x, (lam, d1, d2, w, gap) in zip(xs, secular):
                rl, r1, r2, rw, rgap = reference(x)
                assert lam == pytest.approx(rl, rel=1e-12)
                assert d1 == pytest.approx(r1, rel=1e-10, abs=1e-10 * rl)
                # at P0/sigma^2 = 1e-150, mu^3 underflows on both pairs
                assert d2 == pytest.approx(r2, rel=1e-10) or not np.isfinite([d2, r2]).any()
                assert 1.0 - abs(np.vdot(w, rw)) / (np.linalg.norm(w) * np.linalg.norm(rw)) <= 1e-13
                # (mu_1 - mu_d)/mu_1 is a certified lower bound on the gap
                assert 0.0 < gap <= rgap + 1e-15
            sol, ref = solve(p), solve(matrix_built(p))
            assert sol.iterations == ref.iterations
            assert sol.x == pytest.approx(ref.x, rel=1e-12)
            assert sol.snr == pytest.approx(ref.snr, rel=1e-12)

    def test_identical_relays(self):
        # every q_i is equal, so lam_1 is q_(1) itself, and h is parallel to gbar
        p = identical_relays_problem(64, 10.0)
        assert isinstance(build_s_pair(p), total_power.RicianPair)
        sol, ref = solve(p), solve(matrix_built(p))
        assert sol.iterations == ref.iterations
        assert sol.x == pytest.approx(ref.x, rel=1e-12)
        assert sol.snr == pytest.approx(ref.snr, rel=1e-12)

    def test_derivatives_match_exact_differences_near_x_0(self):
        # pure line of sight at P0/sigma^2 = 1e11, n = 16: x_l ~ 2e-6, where
        # the terms of mu'' in |g^H v|^2 c^3 cancel to leading order; the
        # reference differences 1/(h^H B(x)^-1 h) (R = h h^H) in exact
        # rational arithmetic
        p = los_problem(16, 0.0, 1e11, [0, 16])
        s = build_s_pair(p)
        assert isinstance(s, total_power.RicianPair)
        v = p.stats._rician
        h, g, phi = v.h, v.g, v.phi
        F = Fraction
        r = F(p.stats.sigma2) / F(p.P0)

        def lam(x):
            b = [(F(Di) + r) / (1 - x) + (F(f) + r) / x for Di, f in zip(p.stats.D, phi)]
            shh = sum((F(z.real) ** 2 + F(z.imag) ** 2) / bi for z, bi in zip(h, b))
            sgg = sum((F(z.real) ** 2 + F(z.imag) ** 2) / bi for z, bi in zip(g, b))
            re = sum((F(zg.real) * F(zh.real) + F(zg.imag) * F(zh.imag)) / bi
                     for zg, zh, bi in zip(g, h, b))
            im = sum((F(zg.real) * F(zh.imag) - F(zg.imag) * F(zh.real)) / bi
                     for zg, zh, bi in zip(g, h, b))
            return 1 / (shh - (re * re + im * im) / (x + sgg))

        xl = bracket_x(s)[0]
        for x in (xl, 3.0 * xl, 30.0 * xl):
            X = F(x)
            step = X / 10 ** 15
            lo, mid, hi = lam(X - step), lam(X), lam(X + step)
            ref = (mid, (hi - lo) / (2 * step), (hi - 2 * mid + lo) / step ** 2)
            for got, want in zip(lambda_min_g(s, x)[:3], ref):
                assert got == pytest.approx(float(want), rel=1e-12)

    def test_no_certificate_falls_back_to_the_dense_pair(self, monkeypatch):
        # h = 0: no Rayleigh quotient exceeds mu_d, so lambda_min_g certifies
        # nothing, and each run builds its own dense pair at its first x, notes
        # it in its own trace, and finishes on it; the pair stays as built
        p = rayleigh_first_hop_problem(16, 3)
        s = build_s_pair(p)
        assert isinstance(s, total_power.RicianPair) and not p.stats.is_diagonal()
        builds, inner = [], total_power._dense_pair
        monkeypatch.setattr(total_power, "_dense_pair", lambda q: builds.append(q) or inner(q))
        for x0 in bracket_x(s):
            assert lambda_min_g(s, x0) is None
            *_, trace = total_power._run(p, x0, s)
            assert builds == [p]
            assert trace.notes == [f"dense pair from x={x0}: the secular pair did not certify"]
            builds.clear()
        sol, ref = solve(p), solve(matrix_built(p))
        assert sol.iterations == ref.iterations
        assert sol.x == pytest.approx(ref.x, rel=1e-12)
        assert sol.snr == pytest.approx(ref.snr, rel=1e-12)

    def test_unconverged_roots_fall_back_to_the_dense_pair(self, monkeypatch):
        p = rician_problem(16, 10.0, 16)
        with monkeypatch.context() as m:
            m.setattr(total_power, "SECULAR_STEPS", 1)
            assert isinstance(build_s_pair(p), total_power.SPair)   # lam_1, lam_n
        s = build_s_pair(p)
        x = float(np.mean(bracket_x(s)))
        ref = newton_solve(p, x)
        assert not ref.trace.notes
        monkeypatch.setattr(total_power, "SECULAR_STEPS", 1)
        assert lambda_min_g(s, x) is None       # mu_1 takes more than one step
        # on the secular pair built before the patch (a pair built now is the dense one)
        x_end, lam, _, steps, trace = total_power._run(p, x, s)
        assert trace.notes == [f"dense pair from x={x}: the secular pair did not certify"]
        assert steps == ref.iterations
        assert lam == pytest.approx(ref.lambda_min, rel=1e-12)
        assert x_end == pytest.approx(ref.x, rel=1e-12)

    def test_a_step_back_ends_the_root(self):
        # near the root, rounding in f can turn the one-pole step around; from
        # a lower bound a step back is rounding and ends the iteration, which
        # otherwise cycles between two floats until SECULAR_STEPS run out
        calls = []

        def f(t):   # 1/t, whose root of f = 1 is 1, with relative noise of +-16 eps in turn
            calls.append(t)
            return (1.0 + 16.0 * total_power._EPS * (-1) ** len(calls)) / t, -1.0 / t ** 2

        assert total_power._secular_top(f, 0.5, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert len(calls) == 3

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_a_run_does_not_depend_on_run_order(self, n):
        # no run changes the pair, so solve's x_u run, made after the x_l run,
        # is the run on a fresh pair, with the same notes: at K = 0.01 the x_l
        # run's dense pair is its own, and an x_u run that falls back notes it too
        problems = [kind_problem(kind, n, seed) for kind in ("rician", "near-los", "los")
                    for seed in range(4)]
        for p in problems + [low_k_problem(0.01, n, seed) for seed in range(4)]:
            fresh, s = build_s_pair(p), build_s_pair(p)
            assert isinstance(s, total_power.RicianPair)
            xl, xu = bracket_x(s)
            total_power._run(p, xl, s)
            a, b = total_power._run(p, xu, fresh), total_power._run(p, xu, s)
            assert (b[0], b[1], b[3]) == (a[0], a[1], a[3]) and np.array_equal(b[2], a[2])
            assert b[4].rows == a[4].rows and b[4].notes == a[4].notes

    def test_the_x_u_run_kept_notes_its_own_fallback(self):
        # K = 0.01, n = 32, seed 20 (scenarios/total_lowk_n32.json): the pair
        # certifies neither bracket end, and solve keeps the x_u run, which
        # ran on its own dense pair from x_u and says so
        p = low_k_problem(0.01, 32, 20)
        s = build_s_pair(p)
        xl, xu = bracket_x(s)
        run_l, run_u = (newton_solve(p, x0) for x0 in (xl, xu))
        assert run_l.trace.notes == [f"dense pair from x={xl}: the secular pair did not certify"]
        sol = solve(p)
        assert sol.trace.notes == [f"dense pair from x={xu}: the secular pair did not certify"]
        assert (sol.x, sol.snr, sol.iterations) == (run_u.x, run_u.snr, run_u.iterations)
        assert sol.lambda_min < run_l.lambda_min
        assert sol.x == pytest.approx(0.51610, abs=5e-6)
        assert sol.snr == pytest.approx(53.53505, rel=1e-6)

    def test_a_fallback_note_leaves_the_x_u_run_competing(self, monkeypatch):
        # only a meeting stops the x_u run from being compared, not its notes
        inner = total_power._run

        def noted(p, x0, s, meet=None):
            x, lam, w_dir, steps, trace = inner(p, x0, s, meet)
            if meet is not None:
                trace.note(f"dense pair from x={x0}: the secular pair did not certify")
                lam = 0.5 * lam
            return x, lam, w_dir, steps, trace

        p = fixture_problem(1)      # two basins: the x_u run is not met
        monkeypatch.setattr(total_power, "_run", noted)
        sol = solve(p)
        assert sol.trace.notes and sol.x == pytest.approx(0.5844, abs=5e-3)

    @pytest.mark.parametrize("q, w", [
        (np.array([1.0, 1.0009, 3.0, 2.0]), np.array([3.6, 0.009, 1.0, 0.5])),  # start past q_(2)
        (np.array([0.5, 0.5, 2.0]), np.array([1.0, 2.0, 3.0])),                 # q_(1) repeated
        (np.array([0.3, 1.7, 0.9, 2.5, 1.1]), np.array([0.2, 1.5, 0.7, 0.1, 2.0])),
    ], ids=["bisects", "tied", "plain"])
    def test_smallest_eigenvalue_of_the_bracket_pencil(self, q, w):
        # lam_1 of diag(q) + u u^H with |u|^2 = w, the bracket's left end
        ref = np.linalg.eigvalsh(np.diag(q) + np.outer(np.sqrt(w), np.sqrt(w)))[0]
        assert total_power._secular_low(q, w) == pytest.approx(ref, rel=1e-13)

    def test_which_statistics_take_the_secular_pair(self):
        gate = total_power.RICIAN_MIN_N
        for n, kind in ((gate - 1, total_power.SPair), (gate, total_power.RicianPair)):
            assert isinstance(build_s_pair(rician_problem(n, 10.0, n)), kind)
        p = rician_problem(64, 10.0, 64)
        # statistics built from matrices never carry the Rician structure
        assert dataclasses.replace(p.stats)._rician is None
        assert isinstance(build_s_pair(matrix_built(p)), total_power.SPair)
        # pure line of sight where Q + rI is singular to working precision
        assert isinstance(build_s_pair(los_problem(64, 0.0, 1e16, 64)), total_power.SPair)


@pytest.fixture
def unformed(monkeypatch):
    """Reading R or Q of build_stats statistics raises."""
    def refuse(v):
        raise AssertionError("R and Q formed")
    monkeypatch.setattr(channel, "_form", refuse)


class TestUnformedStatistics:
    # solves on build_stats statistics that read only the vectors
    @pytest.mark.parametrize("n", [total_power.RICIAN_MIN_N, 64, 4096])
    def test_secular_solve(self, n, unformed):
        p = rician_problem(n, 10.0, n)
        sol = solve(p)
        used = total_power.as_beamforming_solution(p, sol).feasibility[0]
        assert sol.iterations > 0 and not sol.trace.notes
        assert abs(used) <= 1e-12 * p.P0

    @pytest.mark.parametrize("n", [4, 64])
    def test_rayleigh_closed_forms(self, n, unformed):
        rng = np.random.default_rng(n)
        stats = build_stats(RicianParams(f_mean=np.zeros(n), f_var=rng.uniform(0.2, 2.0, n),
                                         g_mean=np.zeros(n), g_var=rng.uniform(0.2, 2.0, n)))
        sol = solve(TotalPowerProblem(stats=stats, P0=10.0))
        assert sol.iterations == 0 and np.count_nonzero(sol.w) == 1
        indiv = indiv_diag.solve_diagonal(IndivPowerProblem(stats=stats, Ps=1.0, P=np.ones(n)))
        assert indiv.snr > 0 and (indiv.feasibility >= -1e-12).all()

    def test_repr_and_equality_form_nothing(self, unformed):
        # the repr shows the vectors held, and equality is identity, where a
        # field-wise comparison formed R and Q and then raised ValueError
        s, t = rician_problem(64, 10.0, 1).stats, rician_problem(64, 10.0, 1).stats
        text = repr(s)
        assert text.startswith("ChannelStats(D=array([") and ", sigma2=1.0, h=array([" in text
        assert all(f", {name}=array([" in text for name in ("delta", "g", "phi", "f", "psi"))
        assert s == s and s != t
        assert "R" not in vars(s) and "Q" not in vars(s)
        dense = ChannelStats(D=np.ones(2), R=np.eye(2), Q=np.eye(2))
        assert ", sigma2=1.0, R=array([[" in repr(dense) and ", Q=array([[" in repr(dense)

    def test_large_n_in_linear_memory(self, unformed):
        # n x n complex R at n = 1e5 would take 160 GB
        p = rician_problem(10 ** 5, 10.0, 5)
        tracemalloc.start()
        try:
            sol = solve(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.iterations > 0 and not sol.trace.notes
        assert peak < 64 * 2 ** 20


class TestLineOfSightAtLargeP0:
    @pytest.mark.parametrize("P0", [1e16, 1e100, 1e300])
    @pytest.mark.parametrize("n", [4, 64])
    def test_pure_los_solves(self, n, P0):
        # r = sigma^2/P0 is below Q's round-off, where eigh returned
        # eigenvalues <= 0 and the bracket a NaN (InputError, exit 3); at
        # 1e300, x_l ~ 1e-150 and x^3 underflows in beta'' without a warning
        p = los_problem(n, 0.0, P0, [0, n])
        assert build_s_pair(p).lam.min() > 0
        sol = solve(p)
        assert sol.snr >= (1.0 - 1e-9) * scan_snr(p.stats, p.P0, points=201)
        used = total_power.as_beamforming_solution(p, sol).feasibility[0]
        assert abs(used) <= 1e-12 * P0

    @pytest.mark.parametrize("n,P0", [(64, 1e305), (16, 1e307)])
    def test_overflowing_slope_is_a_convergence_error(self, n, P0):
        # at x ~ 1e-153, lam/x^2 in beta' overflows: a typed error (exit 2),
        # not a RuntimeWarning
        with pytest.raises(ConvergenceError, match=r"beta'\(x\) overflows float64 at x="):
            solve(los_problem(n, 0.0, P0, [0, n]))
