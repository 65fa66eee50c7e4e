from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybeam import fixtures, indiv_qcqp
from relaybeam.channel import ChannelStats, snr
from relaybeam.cli import parse_scenario
from relaybeam.errors import ConvergenceError, InputError
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.indiv_qcqp import build_qcqp, qcqp_objective
from relaybeam.indiv_search import (AL_CONSTRAINT_TOL, AL_GRAD_TOL, AL_MAX_INNER,
                                    AL_MAX_OUTER, AL_MU, _embed, _lagrangian, _line, _p1,
                                    _phi_grad_hess, _solve_scalar_subproblem,
                                    _subproblem_value, augmented_lagrangian_solve,
                                    choose_p, coordinate_descent)
from relaybeam.linalg import _real_embed, symmetrize
from relaybeam.problems import IndivPowerProblem
from conftest import (Slot, badly_scaled_problem, extract_coefficients, finite_diff,
                      finite_diff_second, grid_maximum, phi_value, rand_indiv_problem)


ROOT = Path(__file__).resolve().parents[1]


def fixture_problem(n):
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0))


def wishart_problem(seed, n):
    """Complex Wishart R and Q, D in [0.5, 2], caps P in [1, 3], Ps = sigma^2 = 1."""
    rng = np.random.default_rng(seed)
    D = rng.uniform(0.5, 2.0, n)
    R, Q = (A @ A.conj().T / n for A in
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for _ in range(2)))
    stats = ChannelStats(D=D, R=R, Q=Q, sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=rng.uniform(1.0, 3.0, n)), rng


def dense_coefficients(p, w, k):
    """Slot k's subproblem from explicit sub-blocks of the frozen entries."""
    R, Q = p.stats.R, p.stats.Q
    idx = [i for i in range(p.n) if i != k]
    wt = w[idx]
    return Slot(
        a1=float(R[k, k].real), a2=float(Q[k, k].real),
        b1=complex(wt.conj() @ R[idx, k]), b2=complex(wt.conj() @ Q[idx, k]),
        c1=float(np.real(wt.conj() @ R[np.ix_(idx, idx)] @ wt)),
        c2=1.0 + float(np.real(wt.conj() @ Q[np.ix_(idx, idx)] @ wt)),
        beta=float(p.caps()[k]))


def dense_coordinate_descent(p, w0, eps=1e-3, max_sweeps=500):
    """Reference CDM: dense coefficients for every slot, same stop test.
    Returns (w, trace objectives)."""
    w = np.asarray(w0, dtype=complex).ravel().copy()
    over = (np.abs(w) / p.caps()).max()
    if over > 1.0:
        w = w / over
    objs = []
    for _ in range(max_sweeps):
        w_prev = w.copy()
        for k in range(p.n):
            y, t = _solve_scalar_subproblem(*dense_coefficients(p, w, k))
            w[k] = y
            objs.append(p.Ps / p.stats.sigma2 * t)
        denom = np.linalg.norm(w_prev)
        if denom > 0 and np.linalg.norm(w - w_prev) / denom < eps:
            return w, objs
    raise AssertionError("reference did not converge")


def reference_augmented_lagrangian(prob, p, w0=None):
    """The augmented Lagrangian loop as first written: every Newton step
    forms F z, K z and both quadratic forms afresh, reads the Hessian's
    definiteness off eigvalsh, and evaluates L anew at each trial z + alpha s
    of the line search.  Returns (trace rows, w)."""
    d1, F, K = _embed(prob)
    n = prob.n
    lam, z = _p1(F, K)
    if w0 is not None:
        u = d1 * np.asarray(w0)
        z = np.concatenate([u.real, u.imag])

    def lagrangian(z):
        c = z @ K @ z - 1.0
        return z @ F @ z + phi_value(z, p) - lam * c + c * c / (2.0 * AL_MU), c
    rows = []
    for outer in range(AL_MAX_OUTER):
        g_norm = np.inf
        for inner in range(AL_MAX_INNER):
            _, g_phi, H_phi = _phi_grad_hess(z, p)
            L, c = lagrangian(z)
            Kz = K @ z
            gL = 2.0 * F @ z + g_phi - 2.0 * lam * Kz + (2.0 / AL_MU) * c * Kz
            g_norm = float(np.linalg.norm(gL))
            if g_norm <= AL_GRAD_TOL:
                break
            HL = symmetrize(2.0 * F + H_phi - 2.0 * lam * K + (2.0 / AL_MU) * c * K
                            + (4.0 / AL_MU) * np.outer(Kz, Kz))
            lmin = float(np.linalg.eigvalsh(HL)[0])
            if lmin <= 0:
                HL = HL + (-lmin + 1e-6) * np.eye(2 * n)
            step = -np.linalg.solve(HL, gL)
            slope = float(gL @ step)
            alpha = 1.0
            while not lagrangian(z + alpha * step)[0] <= L + 1e-4 * alpha * slope:
                alpha *= 0.5
                assert alpha >= 1e-18, "the reference's line search stalled"
            z = z + alpha * step
            rows.append((outer, inner, float(L), float(c), g_norm, alpha))
        L, c = lagrangian(z)
        rows.append((outer, -1, float(L), float(c), g_norm, 0.0))
        if abs(c) <= AL_CONSTRAINT_TOL and g_norm <= AL_GRAD_TOL:
            break
        lam = lam - c / AL_MU
    u = z[:n] + 1j * z[n:]
    return rows, u / (d1 * np.abs(u).max())


def top_factor_start(p):
    """sqrt(lambda_max) times the top eigenvector of p's relaxation."""
    from relaybeam.sdp import solve_relaxation
    vals, vecs = np.linalg.eigh(solve_relaxation(build_qcqp(p)).X)
    return np.sqrt(vals[-1]) * vecs[:, -1]


def assert_same_trace(got, want):
    """The same rows and step lengths; L, c and ||grad L|| within 1e-12 relative."""
    got, want = np.array(got.rows), np.array(want)
    assert got.shape == want.shape
    assert np.array_equal(got[:, [0, 1, 5]], want[:, [0, 1, 5]])
    assert np.allclose(got[:, 2:5], want[:, 2:5], rtol=1e-12, atol=0.0)


def stationarity_improvement(p, w) -> float:
    """Largest single-slot objective improvement available at w.

    Zero (up to tolerance) at a coordinate-wise stationary point; used to
    audit the coordinate-descent limit.
    """
    w = np.asarray(w, dtype=complex).ravel()
    worst = 0.0
    for k in range(p.n):
        sub = extract_coefficients(p, w, k)
        _, t = _solve_scalar_subproblem(*sub)
        worst = max(worst, t - _subproblem_value(*sub[:6], w[k]))
    return worst


class TestExtractCoefficients:
    def test_frozen_part_zero(self, rng):
        p = rand_indiv_problem(rng, 4)
        s = extract_coefficients(p, np.zeros(4), 2)
        assert s.b1 == 0 and s.b2 == 0
        assert s.c1 == 0.0 and s.c2 == 1.0
        assert s.a1 == pytest.approx(p.stats.R[2, 2].real)

    def test_diagonal_no_cross_terms(self, rng):
        p = rand_indiv_problem(rng, 4, diagonal=True)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for k in range(4):
            s = extract_coefficients(p, w, k)
            assert s.b1 == 0 and s.b2 == 0

    def test_recomputation_identity(self, rng):
        # the extracted ratio at y equals the full SNR ratio with slot k = y
        for _ in range(5):
            p = rand_indiv_problem(rng, 4)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            k = int(rng.integers(0, 4))
            s = extract_coefficients(p, w, k)
            for _ in range(20):
                y = complex(rng.standard_normal() + 1j * rng.standard_normal())
                w2 = w.copy()
                w2[k] = y
                expected = snr(p.stats, p.Ps, w2) * p.stats.sigma2 / p.Ps
                assert _subproblem_value(*s[:6], y) == pytest.approx(expected, rel=1e-10)


    def test_matches_dense_sub_blocks(self):
        for seed in range(20):
            n = 2 + seed % 7
            p, rng = wishart_problem(seed, n)
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            k = int(rng.integers(0, n))
            got, ref = extract_coefficients(p, w, k), dense_coefficients(p, w, k)
            for name in ("a1", "a2", "b1", "b2", "c1", "c2", "beta"):
                assert abs(getattr(got, name) - getattr(ref, name)) <= \
                    1e-12 * max(1.0, abs(getattr(ref, name))), (seed, name)


class TestScalarSubproblem:
    def test_constant_case(self):
        s = Slot(a1=0.0, a2=1.0, b1=0.0, b2=0.0, c1=0.0, c2=1.0, beta=1.0)
        y, t = _solve_scalar_subproblem(*s)
        assert y == 0
        assert t == pytest.approx(0.0)

    def test_no_cross_term_boundary(self):
        # b1 = b2 = 0 and a1 c2 - a2 c1 > 0: ratio increases with |y|
        s = Slot(a1=2.0, a2=1.0, b1=0.0, b2=0.0, c1=0.5, c2=1.0, beta=0.8)
        y, t = _solve_scalar_subproblem(*s)
        assert abs(y) == pytest.approx(0.8, rel=1e-12)
        assert t == pytest.approx(_subproblem_value(*s[:6], y), rel=1e-12)

    @staticmethod
    def assert_feasible_maximum(s, y, t, radial=400, angular=720):
        assert abs(y) <= s.beta * (1.0 + 1e-12)
        assert t == pytest.approx(_subproblem_value(*s[:6], y), rel=1e-12)
        t_grid = grid_maximum(s, radial, angular)[0]
        assert t >= t_grid - 1e-9 * abs(t_grid)

    @pytest.mark.parametrize("s, t_max", [
        # a boundary optimum that root filters with absolute sign margins miss
        (Slot(
            a1=0.5292279301347068, a2=4.319937227016552e-05,
            b1=5.064139848037656e-07 - 4.145966114436969e-06j,
            b2=-2.112074393972352e-10 - 7.252912528899636e-10j,
            c1=1.9593655289424063e-10, c2=1.0000000000000144,
            beta=5778.812138186871), 12242.33845806319),
        # an interior root just outside the disk that such margins accept
        (Slot(
            a1=4.6363518852872877e-07, a2=298.3038389493982,
            b1=-2.228672469680796e-09 - 9.999690053697283e-10j,
            b2=-0.0019176998509088873 - 0.004797199812443993j,
            c1=9.879670715805064e-10, c2=1.000000171333543,
            beta=0.0011415649645183485), 9.9375343006471e-10),
        # an interior optimum at a scale those margins cannot resolve
        (Slot(
            a1=1.1544437484797912e-10, a2=35.436989513699835,
            b1=-1.4170223764177e-11 - 4.393946068507409e-11j,
            b2=-4.584369233316775 + 0.6009287125832833j,
            c1=3.563825005429447e-11, c2=4.844649774245868,
            beta=694.3121801938354), 1.0333956874823e-11),
    ], ids=["boundary-fuzz", "interior-outside-disk", "interior-tiny-scale"])
    def test_extreme_scale_cases(self, s, t_max):
        y, t = _solve_scalar_subproblem(*s)
        assert y != 0
        self.assert_feasible_maximum(s, y, t)
        assert t == pytest.approx(t_max, rel=1e-9)

    def test_seeded_extreme_scales(self):
        # coefficients over 13-18 decades, with A >= 0 and B >= e2 e2^T
        rng = np.random.default_rng(2024)
        m = 300
        a1, a2 = 10.0 ** rng.uniform(-10, 3, (2, m))
        c1 = 10.0 ** rng.uniform(-12, 3, m)
        c2 = 1.0 + 10.0 ** rng.uniform(-14, 4, m)
        b1, b2 = (np.sqrt(q) * rng.uniform(0, 1, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
                  for q in (a1 * c1, a2 * (c2 - 1.0)))
        beta = 10.0 ** rng.uniform(-3, 5, m)
        for case in zip(*(v.tolist() for v in (a1, a2, b1, b2, c1, c2, beta))):
            s = Slot(*case)
            y, t = _solve_scalar_subproblem(*s)
            self.assert_feasible_maximum(s, y, t, radial=200, angular=360)

    def test_matches_grid_oracle(self, rng):
        branches = {"boundary": 0, "interior": 0, "constant": 0}
        for trial in range(200):
            n = int(rng.integers(2, 5))
            if trial % 10 == 0:
                R = np.zeros((n, n), dtype=complex)   # constant branch
            else:
                A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                R = A @ A.conj().T / n
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Q = B @ B.conj().T / n
            stats = ChannelStats(D=rng.uniform(0.1, 2.0, n), R=R, Q=Q,
                                 sigma2=float(rng.uniform(0.5, 2.0)))
            p = IndivPowerProblem(stats=stats, Ps=float(rng.uniform(0.5, 2.0)),
                                  P=rng.uniform(0.5, 2.0, n))
            w = 0.7 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            k = int(rng.integers(0, n))
            s = extract_coefficients(p, w, k)
            y, t = _solve_scalar_subproblem(*s)
            t_grid, _ = grid_maximum(s)
            assert t >= t_grid - 1e-4 * max(1.0, abs(t_grid))
            assert t == pytest.approx(t_grid, rel=1e-4, abs=1e-4)
            if y == 0:
                branches["constant"] += 1
            elif abs(abs(y) - s.beta) <= 1e-9 * s.beta:
                branches["boundary"] += 1
            else:
                branches["interior"] += 1
        assert all(v > 0 for v in branches.values()), branches

    def test_zero_q_row_maximum_on_the_circle(self, rng):
        # matrix-built statistics with a zero row and column of Q at slot k
        # beside R_kk > 0: a2 = 0 and b2 = 0, so the denominator is the
        # constant c2 and no interior point can beat the circle; the closed
        # form meets a dense grid of the disk
        for _ in range(20):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(0, n))
            A, B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(2))
            B[k] = 0.0
            stats = ChannelStats(D=rng.uniform(0.1, 2.0, n), R=A @ A.conj().T / n,
                                 Q=B @ B.conj().T / n, sigma2=float(rng.uniform(0.5, 2.0)))
            p = IndivPowerProblem(stats=stats, Ps=float(rng.uniform(0.5, 2.0)),
                                  P=rng.uniform(0.5, 2.0, n))
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            s = extract_coefficients(p, w, k)
            assert s.a2 == 0 and s.b2 == 0 and s.a1 > 0
            y, t = _solve_scalar_subproblem(*s)
            assert abs(y) == pytest.approx(s.beta, rel=1e-12)
            self.assert_feasible_maximum(s, y, t, radial=800, angular=2880)


class TestCoordinateDescent:
    @pytest.mark.parametrize("n,key", [(4, "cdm")])
    def test_fixture_objective(self, n, key):
        from relaybeam.sdp import solve_relaxation
        p = fixture_problem(n)
        q = build_qcqp(p)
        sol = solve_relaxation(q)
        vals, vecs = np.linalg.eigh(sol.X)
        w0 = np.sqrt(vals[-1]) * vecs[:, -1]
        best, trace = coordinate_descent(p, w0)
        obj = qcqp_objective(q, best.w)
        assert obj == pytest.approx(fixtures.INDIV_EXPECT[n][key], rel=2e-2)

    def test_objective_monotone_per_slot(self, rng):
        p = rand_indiv_problem(rng, 5)
        w0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        _, trace = coordinate_descent(p, w0)
        objs = [row[2] for row in trace.rows]
        diffs = np.diff(objs)
        assert diffs.min() >= -1e-9 * max(1.0, max(objs))

    def test_diagonal_matches_closed_form(self, rng):
        for _ in range(10):
            p = rand_indiv_problem(rng, int(rng.integers(2, 5)), diagonal=True)
            ref = solve_diagonal(p)
            w0 = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
            got, _ = coordinate_descent(p, w0)
            assert got.snr == pytest.approx(ref.snr, rel=1e-4)

    def test_stationarity_audit(self, rng):
        p = rand_indiv_problem(rng, 4)
        w0 = np.ones(4, dtype=complex)
        sol, _ = coordinate_descent(p, w0, eps=1e-6)
        assert stationarity_improvement(p, sol.w) <= 1e-6

    @pytest.mark.parametrize("n", [4, 6, 8, 16, 32])
    @pytest.mark.parametrize("start", ["random", "infeasible", "zero entries"])
    def test_matches_dense_reference(self, n, start):
        p, rng = wishart_problem(n, n)
        w0 = {"random": rng.standard_normal(n) + 1j * rng.standard_normal(n),
              "infeasible": 100.0 * np.ones(n, dtype=complex),
              "zero entries": np.where(np.arange(n) % 2 == 0, 0.3 - 0.2j, 0.0)}[start]
        w_ref, objs_ref = dense_coordinate_descent(p, w0)
        sol, trace = coordinate_descent(p, w0)
        assert len(trace) == len(objs_ref)
        objs = np.array([row[2] for row in trace.rows])
        assert np.all(np.abs(objs - objs_ref) <= 1e-10 * np.abs(objs_ref))
        assert np.abs(sol.w - w_ref).max() <= 1e-10

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(InputError, match=f"eps must be a positive number, got {eps}"):
            coordinate_descent(fixture_problem(4), np.ones(4), eps=eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_w0_rejected(self, bad):
        w0 = np.ones(4, dtype=complex)
        w0[2] = bad
        with pytest.raises(InputError, match="non-finite"):
            coordinate_descent(fixture_problem(4), w0)

    def test_zero_r_stops_at_the_zero_iterate(self):
        # indiv_qcqp.solve settles R = 0 before any route; called directly,
        # coordinate descent sends every slot to 0 and stops there, where the
        # relative change test reads 0 <= eps * 0
        stats = ChannelStats(D=np.ones(4), R=np.zeros((4, 4)),
                             Q=fixtures.indiv_fixture(4)[1], sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(4, 2.0))
        sol, trace = coordinate_descent(p, np.ones(4))
        assert not sol.w.any() and sol.snr == 0.0
        assert trace.rows[-1][0] <= 1 and len(trace) <= 8

    def test_infeasible_start_projected(self, rng):
        p = rand_indiv_problem(rng, 3)
        w0 = 100.0 * np.ones(3, dtype=complex)
        sol, _ = coordinate_descent(p, w0)
        assert p.slacks(sol.w).min() >= -1e-9


class TestChooseP:
    def test_examples(self):
        # log(10)/log(1.01) = 231.4 and log(40)/log(1.01) = 370.7
        assert choose_p(10) == 256
        assert choose_p(40) == 512
        assert choose_p(1) == 1

    def test_bound_holds(self):
        # chosen p satisfies p >= log(n)/log(1+eps) at eps = 0.01
        for n in (5, 12, 30, 64):
            p = choose_p(n)
            assert p >= np.log(n) / np.log1p(0.01)
            assert p & (p - 1) == 0   # power of two


class TestPnormEmbedding:
    def test_identity_scaling(self):
        # the fixture's caps give c = 1: no scaling, F and K embed Q and R
        p = fixture_problem(4)
        d1, F, K = _embed(p)
        assert np.allclose(d1, 1.0)
        assert np.allclose(F, _real_embed(p.stats.Q))
        assert np.allclose(K, _real_embed(p.stats.R))

    def test_embedding_identities(self, rng):
        p = rand_indiv_problem(rng, 4)
        d1, F, K = _embed(p)
        for _ in range(10):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z = np.concatenate([u.real, u.imag])
            w = u / d1      # u^H Q1 u = w^H Q w for Q1 = D1^-1 Q D1^-1
            assert z @ F @ z == pytest.approx(
                np.real(w.conj() @ p.stats.Q @ w), rel=1e-12)
            assert z @ K @ z == pytest.approx(
                np.real(w.conj() @ p.stats.R @ w), rel=1e-12)
            assert phi_value(z, 8) == pytest.approx(
                np.linalg.norm(u, ord=16) ** 2, rel=1e-12)

    @given(p_exp=st.sampled_from([1, 2, 8, 64, 1024]))
    @settings(deadline=None, max_examples=20)
    def test_norm_sandwich(self, p_exp):
        rng = np.random.default_rng(p_exp)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        mags = np.abs(u)
        top = mags.max()
        pnorm = top * np.sum((mags / top) ** (2 * p_exp)) ** (1.0 / (2 * p_exp))
        inf2 = top ** 2
        p2 = pnorm ** 2
        assert inf2 <= p2 + 1e-12
        assert p2 <= 6 ** (1.0 / p_exp) * inf2 + 1e-12


class TestPhiP:
    def test_p1_collapses(self, rng):
        z = rng.standard_normal(6)
        val, g, H = _phi_grad_hess(z, 1)
        assert val == pytest.approx(z @ z, rel=1e-12)
        assert np.allclose(g, 2 * z)
        assert np.allclose(H, 2 * np.eye(6))

    @pytest.mark.parametrize("p", [2, 8, 64])
    def test_finite_difference_oracle(self, p, rng):
        for _ in range(5):
            z = rng.standard_normal(6)
            z = z / np.linalg.norm(z)
            val, g, H = _phi_grad_hess(z, p)
            fd_g = finite_diff(lambda zv: phi_value(zv, p), z, h=1e-6)
            assert np.allclose(g, fd_g, rtol=1e-5, atol=1e-7)
            fd_H = finite_diff_second(lambda zv: phi_value(zv, p), z, h=1e-4)
            assert np.allclose(H, fd_H, rtol=1e-4, atol=5e-3)

    @pytest.mark.parametrize("p", [1, 2, 8, 1024])
    def test_hessian_matches_outer_product_loop(self, p, rng):
        # the Hessian adds four entries per relay; the reference adds the
        # whole outer product (J~_k z)(J~_k z)^T, in the same order.  The
        # powers come from one array power, as in the Hessian: numpy's array
        # and scalar powers can differ in the last bit, on about one slot in
        # twenty, so a scalar power per relay matched only some draws of z
        n = 16
        z = rng.standard_normal(2 * n)
        val, g, H = _phi_grad_hess(z, p)
        ratio = (z[:n] ** 2 + z[n:] ** 2) / val
        ref = np.zeros((2 * n, 2 * n))
        ref[np.arange(2 * n), np.arange(2 * n)] = 2.0 * np.tile(ratio ** (p - 1), 2)
        ref += ((1.0 - p) / val) * np.outer(g, g)
        power = ratio ** (p - 2)
        for k in range(n if p >= 2 else 0):
            jz = np.zeros(2 * n)
            jz[[k, n + k]] = z[[k, n + k]]
            ref += (4.0 * (p - 1) / val) * power[k] * np.outer(jz, jz)
        assert np.array_equal(H, ref)

    def test_one_hot_exact(self, rng):
        for p in (1, 2, 8, 1024):
            u = np.zeros(4, dtype=complex)
            u[2] = 1.7 - 0.3j
            z = np.concatenate([u.real, u.imag])
            assert phi_value(z, p) == pytest.approx(abs(u[2]) ** 2, rel=1e-12)

    def test_zero_is_zero(self, rng):
        # the norm's value at z = 0, where it is not smooth
        assert phi_value(np.zeros(6), 4) == 0.0


class TestInitialMultiplier:
    def test_zero_f(self):
        assert _p1(np.zeros((6, 6)), np.eye(6))[0] == pytest.approx(1.0)

    def test_identity_pair(self):
        assert _p1(np.eye(6), np.eye(6))[0] == pytest.approx(2.0)

    def test_fixture_positive(self):
        _, F, K = _embed(fixture_problem(4))
        lam, z = _p1(F, K)
        assert lam > 0
        # z is the p = 1 minimizer: on the constraint, at the value lam
        assert z @ K @ z == pytest.approx(1.0, rel=1e-12)
        assert z @ (F + np.eye(8)) @ z == pytest.approx(lam, rel=1e-12)


class TestAugmentedLagrangian:
    def test_p1_matches_closed_form(self, rng):
        p = rand_indiv_problem(rng, 3)
        d1, F, K = _embed(p)
        sol, _, _ = augmented_lagrangian_solve(p, 1)
        # at p = 1 the constrained optimum value is the initial multiplier;
        # z = [Re u; Im u] for u = D1 w, scaled onto the constraint z^T K z = 1
        u = d1 * sol.w
        z = np.concatenate([u.real, u.imag])
        z /= np.sqrt(z @ K @ z)
        achieved = z @ F @ z + phi_value(z, 1)
        assert achieved == pytest.approx(_p1(F, K)[0], rel=1e-6)

    @pytest.mark.parametrize("n,key", [(4, "pnorm")])
    def test_fixture_objective(self, n, key):
        from relaybeam.sdp import solve_relaxation
        p = fixture_problem(n)
        q = build_qcqp(p)
        rel = solve_relaxation(q)
        vals, vecs = np.linalg.eigh(rel.X)
        w0 = np.sqrt(vals[-1]) * vecs[:, -1]
        sol, trace, more = augmented_lagrangian_solve(p, fixtures.PNORM_P, w0=w0)
        obj = qcqp_objective(q, sol.w)
        assert obj == pytest.approx(fixtures.INDIV_EXPECT[n][key], rel=2e-2)
        assert abs(more["constraint_residual"]) <= 1e-8
        # solution is feasible with an active cap
        assert sol.feasibility.min() >= -1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("n", [4, 6])
    def test_rank_deficient_r_near_sdp_bound(self, n, rank, seed):
        # line-of-sight-like R of rank 1 or 2: the multiplier comes from the
        # pencil (K, F + I), so no R^{-1} is needed
        from relaybeam.sdp import solve_relaxation
        rng = np.random.default_rng(seed)
        V, A = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
                for m in (rank, n))
        stats = ChannelStats(D=rng.uniform(0.5, 2.0, n), R=V @ V.conj().T / n,
                             Q=A @ A.conj().T / n, sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=rng.uniform(1.0, 3.0, n))
        q = build_qcqp(p)
        bound = solve_relaxation(q).primal_obj
        sol, _, _ = augmented_lagrangian_solve(p, choose_p(n))
        assert sol.feasibility.min() >= -1e-12
        obj = qcqp_objective(q, sol.w)
        assert 0.99 * bound <= obj <= (1.0 + 1e-6) * bound

    def test_zero_scaled_r_is_a_convergence_error(self):
        # indiv_qcqp.solve settles R = 0 before any route; called directly,
        # the embedding refuses a scaled R of 0 rather than divide by zero
        # in the initial multiplier
        stats = ChannelStats(D=np.ones(4), R=np.zeros((4, 4)),
                             Q=fixtures.indiv_fixture(4)[1], sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(4, 2.0))
        with pytest.raises(ConvergenceError, match="it underflows, or R = 0"):
            augmented_lagrangian_solve(p, 8)

    def test_ascent_direction_stalls_the_line_search(self, monkeypatch):
        # a solve that returns the negated Newton direction makes every inner
        # step an ascent direction, where no Armijo step length exists
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -real(a, b))
        with pytest.raises(ConvergenceError, match="inner Newton line search stalled"):
            augmented_lagrangian_solve(fixture_problem(4), 8)

    def test_inner_descent_and_outer_residuals(self):
        p = fixture_problem(4)
        sol, trace, _ = augmented_lagrangian_solve(p, 64)
        inner_L = {}
        residuals = []
        for outer, inner, L, c, gnorm, alpha in trace.rows:
            if inner == -1:      # end-of-round summary row
                residuals.append(abs(c))
            else:
                inner_L.setdefault(outer, []).append(L)
        for Ls in inner_L.values():
            # L non-increasing across accepted inner steps
            assert all(b <= a + 1e-9 * max(1, abs(a)) for a, b in zip(Ls, Ls[1:]))
        if len(residuals) > 1:
            assert residuals[-1] <= residuals[0] + 1e-12

    def test_trace_columns(self):
        p = fixture_problem(4)
        _, trace, _ = augmented_lagrangian_solve(p, 8)
        assert trace.columns == ("outer_k", "inner_i", "L",
                                 "constraint_residual", "grad_norm", "alpha")

    def test_bad_z0_rejected(self, rng):
        # a start z = [Re u; Im u] off the constraint's reach, z^T K z = 0
        p = rand_indiv_problem(rng, 3)
        with pytest.raises(InputError, match="w0"):
            augmented_lagrangian_solve(p, 4, w0=np.zeros(3))
        with pytest.raises(InputError, match="w0 has length 4"):
            augmented_lagrangian_solve(p, 4, w0=np.ones(4))

    def test_rank_one_r_default_start(self):
        # with equal c_k, v = [1, -1, 0, 0] puts the all-ones vector in the
        # null space of R = v v^H; the p = 1 minimizer starts on the constraint
        from relaybeam.sdp import solve_relaxation
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = np.array([1.0, -1.0, 0.0, 0.0])
        stats = ChannelStats(D=np.ones(4), R=np.outer(v, v).astype(complex),
                             Q=A @ A.conj().T / 4, sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(4, 2.0))
        q = build_qcqp(p)
        bound = solve_relaxation(q).primal_obj
        sol, _, _ = augmented_lagrangian_solve(p, choose_p(4))
        assert sol.feasibility.min() >= -1e-12
        assert 0.99 * bound <= qcqp_objective(q, sol.w) <= (1.0 + 1e-6) * bound


class TestLeanNewtonStep:
    """Each Newton step of the augmented Lagrangian forms L's gradient and
    Hessian once, tests definiteness by a Cholesky attempt and backtracks on
    scalars; its iterates are those of the loop as first written."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_fixture_starts_keep_the_trace(self, n):
        p = fixture_problem(n)
        w0 = top_factor_start(p)
        _, trace, _ = augmented_lagrangian_solve(p, fixtures.PNORM_P, w0=w0)
        assert_same_trace(trace, reference_augmented_lagrangian(p, fixtures.PNORM_P, w0)[0])

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_benchmark_pnorm_scenarios_keep_the_snr(self, seed, tmp_path, monkeypatch):
        # solve/gen-pnorm-n4 of the cli-paper benchmark pool, generated by
        # bench/workloads.py (read only) and solved from the p = 1 start
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        monkeypatch.chdir(ROOT)     # the pool names its sample scenarios from the root
        import workloads
        (op,) = [op for op in workloads.load("cli-paper", seed, str(tmp_path)).ops
                 if op.key == "solve/gen-pnorm-n4"]
        prob = parse_scenario(op.data["argv"][1]).problem
        sol, _, _ = augmented_lagrangian_solve(prob, choose_p(prob.n))
        _, w = reference_augmented_lagrangian(prob, choose_p(prob.n))
        assert sol.snr == pytest.approx(prob.solution(w).snr, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_line_search_model_is_the_lagrangian(self, n, rng):
        # L(z) plus the change read off the step's scalars is L evaluated
        # afresh at z + a s, on the constraint z^T K z = 1 and off it
        _, F, K = _embed(rand_indiv_problem(rng, n))
        p, FK = choose_p(n), np.concatenate([F, K])
        for _ in range(20):
            z = rng.standard_normal(2 * n)
            z *= rng.uniform(0.5, 1.5) / np.sqrt(z @ K @ z)
            s = rng.uniform(0.01, 1.0) * rng.standard_normal(2 * n)
            lam = float(rng.uniform(-2.0, 2.0))
            phi = phi_value(z, p)
            L, change = _lagrangian(F, K, z, phi, lam)[0], _line(p, FK, z, s, phi, lam)
            for a in (1.0, 0.5, 2.0 ** -7, 1e-3):
                zt = z + a * s
                assert L + change(a) == pytest.approx(
                    _lagrangian(F, K, zt, phi_value(zt, p), lam)[0], rel=1e-12)

    def test_indefinite_hessian_is_shifted(self, monkeypatch):
        # a start well inside the constraint, z^T K z = 1e-4: the penalty's
        # curvature (2 c / mu) K with c ~ -1 makes the Hessian indefinite, the
        # Cholesky attempt fails, and eigvalsh's shift makes it definite, as
        # the loop as first written shifts it
        p = fixture_problem(4)
        w0 = 0.01 * top_factor_start(p)
        failed, cholesky = [], np.linalg.cholesky

        def attempt(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                failed.append(a.shape)
                raise
        monkeypatch.setattr(np.linalg, "cholesky", attempt)
        _, trace, _ = augmented_lagrangian_solve(p, 8, w0=w0)
        assert failed
        assert_same_trace(trace, reference_augmented_lagrangian(p, 8, w0)[0])

    def test_failed_cholesky_at_positive_lambda_min_takes_no_shift(self, monkeypatch):
        # seed 155 (n = 4): a Hessian with eigenvalues from 8.5e-4 to 1.4e13
        # fails the Cholesky attempt, yet eigvalsh finds it positive
        # definite, so the Newton step solves it unshifted
        prob = badly_scaled_problem(155)
        calls, eigvalsh, solve = [], np.linalg.eigvalsh, np.linalg.solve

        def recorded_eigvalsh(a):
            calls.append(("eigvalsh", a.copy()))
            return eigvalsh(a)

        def recorded_solve(a, b):
            calls.append(("solve", a.copy()))
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        sol, _, _ = augmented_lagrangian_solve(prob, choose_p(prob.n))
        monkeypatch.undo()
        shifts = [(H, following) for (name, H), (_, following) in zip(calls, calls[1:])
                  if name == "eigvalsh"]
        assert shifts
        for H, solved in shifts:
            assert np.linalg.eigvalsh(H)[0] > 0 and np.array_equal(solved, H)
        _, w = reference_augmented_lagrangian(prob, choose_p(prob.n))
        assert sol.snr == pytest.approx(prob.solution(w).snr, rel=1e-12)

    def test_singular_shifted_hessian_is_a_convergence_error(self):
        # seed 100 (n = 4): the inner Hessian's eigenvalues run from -5.2e-5
        # to 6.9e14, the shift is below its round-off, and the Newton solve
        # finds it singular; LAPACK's failure is a non-convergence
        with pytest.raises(ConvergenceError, match="augmented Lagrangian broke down"):
            indiv_qcqp.solve(badly_scaled_problem(100), "pnorm")

    @pytest.mark.parametrize("seed", [59, 209])
    def test_badly_scaled_input_keeps_the_armijo_test(self, seed):
        # F's entries reach 1e6 beside z^T F z ~ 1e-2 or less: the line search
        # compares L + change with L + c1 alpha slope, so a change below L's
        # last digit passes as it did where L was evaluated afresh; a test of
        # the change alone stalls at seed 209, and L read off the expanded
        # forms, whose value at alpha = 0 is not L's, stalls at seed 59
        prob = badly_scaled_problem(seed)
        sol, _, _ = augmented_lagrangian_solve(prob, choose_p(prob.n))
        _, w = reference_augmented_lagrangian(prob, choose_p(prob.n))
        assert sol.snr == pytest.approx(prob.solution(w).snr, rel=1e-8)
