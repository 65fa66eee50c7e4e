import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybeam import fixtures
from relaybeam.channel import ChannelStats, snr
from relaybeam.errors import InputError, ModelError
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.indiv_qcqp import build_qcqp, qcqp_objective
from relaybeam.indiv_search import (ScalarFractionalSubproblem,
                                    augmented_lagrangian_solve,
                                    build_pnorm_embedding, choose_p,
                                    coordinate_descent, p1_solution,
                                    phi_p_grad_hess, phi_p_value,
                                    solve_scalar_subproblem, subproblem_value)
from relaybeam.problems import IndivPowerProblem
from conftest import (extract_coefficients, finite_diff,
                      finite_diff_second, grid_maximum, rand_indiv_problem)


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
    return ScalarFractionalSubproblem(
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
            y, t, _ = solve_scalar_subproblem(dense_coefficients(p, w, k))
            w[k] = y
            objs.append(p.Ps / p.stats.sigma2 * t)
        denom = np.linalg.norm(w_prev)
        if denom > 0 and np.linalg.norm(w - w_prev) / denom < eps:
            return w, objs
    raise AssertionError("reference did not converge")


def stationarity_improvement(p, w) -> float:
    """Largest single-slot objective improvement available at w.

    Zero (up to tolerance) at a coordinate-wise stationary point; used to
    audit the coordinate-descent limit.
    """
    w = np.asarray(w, dtype=complex).ravel()
    worst = 0.0
    for k in range(p.n):
        sub = extract_coefficients(p, w, k)
        _, t, _ = solve_scalar_subproblem(sub)
        worst = max(worst, t - subproblem_value(sub, w[k]))
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
                assert subproblem_value(s, y) == pytest.approx(expected, rel=1e-10)


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
        s = ScalarFractionalSubproblem(a1=0.0, a2=1.0, b1=0.0, b2=0.0,
                                       c1=0.0, c2=1.0, beta=1.0)
        y, t, const = solve_scalar_subproblem(s)
        assert const
        assert y == 0
        assert t == pytest.approx(0.0)

    def test_no_cross_term_boundary(self):
        # b1 = b2 = 0 and a1 c2 - a2 c1 > 0: ratio increases with |y|
        s = ScalarFractionalSubproblem(a1=2.0, a2=1.0, b1=0.0, b2=0.0,
                                       c1=0.5, c2=1.0, beta=0.8)
        y, t, const = solve_scalar_subproblem(s)
        assert not const
        assert abs(y) == pytest.approx(0.8, rel=1e-12)
        assert t == pytest.approx(subproblem_value(s, y), rel=1e-12)

    @staticmethod
    def assert_feasible_maximum(s, y, t, radial=400, angular=720):
        assert abs(y) <= s.beta * (1.0 + 1e-12)
        assert t == pytest.approx(subproblem_value(s, y), rel=1e-12)
        t_grid = grid_maximum(s, radial, angular)[0]
        assert t >= t_grid - 1e-9 * abs(t_grid)

    @pytest.mark.parametrize("s, t_max", [
        # a boundary optimum that root filters with absolute sign margins miss
        (ScalarFractionalSubproblem(
            a1=0.5292279301347068, a2=4.319937227016552e-05,
            b1=5.064139848037656e-07 - 4.145966114436969e-06j,
            b2=-2.112074393972352e-10 - 7.252912528899636e-10j,
            c1=1.9593655289424063e-10, c2=1.0000000000000144,
            beta=5778.812138186871), 12242.33845806319),
        # an interior root just outside the disk that such margins accept
        (ScalarFractionalSubproblem(
            a1=4.6363518852872877e-07, a2=298.3038389493982,
            b1=-2.228672469680796e-09 - 9.999690053697283e-10j,
            b2=-0.0019176998509088873 - 0.004797199812443993j,
            c1=9.879670715805064e-10, c2=1.000000171333543,
            beta=0.0011415649645183485), 9.9375343006471e-10),
        # an interior optimum at a scale those margins cannot resolve
        (ScalarFractionalSubproblem(
            a1=1.1544437484797912e-10, a2=35.436989513699835,
            b1=-1.4170223764177e-11 - 4.393946068507409e-11j,
            b2=-4.584369233316775 + 0.6009287125832833j,
            c1=3.563825005429447e-11, c2=4.844649774245868,
            beta=694.3121801938354), 1.0333956874823e-11),
    ], ids=["boundary-fuzz", "interior-outside-disk", "interior-tiny-scale"])
    def test_extreme_scale_cases(self, s, t_max):
        y, t, const = solve_scalar_subproblem(s)
        assert not const
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
            s = ScalarFractionalSubproblem(*case)
            y, t, _ = solve_scalar_subproblem(s)
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
            y, t, const = solve_scalar_subproblem(s)
            t_grid, _ = grid_maximum(s)
            assert t >= t_grid - 1e-4 * max(1.0, abs(t_grid))
            assert t == pytest.approx(t_grid, rel=1e-4, abs=1e-4)
            if const:
                branches["constant"] += 1
            elif abs(abs(y) - s.beta) <= 1e-9 * s.beta:
                branches["boundary"] += 1
            else:
                branches["interior"] += 1
        assert all(v > 0 for v in branches.values()), branches


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
        with pytest.raises(InputError, match="eps must be a positive finite number"):
            coordinate_descent(fixture_problem(4), np.ones(4), eps=eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_w0_rejected(self, bad):
        w0 = np.ones(4, dtype=complex)
        w0[2] = bad
        with pytest.raises(InputError, match="non-finite"):
            coordinate_descent(fixture_problem(4), w0)

    def test_infeasible_start_projected(self, rng):
        p = rand_indiv_problem(rng, 3)
        w0 = 100.0 * np.ones(3, dtype=complex)
        sol, _ = coordinate_descent(p, w0)
        assert p.slacks(sol.w).min() >= -1e-9

    def test_trace_csv_fields_are_numbers(self):
        # numpy scalar budgets make every objective an np.float64, whose
        # repr is "np.float64(...)"; the CSV must still hold plain numbers
        R, Q = fixtures.indiv_fixture(4)
        stats = ChannelStats(D=np.ones(4), R=R, Q=Q, sigma2=np.float64(1.3))
        p = IndivPowerProblem(stats=stats, Ps=np.float64(0.7), P=np.full(4, 2.0))
        _, trace = coordinate_descent(p, np.ones(4))
        header, *rows = trace.to_csv().splitlines()
        assert header == "sweep,slot,objective" and len(rows) == len(trace)
        for line, row in zip(rows, trace.rows):
            assert [float(v) for v in line.split(",")] == [float(v) for v in row]


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
        p = fixture_problem(4)
        e = build_pnorm_embedding(p, 64)
        assert np.allclose(e.D1, 1.0)
        assert np.allclose(e.Q1, p.stats.Q)
        assert np.allclose(e.R1, p.stats.R)

    def test_embedding_identities(self, rng):
        p = rand_indiv_problem(rng, 4)
        e = build_pnorm_embedding(p, 8)
        for _ in range(10):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z = np.concatenate([u.real, u.imag])
            assert z @ e.F @ z == pytest.approx(
                np.real(u.conj() @ e.Q1 @ u), rel=1e-12)
            assert z @ e.K @ z == pytest.approx(
                np.real(u.conj() @ e.R1 @ u), rel=1e-12)
            assert phi_p_value(e, z) == pytest.approx(
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
    def make(self, rng, n, p):
        prob = rand_indiv_problem(rng, n)
        return build_pnorm_embedding(prob, p)

    def test_p1_collapses(self, rng):
        e = self.make(rng, 3, 1)
        z = rng.standard_normal(6)
        val, g, H = phi_p_grad_hess(e, z)
        assert val == pytest.approx(z @ z, rel=1e-12)
        assert np.allclose(g, 2 * z)
        assert np.allclose(H, 2 * np.eye(6))

    @pytest.mark.parametrize("p", [2, 8, 64])
    def test_finite_difference_oracle(self, p, rng):
        e = self.make(rng, 3, p)
        for _ in range(5):
            z = rng.standard_normal(6)
            z = z / np.linalg.norm(z)
            val, g, H = phi_p_grad_hess(e, z)
            fd_g = finite_diff(lambda zv: phi_p_value(e, zv), z, h=1e-6)
            assert np.allclose(g, fd_g, rtol=1e-5, atol=1e-7)
            fd_H = finite_diff_second(lambda zv: phi_p_value(e, zv), z, h=1e-4)
            assert np.allclose(H, fd_H, rtol=1e-4, atol=5e-3)

    @pytest.mark.parametrize("p", [1, 2, 8, 1024])
    def test_hessian_matches_outer_product_loop(self, p, rng):
        # the Hessian adds four entries per relay; the reference adds the
        # whole outer product (J~_k z)(J~_k z)^T, in the same order
        n = 16
        e = self.make(rng, n, p)
        z = rng.standard_normal(2 * n)
        val, g, H = phi_p_grad_hess(e, z)
        ratio = (z[:n] ** 2 + z[n:] ** 2) / val
        ref = np.zeros((2 * n, 2 * n))
        ref[np.arange(2 * n), np.arange(2 * n)] = 2.0 * np.tile(ratio ** (p - 1), 2)
        ref += ((1.0 - p) / val) * np.outer(g, g)
        for k in range(n if p >= 2 else 0):
            jz = np.zeros(2 * n)
            jz[[k, n + k]] = z[[k, n + k]]
            ref += (4.0 * (p - 1) / val) * ratio[k] ** (p - 2) * np.outer(jz, jz)
        assert np.array_equal(H, ref)

    def test_one_hot_exact(self, rng):
        for p in (1, 2, 8, 1024):
            e = self.make(rng, 4, p)
            u = np.zeros(4, dtype=complex)
            u[2] = 1.7 - 0.3j
            z = np.concatenate([u.real, u.imag])
            assert phi_p_value(e, z) == pytest.approx(abs(u[2]) ** 2, rel=1e-12)

    def test_zero_is_zero(self, rng):
        # the norm's value at z = 0, where it is not smooth
        e = self.make(rng, 3, 4)
        assert phi_p_value(e, np.zeros(6)) == 0.0


class TestInitialMultiplier:
    def test_zero_f(self, rng):
        p = rand_indiv_problem(rng, 3)
        e = build_pnorm_embedding(p, 2)
        e.F = np.zeros((6, 6))
        e.K = np.eye(6)
        assert p1_solution(e)[0] == pytest.approx(1.0)

    def test_identity_pair(self, rng):
        p = rand_indiv_problem(rng, 3)
        e = build_pnorm_embedding(p, 2)
        e.F = np.eye(6)
        e.K = np.eye(6)
        assert p1_solution(e)[0] == pytest.approx(2.0)

    def test_fixture_positive(self):
        e = build_pnorm_embedding(fixture_problem(4), 1024)
        lam, z = p1_solution(e)
        assert lam > 0
        # z is the p = 1 minimizer: on the constraint, at the value lam
        assert z @ e.K @ z == pytest.approx(1.0, rel=1e-12)
        assert z @ (e.F + np.eye(8)) @ z == pytest.approx(lam, rel=1e-12)


class TestAugmentedLagrangian:
    def test_p1_matches_closed_form(self, rng):
        p = rand_indiv_problem(rng, 3)
        e = build_pnorm_embedding(p, 1)
        sol, trace, state = augmented_lagrangian_solve(e, p)
        # at p = 1 the constrained optimum value is the initial multiplier
        z = state.z
        achieved = z @ e.F @ z + phi_p_value(e, z)
        assert achieved == pytest.approx(p1_solution(e)[0], rel=1e-6)

    @pytest.mark.parametrize("n,key", [(4, "pnorm")])
    def test_fixture_objective(self, n, key):
        from relaybeam.sdp import solve_relaxation
        p = fixture_problem(n)
        q = build_qcqp(p)
        rel = solve_relaxation(q)
        vals, vecs = np.linalg.eigh(rel.X)
        w0 = np.sqrt(vals[-1]) * vecs[:, -1]
        e = build_pnorm_embedding(p, fixtures.PNORM_P)
        sol, trace, state = augmented_lagrangian_solve(e, p, w0=w0)
        obj = qcqp_objective(q, sol.w)
        assert obj == pytest.approx(fixtures.INDIV_EXPECT[n][key], rel=2e-2)
        assert abs(state.constraint_residual) <= 1e-8
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
        sol, _, _ = augmented_lagrangian_solve(
            build_pnorm_embedding(p, choose_p(n)), p)
        assert sol.feasibility.min() >= -1e-12
        obj = qcqp_objective(q, sol.w)
        assert 0.99 * bound <= obj <= (1.0 + 1e-6) * bound

    def test_zero_r_is_a_model_error(self):
        # no signal: a model failure (exit 4), not a division by zero in
        # the initial multiplier
        stats = ChannelStats(D=np.ones(4), R=np.zeros((4, 4)),
                             Q=fixtures.indiv_fixture(4)[1], sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(4, 2.0))
        with pytest.raises(ModelError, match="R = 0"):
            build_pnorm_embedding(p, 8)

    def test_inner_descent_and_outer_residuals(self):
        p = fixture_problem(4)
        e = build_pnorm_embedding(p, 64)
        sol, trace, state = augmented_lagrangian_solve(e, p)
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
        e = build_pnorm_embedding(p, 8)
        _, trace, _ = augmented_lagrangian_solve(e, p)
        assert trace.columns == ("outer_k", "inner_i", "L",
                                 "constraint_residual", "grad_norm", "alpha")

    def test_bad_z0_rejected(self, rng):
        # a start z = [Re u; Im u] off the constraint's reach, z^T K z = 0
        p = rand_indiv_problem(rng, 3)
        e = build_pnorm_embedding(p, 4)
        with pytest.raises(InputError, match="w0"):
            augmented_lagrangian_solve(e, p, w0=np.zeros(3))
        with pytest.raises(InputError, match="w0 has length 4"):
            augmented_lagrangian_solve(e, p, w0=np.ones(4))

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
        sol, _, _ = augmented_lagrangian_solve(build_pnorm_embedding(p, choose_p(4)), p)
        assert sol.feasibility.min() >= -1e-12
        assert 0.99 * bound <= qcqp_objective(q, sol.w) <= (1.0 + 1e-6) * bound
