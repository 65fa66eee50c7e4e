import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaybeam import fixtures, indiv_qcqp, sdp
from relaybeam.channel import ChannelStats, RicianParams, build_stats
from relaybeam.errors import ConvergenceError, InputError, ModelError
from relaybeam.indiv_qcqp import build_qcqp, qcqp_objective, solve_via_sdp
from relaybeam.problems import IndivPowerProblem
from relaybeam.sdp import (QcqpInstance, SdpProblem, dual_certificate_residuals, range_eigh,
                           solve_relaxation)
from conftest import (break_stacked_kernel, constraint_stack, degenerate_qcqp_instance,
                      loose_cap_problem, rand_indiv_problem, rand_psd, stacked_relaxation,
                      stacked_residuals)


def fixture_problem(n):
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    return build_qcqp(IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0)))


def random_problem(rng, n):
    Q = rand_psd(rng, n)
    coeffs = rng.uniform(0.5, 2.0, n)
    R = rand_psd(rng, n)
    return QcqpInstance(R=R, Q=Q, c=coeffs)


def rician_problem(rng, n):
    """Per-relay caps on Rician statistics: R and Q carry the rank-one
    terms of the mean gains."""
    f_mean, g_mean = ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
                      for _ in range(2))
    params = RicianParams(f_mean=f_mean, f_var=rng.uniform(0.1, 1.0, n),
                          g_mean=g_mean, g_var=rng.uniform(0.1, 1.0, n))
    return IndivPowerProblem(stats=build_stats(params, float(rng.uniform(0.5, 2.0))),
                             Ps=float(rng.uniform(0.5, 3.0)), P=rng.uniform(0.5, 2.0, n))


def n64_problem(index):
    """Instance ``index`` of a random n = 64 recipe (objectives near 67) on
    which an absolute 1e-8 gap test stalled at gaps of ~1e-8."""
    rng = np.random.default_rng(3)
    for _ in range(index + 1):
        R, Q = rand_psd(rng, 64), rand_psd(rng, 64)
        D, P = rng.uniform(0.5, 2.0, 64), rng.uniform(1.0, 3.0, 64)
    stats = ChannelStats(D=D, R=R, Q=Q, sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=P)


def assert_certified(q, sol):
    rep = dual_certificate_residuals(q, sol)
    assert sol.dual_y.min() >= 0
    assert rep.primal_feas <= 1e-8
    assert rep.dual_feas >= -1e-8
    assert rep.comp_slack <= 1e-6


class TestSolveRelaxation:
    def test_single_constraint_trace_bound(self):
        # the stacked reference on a stack that is not in relay form:
        # max Tr(X) s.t. Tr(X) <= 1 on PSD 2x2, optimum value 1
        sol = stacked_relaxation(np.eye(2), [np.eye(2)])
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-7)
        assert sol.gap <= 1e-8

    @pytest.mark.parametrize("n,key", [(4, 4), (6, 6)])
    def test_fixtures(self, n, key):
        q = fixture_problem(n)
        sol = solve_relaxation(q)
        exp = fixtures.INDIV_EXPECT[key]
        assert sol.primal_obj == pytest.approx(exp["sdp"], rel=2e-2)
        nz, _ = range_eigh(sol.X)
        assert nz.size == 2
        for got, expv in zip(nz, exp["x_eigs"]):
            assert got == pytest.approx(expv, rel=2e-2)
        assert sol.gap <= 1e-8
        # dual certificate: y >= 0 and sum y_k A_k - R >= -tol I
        assert_certified(q, sol)

    @pytest.mark.parametrize("n,most", [(4, 13), (6, 16)])
    def test_fixture_iteration_count(self, n, most):
        assert solve_relaxation(fixture_problem(n)).iterations <= most

    @pytest.mark.parametrize("index", range(4))
    def test_n64_converges_to_relative_gap(self, index):
        q = build_qcqp(n64_problem(index))
        sol = solve_relaxation(q)
        rep = dual_certificate_residuals(q, sol)
        assert sol.iterations < 25
        assert rep.primal_feas <= 1e-8
        assert rep.dual_feas >= -1e-8
        assert rep.comp_slack <= 1e-8 * max(1.0, abs(sol.primal_obj))

    def test_gap_not_worse_than_initial(self, rng):
        q = random_problem(rng, 4)
        sol = solve_relaxation(q)
        # initial iterates: X0 = eps I with eps = 0.5 / max_k Tr(A_k), y0 = 1
        eps0 = 0.5 / (np.trace(q.Q).real + q.c.max())
        gap0 = q.n * 1.0 - eps0 * np.trace(q.R).real
        assert abs(sol.gap) <= abs(gap0)

    def test_scale_equivariance(self, rng):
        q = random_problem(rng, 4)
        alpha = 3.7
        sol1 = solve_relaxation(q)
        sol2 = solve_relaxation(QcqpInstance(R=alpha * q.R, Q=q.Q, c=q.c))
        assert sol2.primal_obj == pytest.approx(alpha * sol1.primal_obj, rel=1e-7)
        assert np.abs(sol2.X - sol1.X).max() <= 1e-5

    def test_relaxation_dominates_feasible_points(self, rng):
        q = random_problem(rng, 5)
        sol = solve_relaxation(q)
        for _ in range(50):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            w = w / np.sqrt(q.constraint_values(w).max())
            assert np.real(w.conj() @ q.R @ w) <= sol.primal_obj + 1e-7

    def test_more_constraints_than_dimension(self, rng):
        # N = 5 generic constraints on n = 3: the stacked reference
        A = [rand_psd(rng, 3) + 0.1 * np.eye(3) for _ in range(5)]
        R = rand_psd(rng, 3)
        sol = stacked_relaxation(R, A)
        primal_feas, dual_feas, comp = stacked_residuals(R, A, sol)
        assert primal_feas <= 1e-8
        assert dual_feas >= -1e-8
        assert comp <= 1e-6

    def test_non_psd_objective_is_bounded(self):
        # Q PSD and every c_k > 0 bound the feasible set, so an indefinite R
        # needs no warning: max X_11 - X_22 s.t. Tr(X) + X_kk <= 1 is 1/2
        q = QcqpInstance(R=np.diag([1.0, -1.0]).astype(complex), Q=np.eye(2, dtype=complex),
                         c=np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_relaxation(q)
        assert sol.primal_obj == pytest.approx(0.5, abs=1e-7)
        assert_certified(q, sol)

    def test_non_psd_constraint_rejected(self):
        # A_1 = diag(2, -1) is Q + e_1 e_1^H for Q = diag(1, -1)
        with pytest.raises(ModelError, match="needs Q PSD"):
            SdpProblem(objective=np.eye(2), constraints=[np.diag([2.0, -1.0]), np.diag([1.0, 0.0])])

    def test_psd_test_is_relative(self):
        # lambda_min = -1e-2 beside lambda_max = 1e8 is round-off (1e-10
        # relative); -1e-8 beside 1 is not
        for Q, ok in ((np.diag([1e8, -1e-2]), True), (np.diag([1.0, -1e-8]), False)):
            A = [Q + np.diag([1.0, 0.0]), Q + np.diag([0.0, 1.0])]
            if ok:
                assert np.array_equal(SdpProblem(objective=np.eye(2), constraints=A).Q, Q)
            else:
                with pytest.raises(ModelError, match="needs Q PSD"):
                    SdpProblem(objective=np.eye(2), constraints=A)


class TestBreakdownIsConvergenceError:
    # the failures of the interior point on bounded relaxations are
    # ConvergenceErrors (exit 2) that name the iteration; making these
    # instances solve is left to a scale-free interior point

    def test_singular_schur_matrix(self):
        # the Schur matrix reaches condition ~1e17 and numpy's solve raises
        with pytest.raises(ConvergenceError, match=r"singular Schur matrix at iteration \d+"):
            solve_relaxation(loose_cap_problem(0, 4))

    def test_divergence_guard(self):
        # R 1e8 and Q 1e-8 put mu above the 1e14 guard; a relay-form
        # relaxation is bounded, so this is no ModelError
        with pytest.raises(ConvergenceError, match=r"diverged at iteration \d+"):
            solve_relaxation(loose_cap_problem(0, 4, r_scale=1e8, q_scale=1e-8))

    @pytest.mark.parametrize("kernel", ["cholesky", "inv", "eigvalsh"])
    def test_kernel_breakdown(self, monkeypatch, kernel):
        # a LinAlgError of the scalings or step lengths names its iteration
        break_stacked_kernel(monkeypatch, kernel, after=3)
        with pytest.raises(ConvergenceError, match=r"broke down at iteration \d+"):
            solve_relaxation(fixture_problem(4))


def test_kernel_budget_per_iteration(monkeypatch):
    # one stacked Cholesky and its inverse, two Schur solves and one stacked
    # eigvalsh per direction; then Z0's eigvalsh and _package's range_eigh
    q = fixture_problem(6)
    calls = Counter()
    for name in ("cholesky", "inv", "solve", "eigvalsh", "eigh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    k = solve_relaxation(q).iterations
    assert k > 0
    assert calls == {"cholesky": k, "inv": k, "solve": 2 * k, "eigvalsh": 2 * k + 1, "eigh": 1}


class TestCertificateResiduals:
    @pytest.mark.parametrize("n", [4, 24])
    def test_valid_solution_small_residuals(self, rng, n):
        q = random_problem(rng, n)
        assert_certified(q, solve_relaxation(q))

    def test_scaled_x_reports_violation(self, rng):
        q = random_problem(rng, 4)
        sol = solve_relaxation(q)
        bad = type(sol)(X=2.0 * sol.X, dual_y=sol.dual_y,
                        primal_obj=sol.primal_obj, dual_obj=sol.dual_obj,
                        gap=sol.gap, rank_estimate=sol.rank_estimate,
                        iterations=sol.iterations)
        rep = dual_certificate_residuals(q, bad)
        assert rep.primal_feas > 0   # an active constraint now exceeds 1

    def test_zero_dual_reports_dual_infeasibility(self, rng):
        q = random_problem(rng, 3)
        sol = solve_relaxation(q)
        bad = type(sol)(X=sol.X, dual_y=np.zeros(q.n),
                        primal_obj=sol.primal_obj, dual_obj=0.0, gap=0.0,
                        rank_estimate=sol.rank_estimate, iterations=sol.iterations)
        rep = dual_certificate_residuals(q, bad)
        # with y = 0 the certificate matrix is -R, so lambda_min(-R) < 0
        assert rep.dual_feas == pytest.approx(-np.linalg.eigvalsh(q.R)[-1], rel=1e-9)


class TestAgreesWithStackedReference:
    """The relay-form IPM against the stacked reference IPM of conftest on
    the same instance: the same iterates up to round-off."""

    # n = 64 checks the Cholesky scalings where X is worst conditioned
    @pytest.mark.parametrize("n,kind", [(n, kind) for n in (3, 4, 6, 8, 12, 16, 32)
                                        for kind in ("general", "rician", "degenerate")]
                             + [(64, "general")])
    def test_same_iterates(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "degenerate":
            p, q = degenerate_qcqp_instance(rng, n)
        else:
            p = rand_indiv_problem(rng, n) if kind == "general" else rician_problem(rng, n)
            q = build_qcqp(p)
        sol = solve_relaxation(q)
        ref = stacked_relaxation(p.stats.R, constraint_stack(p))
        assert (sol.iterations, sol.rank_estimate) == (ref.iterations, ref.rank_estimate)
        assert sol.primal_obj == pytest.approx(ref.primal_obj, rel=1e-9)
        assert sol.dual_obj == pytest.approx(ref.dual_obj, rel=1e-9)
        # a degenerate instance's optimal face is every fully-active X, so X
        # is fixed only up to round-off along it: at n = 32 one ulp of R
        # moves the reference's own X by 2.4e-6 max|X|
        xtol = 1e-5 if kind == "degenerate" else 1e-6
        assert np.abs(sol.X - ref.X).max() <= xtol * np.abs(ref.X).max()
        assert_certified(q, sol)


def exits(monkeypatch):
    """Record the result of every rank-one exit attempt: a list of
    ``SdpSolution`` or None (declined)."""
    seen, attempt = [], sdp._rank_one_exit
    monkeypatch.setattr(sdp, "_rank_one_exit", lambda *a: seen.append(attempt(*a)) or seen[-1])
    return seen


def without_exit(q):
    """``solve_relaxation`` with the rank-one exit switched off: the plain
    interior point, stopped at its own gap target."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "_EXIT_GAP", -1.0)
        return solve_relaxation(q)


def assert_same_solution(got, ref):
    for name in ("X", "dual_y"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    for name in ("primal_obj", "dual_obj", "gap", "rank_estimate", "iterations"):
        assert getattr(got, name) == getattr(ref, name)


def rank_one_problem(n):
    """A general instance whose relaxation is rank one (checked by the tests)."""
    return build_qcqp(rand_indiv_problem(np.random.default_rng(n), n))


class TestRankOneExit:
    """The exit at a certified rank-one KKT point: taken only on a
    certificate, and otherwise leaving the interior point's iterates alone."""

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_taken_on_rank_one(self, monkeypatch, n):
        q = rank_one_problem(n)
        seen = exits(monkeypatch)
        sol = solve_relaxation(q)
        ref = without_exit(q)
        assert seen[-1] is sol and sol.rank_estimate == ref.rank_estimate == 1
        assert sol.iterations < ref.iterations
        assert sol.primal_obj == pytest.approx(ref.primal_obj, rel=1e-8)
        assert q.traces(sol.X).max() <= 1.0 + 1e-12
        assert 0.0 <= sol.gap <= sdp.GAP_TOL * sol.dual_obj
        assert_certified(q, sol)

    @pytest.mark.parametrize("case", ["fixture-4", "fixture-6", "degenerate-4", "degenerate-8",
                                      "degenerate-inactive-6"])
    def test_rank_two_never_exits(self, monkeypatch, case):
        kind, *_, n = case.split("-")
        rng = np.random.default_rng(int(n))
        q = (fixture_problem(int(n)) if kind == "fixture"
             else degenerate_qcqp_instance(rng, int(n), inactive="inactive" in case)[1])
        seen = exits(monkeypatch)
        sol = solve_relaxation(q)
        assert sol.rank_estimate >= 2
        assert all(attempt is None for attempt in seen)
        assert_same_solution(sol, without_exit(q))

    def test_linalg_error_declines(self, monkeypatch):
        # the exit's bordered Newton system is the only solve larger than n x n
        q = rank_one_problem(6)
        ref = without_exit(q)
        real, raised = np.linalg.solve, []

        def solve(a, b):
            if a.shape[0] > q.n:
                raised.append(a.shape)
                raise np.linalg.LinAlgError("forced")
            return real(a, b)
        monkeypatch.setattr(np.linalg, "solve", solve)
        seen = exits(monkeypatch)
        sol = solve_relaxation(q)
        assert raised and seen and all(attempt is None for attempt in seen)
        assert_same_solution(sol, ref)

    def test_negative_multiplier_declines(self, monkeypatch):
        # max w^H R w s.t. |w_1|^2, |w_2|^2 <= 1 peaks at w = (1, 1/4), 3.125;
        # with cap 2 taken as active the KKT point is w = (1, 1), value 2,
        # y = (3.5, -1.5), where Z = diag(y) - R is PSD: only y >= 0 keeps
        # sum y = 2 from certifying it
        toy = QcqpInstance(R=np.array([[3.0, 0.5], [0.5, -2.0]], dtype=complex),
                           Q=np.zeros((2, 2), dtype=complex), c=np.ones(2))
        w0 = np.array([1.0, 0.9], dtype=complex)
        assert sdp._rank_one_exit(toy, np.outer(w0, w0), np.array([3.5, 1.0]),
                                  np.zeros(2), 1) is None
        assert solve_relaxation(toy).primal_obj == pytest.approx(3.125, rel=1e-9)
        # every Newton step pushes the active multipliers far below zero
        q = rank_one_problem(6)
        ref = without_exit(q)
        real = np.linalg.solve

        def solve(a, b):
            d = real(a, b)
            if a.shape[0] > q.n:
                d[2 * q.n:-1] -= 1e6
            return d
        monkeypatch.setattr(np.linalg, "solve", solve)
        seen = exits(monkeypatch)
        sol = solve_relaxation(q)
        assert seen and all(attempt is None for attempt in seen)
        assert_same_solution(sol, ref)

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_objective_declines(self, monkeypatch, n):
        # R = 0: every multiplier tends to zero, no cap is active and the
        # bordered Newton system is singular; a 1 x 1 X is rank one, so n = 1
        # tries the exit at every iteration
        q = rank_one_problem(n)
        q = QcqpInstance(R=np.zeros_like(q.R), Q=q.Q, c=q.c)
        seen = exits(monkeypatch)
        sol = solve_relaxation(q)
        assert all(attempt is None for attempt in seen) and (n > 1 or seen)
        assert sol.primal_obj == 0.0
        assert_same_solution(sol, without_exit(q))

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           kind=st.sampled_from(["general", "rician"]))
    @settings(deadline=None, max_examples=30)
    def test_certificate_bounds_every_route(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        p = rand_indiv_problem(rng, n) if kind == "general" else rician_problem(rng, n)
        q = build_qcqp(p)
        ref = without_exit(q)
        assume(ref.rank_estimate == 1)
        relaxation = solve_via_sdp(p)
        sol = relaxation[1]
        assert sol.iterations < ref.iterations     # the exit was taken
        assert q.traces(sol.X).max() <= 1.0 + 1e-12
        assert_certified(q, sol)
        for route, options in (("sdp", {}), ("cdm", {}), ("grp", {"samples": 64})):
            w = indiv_qcqp.solve(p, route, options, seed, relaxation)[0].w
            assert qcqp_objective(q, w) <= sol.dual_obj * (1 + 1e-12)


class TestSdpProblemAdapter:
    def test_relay_list_solves_as_solve_via_sdp(self, rng):
        p = rand_indiv_problem(rng, 5)
        q, sol, _ = solve_via_sdp(p)
        adapted = SdpProblem(objective=p.stats.R, constraints=list(constraint_stack(p)))
        np.testing.assert_array_equal(adapted.Q, q.Q)
        np.testing.assert_allclose(adapted.c, q.c, rtol=1e-15)
        got = solve_relaxation(adapted)
        assert (got.iterations, got.rank_estimate) == (sol.iterations, sol.rank_estimate)
        assert got.dual_obj == pytest.approx(sol.dual_obj, rel=1e-12)
        assert got.primal_obj == pytest.approx(sol.primal_obj, rel=1e-12)
        np.testing.assert_allclose(got.dual_y, sol.dual_y, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.X, sol.X, rtol=0, atol=1e-9 * np.abs(sol.X).max())

    def test_single_relay(self):
        q = SdpProblem(objective=[[2.0]], constraints=[[[4.0]]])
        assert (q.Q[0, 0], q.c[0]) == (0.0, 4.0)
        assert solve_relaxation(q).primal_obj == pytest.approx(0.5, rel=1e-8)

    def test_non_relay_list_rejected(self, rng):
        A = list(constraint_stack(rand_indiv_problem(rng, 3)))
        A[2] = A[2] + 0.1 * np.eye(3)      # a second diagonal entry moves
        with pytest.raises(InputError, match="A_3"):
            SdpProblem(objective=np.eye(3), constraints=A)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_length_other_than_n_rejected(self, rng, count):
        A = [rand_psd(rng, 3) + np.eye(3) for _ in range(count)]
        with pytest.raises(InputError, match="3 constraint matrices of shape"):
            SdpProblem(objective=np.eye(3), constraints=A)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError, match="2 constraint matrices of shape"):
            SdpProblem(objective=np.eye(2), constraints=[np.eye(2), np.eye(3)])

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ModelError, match="min c_k = -1"):
            SdpProblem(objective=np.eye(2), constraints=[2.0 * np.eye(2), np.eye(2)])


def test_no_constraint_stack_is_formed():
    # the whole per-relay relaxation at n = 48 peaks below the size of one
    # complex (n, n, n) array of constraint matrices
    n = 48
    p = rand_indiv_problem(np.random.default_rng(n), n)
    solve_via_sdp(p)                     # warm numpy's lazy set-up
    tracemalloc.start()
    try:
        solve_via_sdp(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n ** 3 * 16
