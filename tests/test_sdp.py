import warnings

import numpy as np
import pytest

from relaybeam import fixtures
from relaybeam.errors import ModelError
from relaybeam.linalg import qform
from relaybeam.channel import ChannelStats
from relaybeam.problems import IndivPowerProblem
from relaybeam.sdp import (SdpProblem, _traces, dual_certificate_residuals, range_eigh,
                           solve_relaxation)
from conftest import constraint_stack, rand_psd


def fixture_problem(n):
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    prob = IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0))
    return SdpProblem(objective=stats.R, constraints=constraint_stack(prob))


def random_problem(rng, n):
    Q = rand_psd(rng, n)
    A = []
    coeffs = rng.uniform(0.5, 2.0, n)
    for k in range(n):
        Ak = Q.copy()
        Ak[k, k] += coeffs[k]
        A.append(Ak)
    R = rand_psd(rng, n)
    return SdpProblem(objective=R, constraints=A)


def n64_problem(index):
    """Instance ``index`` of a random n = 64 recipe (objectives near 67) on
    which an absolute 1e-8 gap test stalled at gaps of ~1e-8."""
    rng = np.random.default_rng(3)
    for _ in range(index + 1):
        R, Q = rand_psd(rng, 64), rand_psd(rng, 64)
        D, P = rng.uniform(0.5, 2.0, 64), rng.uniform(1.0, 3.0, 64)
    stats = ChannelStats(D=D, R=R, Q=Q, sigma2=1.0)
    prob = IndivPowerProblem(stats=stats, Ps=1.0, P=P)
    return SdpProblem(objective=stats.R, constraints=constraint_stack(prob))


class TestSolveRelaxation:
    def test_single_constraint_trace_bound(self):
        # max Tr(X) s.t. Tr(X) <= 1 on PSD 2x2: optimum value 1
        p = SdpProblem(objective=np.eye(2), constraints=[np.eye(2)])
        sol = solve_relaxation(p)
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-7)
        assert sol.gap <= 1e-8

    @pytest.mark.parametrize("n,key", [(4, 4), (6, 6)])
    def test_fixtures(self, n, key):
        sol = solve_relaxation(fixture_problem(n))
        exp = fixtures.INDIV_EXPECT[key]
        assert sol.primal_obj == pytest.approx(exp["sdp"], rel=2e-2)
        nz, _ = range_eigh(sol.X)
        assert nz.size == 2
        for got, expv in zip(nz, exp["x_eigs"]):
            assert got == pytest.approx(expv, rel=2e-2)
        assert sol.gap <= 1e-8
        # dual certificate: y >= 0 and sum y_k A_k - R >= -tol I
        rep = dual_certificate_residuals(fixture_problem(n), sol)
        assert sol.dual_y.min() >= 0
        assert rep.dual_feas >= -1e-8
        assert rep.primal_feas <= 1e-8
        assert rep.comp_slack <= 1e-6

    @pytest.mark.parametrize("n,most", [(4, 13), (6, 16)])
    def test_fixture_iteration_count(self, n, most):
        assert solve_relaxation(fixture_problem(n)).iterations <= most

    @pytest.mark.parametrize("index", range(4))
    def test_n64_converges_to_relative_gap(self, index):
        p = n64_problem(index)
        sol = solve_relaxation(p)
        rep = dual_certificate_residuals(p, sol)
        assert sol.iterations < 25
        assert rep.primal_feas <= 1e-8
        assert rep.dual_feas >= -1e-8
        assert rep.comp_slack <= 1e-8 * max(1.0, abs(sol.primal_obj))

    def test_gap_not_worse_than_initial(self, rng):
        p = random_problem(rng, 4)
        sol = solve_relaxation(p)
        # initial iterates: X0 = eps I, y0 = 1
        eps0 = 0.5 / max(np.trace(A).real for A in p.constraints)
        gap0 = p.m * 1.0 - eps0 * np.trace(p.objective).real
        assert abs(sol.gap) <= abs(gap0)

    def test_scale_equivariance(self, rng):
        p = random_problem(rng, 4)
        alpha = 3.7
        sol1 = solve_relaxation(p)
        sol2 = solve_relaxation(SdpProblem(objective=alpha * p.objective,
                                           constraints=p.constraints))
        assert sol2.primal_obj == pytest.approx(alpha * sol1.primal_obj, rel=1e-7)
        assert np.abs(sol2.X - sol1.X).max() <= 1e-5

    def test_relaxation_dominates_feasible_points(self, rng):
        p = random_problem(rng, 5)
        sol = solve_relaxation(p)
        for _ in range(50):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            worst = max(qform(A, w) for A in p.constraints)
            w = w / np.sqrt(worst)
            assert qform(p.objective, w) <= sol.primal_obj + 1e-7

    def test_more_constraints_than_dimension(self, rng):
        A = [rand_psd(rng, 3) + 0.1 * np.eye(3) for _ in range(5)]
        p = SdpProblem(objective=rand_psd(rng, 3), constraints=A)
        assert p.constraints.shape == (5, 3, 3)
        sol = solve_relaxation(p)
        rep = dual_certificate_residuals(p, sol)
        assert rep.primal_feas <= 1e-8
        assert rep.dual_feas >= -1e-8
        assert rep.comp_slack <= 1e-6
        # per-constraint loop as the reference for the stacked contraction
        ref = np.array([np.trace(Ak @ sol.X).real for Ak in A])
        assert np.allclose(_traces(p.constraints, sol.X), ref, rtol=0, atol=1e-12)

    def test_non_psd_objective_warns(self):
        with pytest.warns(UserWarning):
            SdpProblem(objective=np.diag([1.0, -1.0]),
                       constraints=[np.eye(2)])

    def test_non_psd_constraint_rejected(self):
        with pytest.raises(ModelError):
            SdpProblem(objective=np.eye(2), constraints=[np.diag([1.0, -1.0])])

    def test_psd_test_is_relative(self):
        # lambda_min = -1e-2 beside lambda_max = 1e8 is round-off (1e-10
        # relative); -1e-8 beside 1 is not
        M = np.diag([1e8, -1e-2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SdpProblem(objective=M, constraints=[np.eye(2), M])
        with pytest.warns(UserWarning):
            SdpProblem(objective=np.diag([1.0, -1e-8]), constraints=[np.eye(2)])
        with pytest.raises(ModelError, match="A_2"):
            SdpProblem(objective=np.eye(2), constraints=[np.eye(2), np.diag([1.0, -1e-8])])


class TestCertificateResiduals:
    @pytest.mark.parametrize("n", [4, 24])
    def test_valid_solution_small_residuals(self, rng, n):
        p = random_problem(rng, n)
        sol = solve_relaxation(p)
        rep = dual_certificate_residuals(p, sol)
        assert rep.primal_feas <= 1e-8
        assert rep.dual_feas >= -1e-8
        assert rep.comp_slack <= 1e-6

    def test_scaled_x_reports_violation(self, rng):
        p = random_problem(rng, 4)
        sol = solve_relaxation(p)
        bad = type(sol)(X=2.0 * sol.X, dual_y=sol.dual_y,
                        primal_obj=sol.primal_obj, dual_obj=sol.dual_obj,
                        gap=sol.gap, rank_estimate=sol.rank_estimate,
                        iterations=sol.iterations)
        rep = dual_certificate_residuals(p, bad)
        assert rep.primal_feas > 0   # an active constraint now exceeds 1

    def test_zero_dual_reports_dual_infeasibility(self, rng):
        p = random_problem(rng, 3)
        sol = solve_relaxation(p)
        bad = type(sol)(X=sol.X, dual_y=np.zeros(p.m),
                        primal_obj=sol.primal_obj, dual_obj=0.0, gap=0.0,
                        rank_estimate=sol.rank_estimate, iterations=sol.iterations)
        rep = dual_certificate_residuals(p, bad)
        # with y = 0 the certificate matrix is -R, so lambda_min(-R) < 0
        assert rep.dual_feas == pytest.approx(-np.linalg.eigvalsh(p.objective)[-1],
                                              rel=1e-9)
