"""Metamorphic relations the problems obey exactly, tested with no reference.

- (a) R -> 4^j R: total power keeps x and w and multiplies the SNR by 4^j,
  bitwise (every step scales by a power of two).
- (b) (P0, sigma^2) -> 4^j (P0, sigma^2): total power keeps x, the SNR, the
  iteration count and w bitwise, since r = sigma^2/P0 is unchanged and the
  budget and the SNR read only ratios of the scaled powers; on both sides of
  RICIAN_MIN_N, for statistics built from matrices and by ``build_stats``.
- (c) a relay relabeling P, and (d) a per-relay phase rotation Phi, map
  (R, Q, c) to (P R P^T, P Q P^T, P c) and (Phi R Phi^H, Phi Q Phi^H, c):
  the relaxation's value agrees within GAP_TOL of its bound, and its rank
  estimate is equal, at rank one and at rank two, where the KKT exit or the
  gap stop ends the interior point.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybeam import fixtures, total_power
from relaybeam.channel import ChannelStats, RicianParams, build_stats
from relaybeam.indiv_qcqp import build_qcqp
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem
from relaybeam.sdp import GAP_TOL, QcqpInstance, solve_relaxation
from conftest import rand_indiv_problem, rand_total_problem


def relabeled(q, perm):
    return QcqpInstance(R=q.R[np.ix_(perm, perm)], Q=q.Q[np.ix_(perm, perm)], c=q.c[perm])


def rotated(q, theta):
    phi = np.exp(1j * theta)
    turn = phi[:, None] * phi.conj()
    return QcqpInstance(R=turn * q.R, Q=turn * q.Q, c=q.c)


def assert_same_relaxation(q, moved):
    sol, got = solve_relaxation(q), solve_relaxation(moved)
    assert got.rank_estimate == sol.rank_estimate
    tol = GAP_TOL * max(1.0, sol.dual_obj)
    assert abs(got.primal_obj - sol.primal_obj) <= tol
    assert abs(got.dual_obj - sol.dual_obj) <= tol
    return sol


def general(n, seed):
    return build_qcqp(rand_indiv_problem(np.random.default_rng([seed, n]), n))


def fixture(n):
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    return build_qcqp(IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0)))


# (instance, its rank, whether the exit ends it)
CASES = {"general-6": (lambda: general(6, 0), 1, True),
         "general-12": (lambda: general(12, 0), 1, True),
         "fixture-4": (lambda: fixture(4), 2, True),
         "fixture-6": (lambda: fixture(6), 2, True),
         "general-8-rank-two": (lambda: general(8, 8), 2, True),
         "general-12-rank-two": (lambda: general(12, 4), 2, True),
         "general-12-rank-two-gap-stop": (lambda: general(12, 5), 2, False)}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("relation", ["relabel", "rotate"])
def test_relaxation_invariance(case, relation):
    make, rank, exits = CASES[case]
    q = make()
    rng = np.random.default_rng(q.n)
    for _ in range(2):
        moved = (relabeled(q, rng.permutation(q.n)) if relation == "relabel"
                 else rotated(q, rng.uniform(0.0, 2 * np.pi, q.n)))
        sol = assert_same_relaxation(q, moved)
    assert sol.rank_estimate == rank and (sol.factor is not None) == exits


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 12))
@settings(deadline=None, max_examples=15)
def test_relaxation_invariance_sampled(seed, n):
    q = general(n, seed)
    rng = np.random.default_rng(seed)
    assert_same_relaxation(q, relabeled(q, rng.permutation(n)))
    assert_same_relaxation(q, rotated(q, rng.uniform(0.0, 2 * np.pi, n)))


@pytest.mark.parametrize("n", [4, 6, 16])
@pytest.mark.parametrize("j", [-3, 2, 20])
def test_total_power_objective_scale(n, j):
    for seed in range(3):
        p = rand_total_problem(np.random.default_rng([seed, n]), n)
        s = p.stats
        scaled = TotalPowerProblem(
            stats=ChannelStats(D=s.D, R=4.0 ** j * s.R, Q=s.Q, sigma2=s.sigma2), P0=p.P0)
        a, b = total_power.solve(p), total_power.solve(scaled)
        assert (b.x, b.Ps, b.iterations) == (a.x, a.Ps, a.iterations)
        assert np.array_equal(b.w, a.w) and b.snr == 4.0 ** j * a.snr


def rician_stats(rng, n, sigma2):
    mean = lambda: (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return build_stats(RicianParams(f_mean=mean(), f_var=rng.uniform(0.2, 2.0, n),
                                    g_mean=mean(), g_var=rng.uniform(0.2, 2.0, n)), sigma2)


@pytest.mark.parametrize("built", ["matrices", "build_stats"])
@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("j", [-3, 2, 20])
def test_total_power_noise_and_budget_scale(built, n, j):
    for seed in range(3):
        rng = np.random.default_rng([seed, n])
        if built == "matrices":
            p = rand_total_problem(rng, n)
            s = p.stats
            scaled = ChannelStats(D=s.D, R=s.R, Q=s.Q, sigma2=4.0 ** j * s.sigma2)
        else:
            sigma2 = float(rng.uniform(0.5, 2.0))
            state = rng.bit_generator.state
            p = TotalPowerProblem(stats=rician_stats(rng, n, sigma2), P0=float(rng.uniform(2.0, 20.0)))
            rng.bit_generator.state = state
            scaled = rician_stats(rng, n, 4.0 ** j * sigma2)
        a = total_power.solve(p)
        b = total_power.solve(TotalPowerProblem(stats=scaled, P0=4.0 ** j * p.P0))
        assert (b.x, b.snr, b.iterations) == (a.x, a.snr, a.iterations)
        assert np.array_equal(b.w, a.w) and b.Ps == 4.0 ** j * a.Ps
