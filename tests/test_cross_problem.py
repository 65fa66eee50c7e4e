"""The two budgets check each other: relations (e) and (f) between the
total-power problem and the per-relay problem on one (D, R, Q).

(e) Give the per-relay problem Ps = Ps* and caps P_k = the per-relay powers
of total power's optimum w*.  Then w* is feasible, and every feasible w is
total-feasible at P0, so the per-relay optimum equals total power's SNR.
(f) For any (Ps, P), the per-relay SNR is at most total power's SNR at
P0 = Ps + sum P_k.  Neither relation needs a grid, so both hold at any n.

Each relation runs on 40 seeded instances: n is drawn from RELAYS, even
seeds take ``build_stats`` statistics (psi, phi ~ U(0.2, 2)) and odd seeds
matrix-built ones (R = cw(2), Q = cw(n), D ~ U(0.5, 2), with cw(k) = A A^H/k
for an n x k complex Gaussian A), all at sigma^2 = 1.
"""

import numpy as np
import pytest

from relaybeam import (ChannelStats, IndivPowerProblem, RicianParams, TotalPowerProblem,
                       build_stats, indiv_qcqp, sdp, total_power)
from relaybeam.channel import powers
from relaybeam.indiv_search import SMOOTHING_EPS

RELAYS = (3, 4, 6, 8, 16, 32)
# (e)'s caps are the optimum's per-relay powers times 1 + CAP_MARGIN, so that
# w* stays feasible through the round-off of c_k |w_k|^2; the per-relay
# optimum can then exceed total power's SNR by about that much
CAP_MARGIN = 1e-12
# an upper relation (f, and pnorm's side of e) is exact; BOUND_TOL takes the
# round-off of the two SNR evaluations and total power's own stopping error,
# which its final Newton step leaves far below this (e reads at most +9.1e-13)
BOUND_TOL = 1e-9


def statistics(rng, seed):
    n = int(rng.choice(RELAYS))

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    if seed % 2 == 0:
        return build_stats(RicianParams(f_mean=cn(n), f_var=rng.uniform(0.2, 2.0, n),
                                        g_mean=cn(n), g_var=rng.uniform(0.2, 2.0, n)))
    A, B = cn(n, 2), cn(n, n)
    return ChannelStats(D=rng.uniform(0.5, 2.0, n), R=A @ A.conj().T / 2, Q=B @ B.conj().T / n)


@pytest.mark.parametrize("seed", range(40))
def test_per_relay_routes_reach_total_power_at_its_optimum(seed):
    # relation (e)
    rng = np.random.default_rng([seed, 47])
    stats = statistics(rng, seed)
    total = total_power.solve(TotalPowerProblem(stats=stats, P0=float(10.0 ** rng.uniform(-1, 3))))
    p = IndivPowerProblem(stats=stats, Ps=total.Ps,
                          P=powers(stats, total.Ps, total.w)[1] * (1.0 + CAP_MARGIN))
    relaxation = indiv_qcqp.solve_via_sdp(p)[1]
    # the sdp route returns the relaxation's rank-one point, which its
    # certified relative gap GAP_TOL puts within that of the optimum
    for route in ("auto", "sdp"):
        got = indiv_qcqp.solve(p, route, None, 0, relaxation)[0].snr
        assert abs(got - total.snr) <= sdp.GAP_TOL * total.snr, route
    # coordinate descent stops on a relative step of eps = 1e-3, which leaves
    # its value about eps^2 short
    got = indiv_qcqp.solve(p, "cdm")[0].snr
    assert abs(got - total.snr) <= 1e-6 * total.snr
    # the p-norm route solves a smoothed problem: ||.||_2p overstates the
    # largest cap by up to SMOOTHING_EPS, so its w meets caps up to about
    # 1 + SMOOTHING_EPS tighter, in power (1 + SMOOTHING_EPS)^2
    got = indiv_qcqp.solve(p, "pnorm")[0].snr
    assert (1.0 - 2.0 * SMOOTHING_EPS) * total.snr <= got <= (1.0 + BOUND_TOL) * total.snr


@pytest.mark.parametrize("seed", range(40))
def test_per_relay_routes_stay_below_total_power_at_the_summed_budget(seed):
    # relation (f), on every route that general statistics take
    rng = np.random.default_rng([seed, 48])
    stats = statistics(rng, seed)
    p = IndivPowerProblem(stats=stats, Ps=float(10.0 ** rng.uniform(-1, 2)),
                          P=10.0 ** rng.uniform(-1, 2, stats.n))
    bound = total_power.solve(TotalPowerProblem(stats=stats, P0=p.Ps + p.P.sum())).snr
    relaxation = indiv_qcqp.solve_via_sdp(p)[1]
    for route, options in (("auto", None), ("sdp", None), ("grp", {"samples": 2000}),
                           ("cdm", None), ("pnorm", None)):
        got = indiv_qcqp.solve(p, route, options, 0, relaxation)[0].snr
        assert 0.0 < got <= (1.0 + BOUND_TOL) * bound, route
