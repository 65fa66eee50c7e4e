"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from relaybeam import fixtures
from relaybeam.channel import ChannelStats, build_stats
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.indiv_qcqp import (build_qcqp, grp_extract, qcqp_objective,
                                  rank_one_decompose, rescale_to_original,
                                  solve_via_sdp)
from relaybeam.indiv_search import (_phi_grad_hess, _solve_scalar_subproblem,
                                    augmented_lagrangian_solve, coordinate_descent)
from relaybeam.linalg import qform
from relaybeam.oracle import brute_force_indiv
from relaybeam.problems import IndivPowerProblem
from relaybeam.sdp import range_eigh, solve_relaxation
from relaybeam import total_power
from conftest import (degenerate_qcqp_instance, dinkelbach_F,
                      extract_coefficients, finite_diff, finite_diff_second,
                      grid_maximum, monte_carlo_stats, phi_value, rand_indiv_problem,
                      rand_total_problem)

GRP_SEED = 20111


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def fixture_problem(n):
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0))


def solve_indiv_fixture(n):
    """SDP + CDM + p-norm objectives (timed) and the GRP objective."""
    p = fixture_problem(n)
    q = build_qcqp(p)
    t0 = time.perf_counter()
    sol = solve_relaxation(q)
    vals, vecs = np.linalg.eigh(sol.X)
    w0 = np.sqrt(max(vals[-1], 0.0)) * vecs[:, -1]
    cdm_sol, _ = coordinate_descent(p, w0.copy())
    cdm = qcqp_objective(q, cdm_sol.w)
    pn_sol, _, _ = augmented_lagrangian_solve(p, fixtures.PNORM_P, w0=w0)
    pnorm = qcqp_objective(q, pn_sol.w)
    core_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    w_grp = grp_extract(sol.X, q, fixtures.GRP_SAMPLES, GRP_SEED)
    grp_time = time.perf_counter() - t0
    grp = qcqp_objective(q, w_grp)
    nz, _ = range_eigh(sol.X)
    return dict(p=p, q=q, sdp=sol, eigs=nz, cdm=cdm, pnorm=pnorm, grp=grp,
                cdm_w=cdm_sol.w, pnorm_w=pn_sol.w, grp_w=w_grp,
                core_time=core_time, grp_time=grp_time)


_fixture_cache = {}


def cached_fixture(n):
    if n not in _fixture_cache:
        _fixture_cache[n] = solve_indiv_fixture(n)
    return _fixture_cache[n]


def rel_ok(expected, actual, rtol):
    return abs(actual - expected) <= rtol * abs(expected)


def test_criterion_1_n4_fixture():
    out = cached_fixture(4)
    exp = fixtures.INDIV_EXPECT[4]
    checks = {
        "sdp": rel_ok(exp["sdp"], out["sdp"].primal_obj, 0.02),
        "eig1": rel_ok(exp["x_eigs"][0], out["eigs"][0], 0.02),
        "eig2": rel_ok(exp["x_eigs"][1], out["eigs"][1], 0.02),
        "cdm": rel_ok(exp["cdm"], out["cdm"], 0.02),
        "pnorm": rel_ok(exp["pnorm"], out["pnorm"], 0.02),
        "grp": rel_ok(exp["grp"], out["grp"], 0.02),
        "core<60s": out["core_time"] < 60.0,
        "grp<600s": out["grp_time"] < 600.0,
    }
    detail = (f"sdp={out['sdp'].primal_obj:.5f} eigs={np.round(out['eigs'], 4)} "
              f"cdm={out['cdm']:.4f} pnorm={out['pnorm']:.4f} grp={out['grp']:.4f} "
              f"core={out['core_time']:.1f}s grp={out['grp_time']:.1f}s -> {checks}")
    report("1 (n=4 fixture)", all(checks.values()), detail)


def test_criterion_2_n6_fixture():
    out = cached_fixture(6)
    exp = fixtures.INDIV_EXPECT[6]
    checks = {
        "sdp": rel_ok(exp["sdp"], out["sdp"].primal_obj, 0.02),
        "eig1": rel_ok(exp["x_eigs"][0], out["eigs"][0], 0.02),
        "eig2": rel_ok(exp["x_eigs"][1], out["eigs"][1], 0.02),
        "cdm": rel_ok(exp["cdm"], out["cdm"], 0.02),
        "pnorm": rel_ok(exp["pnorm"], out["pnorm"], 0.02),
        "grp": rel_ok(exp["grp"], out["grp"], 0.03),
        "cdm/grp>=1.07": out["cdm"] / out["grp"] >= 1.07,
    }
    detail = (f"sdp={out['sdp'].primal_obj:.5f} eigs={np.round(out['eigs'], 4)} "
              f"cdm={out['cdm']:.4f} pnorm={out['pnorm']:.4f} grp={out['grp']:.4f} "
              f"cdm/grp={out['cdm'] / out['grp']:.4f} -> {checks}")
    report("2 (n=6 fixture)", all(checks.values()), detail)


def test_criterion_3_ordering():
    ok = True
    details = []
    for n in (4, 6):
        out = cached_fixture(n)
        bound = out["sdp"].primal_obj
        grp, cdm, pnorm = out["grp"], out["cdm"], out["pnorm"]
        ok &= grp <= pnorm + 1e-6 and grp <= cdm + 1e-6
        ok &= abs(pnorm - cdm) <= 0.01 * cdm          # p-norm ~ CDM
        ok &= cdm <= bound + 1e-6 and pnorm <= bound + 1e-6
        details.append(f"n={n}: {grp:.4f} <= {pnorm:.4f}~{cdm:.4f} <= {bound:.4f}")
    report("3 (ordering)", ok, "; ".join(details))


def test_criterion_4_total_power():
    from relaybeam.cli import reproduce
    rows, reports_ = reproduce("total-1")
    rows += reproduce("total-2")[0]
    failed = [r for r in rows if not r[-1]]
    if failed:
        # the assumption did not reproduce: the sweep in reproduce() already
        # ran, so any surviving failure is a genuine ambiguity
        report("4 (total-power fixtures)", False,
               f"blocked-by-ambiguity or mismatch: {failed}")
    assume = reports_["total-1"]["assumption"]
    report("4 (total-power fixtures)", True,
           f"all {len(rows)} comparisons pass; {assume}")


def test_criterion_5_diagonal_cross_checks():
    rng = np.random.default_rng(505)
    newton_bad = 0
    oracle_bad = 0
    oracle_checked = 0
    for i in range(100):
        n = int(rng.integers(2, 7))
        tp = rand_total_problem(rng, n, diagonal=True)
        s = total_power.build_s_pair(tp)
        ref = total_power.solve_diagonal(tp)
        xl, xu = total_power.bracket_x(s)
        runs = [total_power.newton_solve(tp, x0, s=s) for x0 in (xl, xu)]
        best = max(runs, key=lambda r: r.snr)
        if abs(best.x - ref.x) > 1e-6:
            newton_bad += 1
        ip = rand_indiv_problem(rng, int(rng.integers(1, 4)), diagonal=True)
        closed = solve_diagonal(ip)
        oracle_checked += 1
        _, val = brute_force_indiv(ip, radial_points=30, angular_points=8)
        if abs(val - closed.snr) > 1e-3 * max(closed.snr, 1e-12):
            oracle_bad += 1
    report("5 (diagonal cross-checks)", newton_bad == 0 and oracle_bad == 0,
           f"newton mismatches {newton_bad}/100, "
           f"oracle mismatches {oracle_bad}/{oracle_checked}")


def test_criterion_6_calculus():
    rng = np.random.default_rng(606)
    eig_bad, eig_done = 0, 0
    while eig_done < 50:
        tp = rand_total_problem(rng, int(rng.integers(2, 6)))
        s = total_power.build_s_pair(tp)
        xl, xu = total_power.bracket_x(s)
        x = float(rng.uniform(xl, xu))
        _, d1, d2, _, gap = total_power.lambda_min_g(s, x)
        if gap <= total_power.GAP_TOL:
            continue
        eig_done += 1
        f = lambda xv: total_power.lambda_min_g(s, float(xv))[0]
        fd1 = finite_diff(f, x, h=1e-5)
        fd2 = finite_diff_second(f, x, h=1e-4)
        if abs(d1 - fd1) > 1e-4 * max(1.0, abs(fd1)):
            eig_bad += 1
        if abs(d2 - fd2) > 1e-3 * max(1.0, abs(fd2)):
            eig_bad += 1
    phi_bad = 0
    for i in range(50):
        n = int(rng.integers(2, 5))
        p_exp = int(rng.choice([2, 8, 64]))
        z = rng.standard_normal(2 * n)
        z /= np.linalg.norm(z)
        _, g, H = _phi_grad_hess(z, p_exp)
        fd_g = finite_diff(lambda zv: phi_value(zv, p_exp), z, h=1e-6)
        fd_H = finite_diff_second(lambda zv: phi_value(zv, p_exp), z, h=1e-4)
        if np.linalg.norm(g - fd_g) > 1e-4 * max(1.0, np.linalg.norm(fd_g)):
            phi_bad += 1
        if np.linalg.norm(H - fd_H) > 1e-4 * max(1.0, np.linalg.norm(fd_H)):
            phi_bad += 1
    report("6 (derivative calculus)", eig_bad == 0 and phi_bad == 0,
           f"eig mismatches {eig_bad}/50, phi mismatches {phi_bad}/50")


def test_criterion_7_scalar_subproblem():
    rng = np.random.default_rng(707)
    bad = 0
    branches = {"boundary": 0, "interior": 0, "constant": 0}
    for trial in range(200):
        n = int(rng.integers(2, 5))
        if trial % 10 == 0:
            R = np.zeros((n, n), dtype=complex)
        else:
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            R = A @ A.conj().T / n
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q = B @ B.conj().T / n
        stats = ChannelStats(D=rng.uniform(0.1, 2.0, n), R=R, Q=Q,
                             sigma2=float(rng.uniform(0.5, 2.0)))
        ip = IndivPowerProblem(stats=stats, Ps=float(rng.uniform(0.5, 2.0)),
                               P=rng.uniform(0.5, 2.0, n))
        w = 0.7 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        k = int(rng.integers(0, n))
        s = extract_coefficients(ip, w, k)
        y, t = _solve_scalar_subproblem(*s)
        t_grid, _ = grid_maximum(s)
        if abs(t - t_grid) > 1e-4 * max(1.0, abs(t_grid)):
            bad += 1
        if y == 0:
            branches["constant"] += 1
        elif abs(abs(y) - s.beta) <= 1e-9 * s.beta:
            branches["boundary"] += 1
        else:
            branches["interior"] += 1
    report("7 (scalar subproblem vs grid)",
           bad == 0 and all(v > 0 for v in branches.values()),
           f"mismatches {bad}/200, branches {branches}")


def test_criterion_8_rank_one_decomposition():
    rng = np.random.default_rng(808)
    done = 0
    bad = 0
    while done < 50:
        n = int(rng.integers(2, 4))
        prob, q = degenerate_qcqp_instance(rng, n)
        _, sol, _ = solve_via_sdp(prob)
        if sol.rank_estimate < 2:
            continue
        done += 1
        w = rank_one_decompose(sol.X, q)
        feas = q.constraint_values(w).max() <= 1.0 + 1e-8
        preserving = qform(q.R, w) >= sol.primal_obj - 1e-6 * abs(sol.primal_obj)
        if not (feas and preserving):
            bad += 1
    report("8 (rank-one decomposition)", bad == 0, f"failures {bad}/50")


def test_criterion_9_dinkelbach():
    rng = np.random.default_rng(909)
    bad = 0
    for i in range(100):
        n = int(rng.integers(2, 7))
        ip = rand_indiv_problem(rng, n, diagonal=True)
        sol = solve_diagonal(ip)
        t_star = sol.snr
        if abs(dinkelbach_F(ip, t_star)) > 1e-9:
            bad += 1
            continue
        t1, t2 = sorted(rng.uniform(0.0, 2.0 * t_star + 1.0, 2))
        if t2 - t1 > 1e-9 and not dinkelbach_F(ip, t1) > dinkelbach_F(ip, t2):
            bad += 1
            continue
        # active set at the root matches the closed-form partition
        r = np.diag(ip.stats.R).real
        q = np.diag(ip.stats.Q).real
        tk = ip.Ps * r / (ip.stats.sigma2 * q)
        cap2 = ip.P / (ip.Ps * ip.stats.D + ip.stats.sigma2)
        on = tk > t_star + 1e-12
        off = tk < t_star - 1e-12
        if not (np.allclose(np.abs(sol.w[on]) ** 2, cap2[on], rtol=1e-12)
                and np.allclose(np.abs(sol.w[off]), 0.0)):
            bad += 1
    report("9 (Dinkelbach properties)", bad == 0, f"failures {bad}/100")


def test_criterion_10_monte_carlo():
    ok = True
    details = []
    for case in (1, 2):
        params = fixtures.total_fixture(case)
        stats = build_stats(params)
        _, R_hat, Q_hat = monte_carlo_stats(params, samples=10 ** 5, seed=1000 + case)
        errR = np.linalg.norm(R_hat - stats.R) / np.linalg.norm(stats.R)
        errQ = np.linalg.norm(Q_hat - stats.Q) / np.linalg.norm(stats.Q)
        ok &= errR <= 0.05 and errQ <= 0.05
        details.append(f"case {case}: errR={errR:.3f} errQ={errQ:.3f}")
    report("10 (Monte Carlo statistics)", ok, "; ".join(details))


def test_criterion_11_feasibility_audit():
    ok = True
    details = []
    for n in (4, 6):
        out = cached_fixture(n)
        p, q = out["p"], out["q"]
        for name, w in (("cdm", out["cdm_w"]), ("pnorm", out["pnorm_w"]),
                        ("grp", out["grp_w"])):
            sol = rescale_to_original(w, q, p) if name == "grp" else None
            wv = sol.w if sol is not None else w
            slack = p.slacks(wv)
            active = (slack / p.P).min() <= 1e-9
            feas = slack.min() >= -1e-9
            ok &= feas and active
            if not (feas and active):
                details.append(f"n={n} {name}: slack={slack}")
    # the diagonal solver as well
    rng = np.random.default_rng(111)
    for _ in range(10):
        ip = rand_indiv_problem(rng, 4, diagonal=True)
        sol = solve_diagonal(ip)
        slack = ip.slacks(sol.w)
        ok &= slack.min() >= -1e-9 and (slack / ip.P).min() <= 1e-9
    report("11 (feasibility audit)", ok, "; ".join(details) or "all solvers feasible with an active cap")
