import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaybeam
from relaybeam import cli, fixtures, indiv_qcqp, indiv_search, sdp, total_power
from relaybeam.cli import main, parse_scenario, reproduce, run
from relaybeam.errors import InputError
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.indiv_qcqp import build_qcqp, qcqp_objective
from relaybeam.oracle import brute_force_indiv
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem
from conftest import break_stacked_kernel, degenerate_qcqp_instance, loose_cap_problem, scan_snr

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def cpair(z):
    return [float(np.real(z)), float(np.imag(z))]


def cmat(M):
    return [[cpair(v) for v in row] for row in np.asarray(M)]


def write_scenario(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def diagonal_scenario(tmp_path, solver="indiv-diag"):
    payload = {
        "mode": "individual",
        "sigma2": 1.0,
        "channel": {"stats": {"D": [1.0, 1.0, 1.0],
                              "R": cmat(np.diag([2.0, 1.0, 0.5])),
                              "Q": cmat(np.eye(3))}},
        "budget": {"Ps": 1.0, "P": [1.0, 1.0, 1.0]},
        "solver": {"name": solver},
        "seed": 7,
    }
    return write_scenario(tmp_path / "scenario.json", payload), payload


def fixture_scenario(tmp_path, solver="sdp", options=None, seed=11):
    R, Q = fixtures.indiv_fixture(4)
    payload = {
        "mode": "individual",
        "sigma2": 1.0,
        "channel": {"stats": {"D": [1.0] * 4, "R": cmat(R), "Q": cmat(Q)}},
        "budget": {"Ps": 1.0, "P": [2.0] * 4},
        "solver": {"name": solver, **({"options": options} if options else {})},
        "seed": seed,
    }
    return write_scenario(tmp_path / "n4.json", payload), payload


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which JSON does not have."""
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


class TestParseScenario:
    def test_minimal_diagonal(self, tmp_path):
        path, _ = diagonal_scenario(tmp_path)
        s = parse_scenario(path)
        assert s.mode == "individual"
        assert s.solver == "indiv-diag"
        assert s.problem.stats.is_diagonal()

    def test_fixture_matrices_exact(self, tmp_path):
        path, _ = fixture_scenario(tmp_path)
        s = parse_scenario(path)
        R, Q = fixtures.indiv_fixture(4)
        stats = s.problem.stats
        assert np.array_equal(stats.R, R)
        assert np.array_equal(stats.Q, Q)

    @pytest.mark.parametrize("asym", [5.0, 1e-7])
    def test_non_hermitian_rejected(self, tmp_path, asym, capsys):
        # the same rule as ChannelStats: asymmetry beyond 1e-9 is an input error
        Q = np.eye(3)
        Q[0, 1] = asym
        payload = {
            "mode": "individual", "sigma2": 1.0,
            "channel": {"stats": {"D": [1, 1, 1], "R": cmat(np.eye(3)), "Q": cmat(Q)}},
            "budget": {"Ps": 1.0, "P": [1, 1, 1]},
        }
        path = write_scenario(tmp_path / "bad.json", payload)
        with pytest.raises(InputError, match="field 'channel.stats.Q' is not Hermitian"):
            parse_scenario(path)
        assert main(["solve", path]) == 3
        assert "field 'channel.stats.Q' is not Hermitian" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path):
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1], "R": cmat(np.eye(1)),
                                         "Q": cmat(np.eye(1))}},
                   "budget": {"Ps": 1.0}}
        path = write_scenario(tmp_path / "missing.json", payload)
        with pytest.raises(InputError, match="budget.P"):
            parse_scenario(path)

    def test_both_channel_representations_rejected(self, tmp_path):
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1], "R": cmat(np.eye(1)),
                                         "Q": cmat(np.eye(1))},
                               "rician": {}},
                   "budget": {"Ps": 1.0, "P": [1]}}
        path = write_scenario(tmp_path / "two.json", payload)
        with pytest.raises(InputError, match="exactly one"):
            parse_scenario(path)

    def test_problem_carries_the_payload(self, tmp_path):
        options = {"samples": 1e4, "eps": 1e-4, "p": 64, "fallback": "pnorm",
                   "w0": [[1.0, 0.5]] * 4}
        path, payload = fixture_scenario(tmp_path, options=options)
        s = parse_scenario(path)
        R, Q = fixtures.indiv_fixture(4)
        assert isinstance(s.problem, IndivPowerProblem)
        stats = s.problem.stats
        assert np.array_equal(stats.D, payload["channel"]["stats"]["D"])
        assert np.array_equal(stats.R, R) and np.array_equal(stats.Q, Q)
        assert stats.sigma2 == payload["sigma2"]
        assert s.problem.Ps == payload["budget"]["Ps"]
        assert np.array_equal(s.problem.P, payload["budget"]["P"])
        assert (s.mode, s.solver, s.seed) == ("individual", "sdp", 11)
        opts = s.solver_options
        assert opts.keys() == options.keys()
        assert type(opts["samples"]) is int and opts["samples"] == 10000
        assert type(opts["p"]) is int and opts["p"] == 64
        assert (opts["eps"], opts["fallback"]) == (1e-4, "pnorm")
        assert np.array_equal(opts["w0"], np.full(4, 1.0 + 0.5j))

    def test_total_problem_carries_p0(self):
        s = parse_scenario(str(SCENARIOS / "total_rayleigh_n4.json"))
        assert isinstance(s.problem, TotalPowerProblem)
        assert (s.problem.P0, s.problem.stats.n, s.seed) == (10.0, 4, 1)

    def test_invalid_solver_for_mode(self, tmp_path):
        payload = {"mode": "total", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1], "R": cmat(np.eye(1)),
                                         "Q": cmat(np.eye(1))}},
                   "budget": {"P0": 5.0},
                   "solver": {"name": "cdm"}}
        path = write_scenario(tmp_path / "bad_solver.json", payload)
        with pytest.raises(InputError, match="solver.name"):
            parse_scenario(path)


class TestRun:
    def test_n4_sdp_reports_rank_and_fallback(self, tmp_path):
        path, _ = fixture_scenario(tmp_path, solver="sdp")
        rep = run(parse_scenario(path))
        assert rep.metadata["rank_estimate"] == 2
        assert rep.metadata["fallback"] == "cdm"
        assert rep.snr > 0

    def test_n3_rank_one_path_no_fallback(self, tmp_path, rng):
        # dominant relay: relaxation is rank one, no fallback needed
        r = np.array([10.0, 0.1, 0.2])
        payload = {
            "mode": "individual", "sigma2": 1.0,
            "channel": {"stats": {"D": [1.0] * 3, "R": cmat(np.diag(r)),
                                  "Q": cmat(np.eye(3))}},
            "budget": {"Ps": 1.0, "P": [1.0] * 3},
            "solver": {"name": "sdp"},
        }
        path = write_scenario(tmp_path / "n3.json", payload)
        rep = run(parse_scenario(path))
        assert rep.metadata["rank_estimate"] == 1
        assert "fallback" not in rep.metadata

    def test_diagonal_cdm_matches_indiv_diag(self, tmp_path):
        path, _ = diagonal_scenario(tmp_path, solver="cdm")
        rep = run(parse_scenario(path))
        stats = parse_scenario(path).problem.stats
        ref = solve_diagonal(IndivPowerProblem(stats=stats, Ps=1.0,
                                               P=np.ones(3)))
        assert rep.snr == pytest.approx(ref.snr, rel=1e-4)

    def test_total_mode(self, tmp_path):
        payload = {"mode": "total", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0, 2.0],
                                         "R": cmat(np.diag([2.0, 1.0])),
                                         "Q": cmat(np.eye(2))}},
                   "budget": {"P0": 10.0}}
        path = write_scenario(tmp_path / "tot.json", payload)
        rep = run(parse_scenario(path))
        assert rep.scenario_mode == "total"
        assert rep.solver == "total-diagonal"
        assert rep.snr > 0

    def test_determinism(self, tmp_path):
        path, _ = fixture_scenario(tmp_path, solver="grp", options={"samples": 20000})
        s = parse_scenario(path)
        r1 = run(s)
        r2 = run(s)
        assert r1.to_json() == r2.to_json()

    def test_snr_db_consistent(self, tmp_path):
        path, _ = diagonal_scenario(tmp_path)
        rep = run(parse_scenario(path))
        assert rep.snr_db == pytest.approx(10 * np.log10(rep.snr), abs=1e-12)

    @pytest.mark.parametrize("solver,options", [("pnorm", None),
                                                ("sdp", {"fallback": "pnorm"})])
    def test_pnorm_routes_on_n4_fixture(self, tmp_path, solver, options):
        path, _ = fixture_scenario(tmp_path, solver=solver, options=options)
        rep = run(parse_scenario(path))
        assert rep.metadata.get("fallback", "pnorm") == "pnorm"
        assert rep.metadata["p"] == 256
        # Ps = sigma2 = 1, so the SNR is the QCQP value: within the fixture
        # tolerance of the p-norm reference and below the SDP bound
        assert rep.snr == pytest.approx(fixtures.INDIV_EXPECT[4]["pnorm"],
                                        rel=fixtures.INDIV_TOL)
        assert rep.snr <= fixtures.INDIV_EXPECT[4]["sdp"] * (1 + fixtures.INDIV_TOL)
        assert min(rep.feasibility) >= -1e-12


@pytest.fixture(scope="module")
def reproduced_n4():
    return reproduce("indiv-n4")[1]["indiv-n4"]


class TestMain:
    def test_solve_exit_0(self, tmp_path, capsys):
        path, _ = diagonal_scenario(tmp_path)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["snr"] > 0

    def test_missing_file_exit_3(self, capsys):
        assert main(["solve", "/nonexistent/scenario.json"]) == 3

    def test_invalid_schema_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"mode\": \"bogus\"}")
        assert main(["solve", str(path)]) == 3

    def test_nonconvergence_exit_2(self, tmp_path):
        # coordinate descent creeps on this 16-relay Wishart instance: from
        # the all-ones start, eps = 1e-6 takes 657 sweeps, past the 500 limit
        rng = np.random.default_rng(4)
        n = 16
        D = rng.uniform(0.5, 2.0, n)
        R, Q = (A @ A.conj().T / n for A in
                (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for _ in range(2)))
        payload = {
            "mode": "individual", "sigma2": 1.0,
            "channel": {"stats": {"D": D.tolist(), "R": cmat(R), "Q": cmat(Q)}},
            "budget": {"Ps": 1.0, "P": rng.uniform(1.0, 3.0, n).tolist()},
            "solver": {"name": "cdm", "options": {"eps": 1e-6}},
        }
        path = write_scenario(tmp_path / "stall.json", payload)
        assert main(["solve", str(path)]) == 2

    def test_loose_caps_exit_2(self, tmp_path, capsys):
        # P_k = 2e8 gives c_k = 1e-8: the interior point's Schur matrix is
        # singular, which is a non-convergence, not a crash
        q = loose_cap_problem(0, 4)
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * 4, "R": cmat(q.R), "Q": cmat(q.Q)}},
                   "budget": {"Ps": 1.0, "P": [2e8] * 4}}
        path = write_scenario(tmp_path / "loose.json", payload)
        assert main(["solve", path]) == 2
        assert "singular Schur matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", ["cholesky", "inv", "eigvalsh"])
    def test_interior_point_breakdown_exit_2(self, tmp_path, capsys, monkeypatch, kernel):
        # a LinAlgError inside the interior point is a non-convergence, not a crash
        path, _ = fixture_scenario(tmp_path, solver="sdp")
        break_stacked_kernel(monkeypatch, kernel)
        assert main(["solve", path]) == 2
        assert re.search(r"broke down at iteration \d+", capsys.readouterr().err)

    @pytest.mark.parametrize("field,value", [
        ("channel.stats.R", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]),
        ("budget.P", [1.0, [1.0, 2.0]]),
        ("channel.stats.D", [[1.0], 1.0, 1.0]),
    ])
    def test_ragged_list_exit_3(self, tmp_path, capsys, field, value):
        payload = diagonal_scenario(tmp_path)[1]
        *parents, key = field.split(".")
        block = payload
        for part in parents:
            block = block[part]
        block[key] = value
        path = write_scenario(tmp_path / "ragged.json", payload)
        assert main(["solve", path]) == 3
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("module,limit,value", [
        (sdp, "MAX_ITER", 2), (indiv_search, "AL_MAX_OUTER", 1), (total_power, "MAX_ITER", 1)],
        ids=["sdp", "pnorm", "newton"])
    def test_iteration_budget_exhausted_exit_2(self, tmp_path, capsys, monkeypatch,
                                               module, limit, value):
        # each solver's ConvergenceError reaches main as exit 2
        monkeypatch.setattr(module, limit, value)
        if module is total_power:
            payload = {"mode": "total", "sigma2": 1.0,
                       "channel": {"rician": {"f_mean": [[0.7, 0.2], [-0.4, 0.9], [1.1, -0.3]],
                                              "f_var": [0.5, 1.0, 0.3],
                                              "g_mean": [[-0.3, 0.9], [0.5, 0.5], [0.8, -0.6]],
                                              "g_var": [0.4, 0.9, 1.2]}},
                       "budget": {"P0": 10.0}}
            path = write_scenario(tmp_path / "total.json", payload)
        else:
            path, _ = fixture_scenario(tmp_path, solver="sdp" if module is sdp else "pnorm")
        assert main(["solve", path]) == 2
        assert "did not" in capsys.readouterr().err

    @pytest.mark.parametrize("P0", [1e-200, 1e-300])
    def test_underflowing_total_power_newton_exit_2(self, tmp_path, capsys, P0):
        # at P0/sigma^2 this small mu^2 underflows in lambda_min_g and the
        # Newton target is NaN: a non-convergence, not an input error
        payload = {"mode": "total", "sigma2": 1.0,
                   "channel": {"rician": {"f_mean": [[0.7, 0.2], [-0.4, 0.9], [1.1, -0.3],
                                                     [0.2, 0.5], [-0.6, -0.1]],
                                          "f_var": [0.5, 1.0, 0.3, 1.4, 0.8],
                                          "g_mean": [[-0.3, 0.9], [0.5, 0.5], [0.8, -0.6],
                                                     [0.1, -1.0], [0.4, 0.3]],
                                          "g_var": [0.4, 0.9, 1.2, 0.6, 1.7]}},
                   "budget": {"P0": P0}}
        path = write_scenario(tmp_path / "faint.json", payload)
        assert main(["solve", path]) == 2
        assert "broke down at iteration 0" in capsys.readouterr().err

    def test_sdp_route_decomposes_a_relaxation_above_rank_one(self, tmp_path, capsys, rng):
        # n <= 3 and a relaxation of rank >= 2: the sdp route's exact
        # rank-one decomposition keeps the relaxation's value
        prob, _ = degenerate_qcqp_instance(rng, 3)
        st = prob.stats
        payload = {"mode": "individual", "sigma2": st.sigma2,
                   "channel": {"stats": {"D": st.D.tolist(), "R": cmat(st.R), "Q": cmat(st.Q)}},
                   "budget": {"Ps": prob.Ps, "P": prob.P.tolist()},
                   "solver": {"name": "sdp"}}
        path = write_scenario(tmp_path / "face.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        meta = rep["metadata"]
        assert meta["rank_estimate"] >= 2
        assert meta["fallback"] == "rank-one-decomposition"
        q = build_qcqp(parse_scenario(path).problem)
        w = [complex(*v) for v in rep["w"]]
        assert qcqp_objective(q, w) == pytest.approx(meta["sdp_obj"], rel=1e-6)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_non_positive_eps_exit_3(self, tmp_path, capsys, eps):
        path, _ = fixture_scenario(tmp_path, solver="cdm", options={"eps": eps})
        assert main(["solve", path]) == 3
        assert "'solver.options.eps' must be a positive number" in capsys.readouterr().err

    def test_pure_line_of_sight_solves(self, tmp_path, capsys):
        # every variance 0 makes R rank one, which the total-power
        # reduction handles like any other R
        payload = {"mode": "total", "sigma2": 1.0,
                   "channel": {"rician": {"f_mean": [[0.7, 0.2], [-0.4, 0.9], [1.1, -0.3]],
                                          "f_var": [0.0] * 3,
                                          "g_mean": [[-0.3, 0.9], [0.5, 0.5], [0.8, -0.6]],
                                          "g_var": [0.0] * 3}},
                   "budget": {"P0": 10.0}}
        path = write_scenario(tmp_path / "los.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        stats = parse_scenario(path).problem.stats
        assert np.linalg.matrix_rank(stats.R, tol=1e-10) == 1
        assert rep["snr"] >= (1.0 - 1e-6) * scan_snr(stats, 10.0)

    @pytest.mark.parametrize("solver", ["sdp", "grp"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_rank_one_q_at_large_ps_solves(self, tmp_path, capsys, n, solver):
        # c_k ~ 1e8 leaves round-off far above 1e-9 on lambda_min of the
        # PSD A_k = Q + c_k e_k e_k^H, which an absolute test rejected
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": rng.uniform(0.5, 2.0, n).tolist(),
                                         "R": cmat(A @ A.conj().T / n),
                                         "Q": cmat(np.outer(g, g.conj()))}},
                   "budget": {"Ps": 1e8, "P": rng.uniform(1.0, 3.0, n).tolist()},
                   "solver": {"name": solver},
                   "seed": 3}
        path = write_scenario(tmp_path / "rank_one_q.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["snr"] > 0
        assert min(rep["feasibility"]) >= -1e-9

    def test_rank_one_grp_matches_sdp(self, tmp_path, capsys):
        # a generic n = 4 instance whose relaxation is rank one: every GRP
        # sample lies on the ray of X, so GRP returns the SDP answer up to
        # one global phase
        rng = np.random.default_rng(12)
        G = (rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))) / 2
        reports = {}
        for solver in ("grp", "sdp"):
            payload = {"mode": "individual", "sigma2": 1.3,
                       "channel": {"stats": {"D": [0.6, 1.9, 1.1, 0.8],
                                             "R": cmat(G[0] @ G[0].conj().T),
                                             "Q": cmat(G[1] @ G[1].conj().T)}},
                       "budget": {"Ps": 1.7, "P": [0.9, 2.4, 1.5, 2.8]},
                       "solver": {"name": solver}, "seed": 5}
            path = write_scenario(tmp_path / f"{solver}.json", payload)
            assert main(["solve", path]) == 0
            reports[solver] = strict_json(capsys.readouterr().out)
        grp, sdp = reports["grp"], reports["sdp"]
        assert grp["metadata"]["rank_estimate"] == sdp["metadata"]["rank_estimate"] == 1
        assert grp["snr"] == pytest.approx(sdp["snr"], rel=1e-12)
        w_grp, w_sdp = (np.array([complex(a, b) for a, b in r["w"]]) for r in (grp, sdp))
        phase = np.vdot(w_sdp, w_grp) / abs(np.vdot(w_sdp, w_grp))
        assert np.abs(w_grp - phase * w_sdp).max() <= 1e-12 * np.abs(w_sdp).max()

    def test_zero_r_total_exit_4(self, tmp_path, capsys):
        # no signal path is a model failure, not an input error
        payload = {"mode": "total", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * 3, "R": cmat(np.zeros((3, 3))),
                                         "Q": cmat(np.ones((3, 3)))}},
                   "budget": {"P0": 10.0}}
        path = write_scenario(tmp_path / "dark.json", payload)
        assert main(["solve", path]) == 4
        assert "R = 0" in capsys.readouterr().err

    def test_zero_r_general_q_solves_at_snr_0(self, tmp_path, capsys):
        # with R = 0 coordinate descent sends every slot to w = 0, where it
        # must stop rather than sweep to its limit
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * 4, "R": cmat(np.zeros((4, 4))),
                                         "Q": cmat(A @ A.conj().T / 4)}},
                   "budget": {"Ps": 1.0, "P": [1.0] * 4}}
        path = write_scenario(tmp_path / "dark.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["metadata"]["fallback"] == "cdm"
        assert rep["snr"] == 0.0
        assert rep["snr_db"] is None

    def test_pnorm_rank_one_r_solves(self, tmp_path, capsys):
        # equal caps and v = [1, -1, 0, 0]: the all-ones vector is in the
        # null space of R = v v^H, so it cannot start the p-norm route
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = np.array([1.0, -1.0, 0.0, 0.0])
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * 4, "R": cmat(np.outer(v, v)),
                                         "Q": cmat(A @ A.conj().T / 4)}},
                   "budget": {"Ps": 1.0, "P": [2.0] * 4},
                   "solver": {"name": "pnorm"}}
        path = write_scenario(tmp_path / "los.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["snr"] > 0
        assert min(rep["feasibility"]) >= -1e-12
        # w0 starts pnorm too: a start that R does not see is rejected
        payload["solver"]["options"] = {"w0": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}
        path = write_scenario(tmp_path / "los.json", payload)
        assert main(["solve", path]) == 3
        assert "w0" in capsys.readouterr().err

    def test_zero_snr_report_is_strict_json(self, tmp_path, capsys):
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * 3,
                                         "R": cmat(np.zeros((3, 3))),
                                         "Q": cmat(np.eye(3))}},
                   "budget": {"Ps": 1.0, "P": [1.0] * 3}}
        path = write_scenario(tmp_path / "dark.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["snr"] == 0.0
        assert rep["snr_db"] is None

    @pytest.mark.parametrize("solver,n,diagonal", [
        (solver, n, diagonal) for n, diagonal in ((3, True), (3, False), (5, False))
        for solver in indiv_qcqp.ROUTES if diagonal or solver != "indiv-diag"])
    def test_zero_r_on_every_route(self, tmp_path, capsys, solver, n, diagonal):
        # R = 0 leaves every w at SNR 0: each route reports that point, apart
        # from p-norm, whose embedding needs a signal (ModelError, exit 4)
        A = np.random.default_rng(n).standard_normal((n, n, 2)) @ [1.0, 1j]
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * n, "R": cmat(np.zeros((n, n))),
                                         "Q": cmat(np.eye(n) if diagonal
                                                   else A @ A.conj().T / n)}},
                   "budget": {"Ps": 1.0, "P": [1.0] * n},
                   "solver": {"name": solver}}
        path = write_scenario(tmp_path / "dark.json", payload)
        if solver == "pnorm":
            assert main(["solve", path]) == 4
            assert "R = 0" in capsys.readouterr().err
            return
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["snr"] == 0.0
        assert rep["snr_db"] is None

    def test_sample_rician_scenario(self, capsys):
        path = SCENARIOS / "individual_rician_n3.json"
        assert main(["solve", str(path)]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["scenario_mode"] == "individual"
        assert len(rep["w"]) == 3
        assert min(rep["feasibility"]) >= -1e-12
        prob = parse_scenario(str(path)).problem
        assert rep["snr"] >= brute_force_indiv(prob)[1] * (1 - 1e-9)
        # the relaxation is rank one and the interior point stops at its
        # certified rank-one KKT point: every cap active, a round-off gap,
        # and a bound (Ps = sigma2 = 1) that covers the achieved SNR
        meta = rep["metadata"]
        assert (meta["rank_estimate"], meta["iterations"]) == (1, 5)
        assert 0.0 <= meta["sdp_gap"] <= 1e-12
        assert max(rep["feasibility"]) <= 1e-12
        assert rep["snr"] == pytest.approx(2.0948368126, rel=1e-10)
        assert rep["snr"] <= (meta["sdp_obj"] + meta["sdp_gap"]) * (1 + 1e-12)

    def test_trace_and_export(self, tmp_path, capsys):
        path, _ = diagonal_scenario(tmp_path, solver="cdm")
        out_dir = tmp_path / "out"
        assert main(["solve", path, "--trace", "--out", str(out_dir)]) == 0
        report_path = capsys.readouterr().out.strip()
        with open(report_path) as fh:
            rep = json.load(fh)
        assert rep["trace_file"] is not None
        assert main(["trace-export", report_path]) == 0
        csv = capsys.readouterr().out
        assert csv.splitlines()[0] == "sweep,slot,objective"

    def test_two_traced_solves_keep_two_files(self, tmp_path, capsys):
        path, _ = diagonal_scenario(tmp_path, solver="cdm")
        out_dir = tmp_path / "out"
        trace_files, report_paths = [], []
        for _ in range(2):
            assert main(["solve", path, "--trace", "--out", str(out_dir)]) == 0
            report_path = capsys.readouterr().out.strip()
            report_paths.append(report_path)
            trace_files.append(json.loads(Path(report_path).read_text())["trace_file"])
        assert trace_files[0] != trace_files[1]
        assert len(set(report_paths)) == 2
        assert sorted(os.listdir(out_dir)) == sorted(
            os.path.basename(f) for f in report_paths + trace_files)
        assert all(os.path.basename(f).startswith("report-cdm-") for f in report_paths)
        for f in trace_files:
            assert Path(f).read_text().splitlines()[0] == "sweep,slot,objective"

    def test_samples_zero_exit_3(self, tmp_path, capsys):
        path, _ = fixture_scenario(tmp_path, solver="grp", options={"samples": 0})
        assert main(["solve", path]) == 3
        assert "'solver.options.samples' must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["field", "flag"])
    def test_negative_seed_exit_3(self, tmp_path, capsys, where):
        # the scenario's seed field for solve, the --seed flag for reproduce
        if where == "field":
            payload = json.loads((SCENARIOS / "individual_rician_n3.json").read_text())
            payload["solver"] = {"name": "grp", "options": {"samples": 100}}
            payload["seed"] = -1
            argv = ["solve", write_scenario(tmp_path / "seed.json", payload)]
        else:
            argv = ["reproduce", "indiv-n4", "--seed", "-1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "non-negative integer below 2**64" in err
        assert ("'seed'" in err) == (where == "field")

    @pytest.mark.parametrize("solver,options,seed,field", [
        ("grp", {"w0": [[1.0, 0.0]]}, 0, "solver.options.w0"),
        ("cdm", {"samples": 0}, 0, "solver.options.samples"),
        ("cdm", {"p": -3}, 0, "solver.options.p"),
        ("cdm", {}, -1, "seed"),
        ("grp", {"eps": -1}, 0, "solver.options.eps"),
        ("pnorm", {"p": 0}, 0, "solver.options.p"),
    ])
    def test_option_out_of_range_exit_3(self, tmp_path, capsys, solver, options, seed, field):
        # every option is checked when the file is read, whether or not the
        # chosen route uses it, and the error names the field
        payload = json.loads((SCENARIOS / "individual_rician_n3.json").read_text())
        payload["solver"] = {"name": solver, "options": options}
        payload["seed"] = seed
        assert main(["solve", write_scenario(tmp_path / "range.json", payload)]) == 3
        assert f"field '{field}'" in capsys.readouterr().err

    def test_unknown_option_exit_3(self, tmp_path, capsys):
        path, _ = fixture_scenario(tmp_path, solver="grp", options={"sample": 100})
        assert main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert "'solver.options.sample'" in err
        assert "samples, eps, p, w0, fallback" in err

    @pytest.mark.parametrize("solver,key", [("grp", "samples"), ("cdm", "eps"),
                                            ("pnorm", "p")])
    def test_non_numeric_option_exit_3(self, tmp_path, capsys, solver, key):
        path, _ = fixture_scenario(tmp_path, solver=solver, options={key: "many"})
        assert main(["solve", path]) == 3
        assert f"'solver.options.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("base,field,value", [
        ("cdm", "sigma2", "one"),
        ("cdm", "sigma2", True),
        ("cdm", "seed", "seven"),
        ("cdm", "seed", 2.5),
        ("total", "budget.P0", "ten"),
        ("cdm", "budget.Ps", [1.0]),
        ("cdm", "budget.P", "ones"),
        ("cdm", "channel.stats.D", ["a", 1, 1]),
        ("total", "channel.rician.f_var", "wide"),
        ("cdm", "solver.options", "fast"),
        ("cdm", "solver.options.w0", "ones"),
        ("pnorm", "solver.options.z0", "ones"),      # not an option at all
        ("sdp", "solver.options.fallback", "bogus"),
    ])
    def test_malformed_field_exit_3(self, tmp_path, capsys, base, field, value):
        if base == "total":
            payload = {"mode": "total", "sigma2": 1.0,
                       "channel": {"rician": {"f_mean": [[0.7, 0.2], [-0.4, 0.9]],
                                              "f_var": [1.0, 0.5],
                                              "g_mean": [[-0.3, 0.9], [0.5, 0.5]],
                                              "g_var": [0.8, 1.2]}},
                       "budget": {"P0": 10.0}}
        else:
            # the diagonal relaxation is rank one, so the sdp route never
            # reads its fallback: only parsing can catch a bad one
            payload = diagonal_scenario(tmp_path, solver=base)[1]
            payload["solver"]["options"] = {}
        *parents, key = field.split(".")
        block = payload
        for part in parents:
            block = block[part]
        block[key] = value
        path = write_scenario(tmp_path / "bad.json", payload)
        assert main(["solve", path]) == 3
        assert f"field '{field}'" in capsys.readouterr().err

    def test_each_matrix_parsed_once_per_solve(self, tmp_path, monkeypatch, capsys):
        path, _ = fixture_scenario(tmp_path, solver="cdm")
        seen = []
        parse_matrix = cli.hermitian
        monkeypatch.setattr(cli, "hermitian",
                            lambda M, name: seen.append(name) or parse_matrix(M, name=name))
        assert main(["solve", path]) == 0
        assert sorted(seen) == ["field 'channel.stats.Q'", "field 'channel.stats.R'"]

    @pytest.mark.parametrize("argv", [
        ["solve", "total_rayleigh_n4.json", "--samples", "abc"],
        ["solve", "total_rayleigh_n4.json", "--no-such-flag"],
        [],
        ["oracle", "total_rayleigh_n4.json", "--out", "/nonexistent"],
        ["oracle", "total_rayleigh_n4.json", "--samples", "10"],
    ])
    def test_usage_error_exit_3(self, argv, capsys):
        argv = [str(SCENARIOS / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["solve", "{dir}"], "{dir}"),
        (["oracle", "{dir}"], "{dir}"),
        (["trace-export", "{dir}"], "{dir}"),
        (["solve", "{latin1}"], "{latin1}"),
        (["trace-export", "{invalid}"], "{invalid}"),
        (["solve", "{deep}"], "{deep}"),
        (["trace-export", "{list}"], "{list}"),
        (["trace-export", "{int_trace}"], "{int_trace}"),
        (["solve", "{scenario}", "--out", "{file}"], "{file}"),
        (["reproduce", "total-1", "--out", "{file}"], "{file}"),
        # an output file name taken by a directory
        (["reproduce", "total-1", "--out", "{out}"], "{out}/total-1.json"),
        (["trace-export", "{report}", "--out", "{out}"], "{out}/trace.csv"),
    ], ids=["solve-directory", "oracle-directory", "trace-export-directory",
            "non-utf8-scenario", "invalid-json-report", "too-deep-json-scenario", "list-report",
            "integer-trace-file", "solve-out-is-a-file", "reproduce-out-is-a-file",
            "reproduce-out-name-is-a-directory", "trace-export-out-name-is-a-directory"])
    def test_unreadable_input_or_out_path_exit_3(self, tmp_path, capsys, argv, named):
        paths = {key: tmp_path / key
                 for key in ("dir", "latin1", "invalid", "deep", "list", "int_trace", "file",
                             "out", "report")}
        paths["dir"].mkdir()
        paths["latin1"].write_bytes('{"mode": "total", "note": "\u00e9"}'.encode("latin-1"))
        paths["invalid"].write_text("{not json")
        paths["deep"].write_text("[" * 10 ** 5 + "]" * 10 ** 5)
        paths["list"].write_text("[]")
        # an integer path would name an open file descriptor to open()
        paths["int_trace"].write_text('{"trace_file": 1}')
        paths["file"].write_text("")
        for name in ("total-1.json", "trace.csv"):
            (paths["out"] / name).mkdir(parents=True)
        (tmp_path / "trace.csv").write_text("k,mu\n0,1.0\n")
        paths["report"].write_text(json.dumps({"trace_file": str(tmp_path / "trace.csv")}))
        names = {key: str(path) for key, path in paths.items()}
        names["scenario"] = diagonal_scenario(tmp_path)[0]
        assert main([a.format(**names) for a in argv]) == 3
        assert named.format(**names) in capsys.readouterr().err

    def test_parser_reuse_matches_fresh_calls(self, capsys):
        # main builds its parser once per process; a usage error followed by
        # a valid command prints and returns as two calls on fresh parsers
        argv = (["solve", "--no-such-flag"], ["solve", str(SCENARIOS / "total_rayleigh_n4.json")])

        def calls(fresh):
            results = []
            for a in argv:
                if fresh:
                    cli._parser.cache_clear()
                results.append((main(a), capsys.readouterr()))
            return results

        reused = calls(fresh=False)
        assert [code for code, _ in reused] == [3, 0]
        assert reused == calls(fresh=True)
        assert cli._parser() is cli._parser()

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_solve_flags_are_trace_and_out(self, capsys):
        # every solver setting comes from the scenario file
        assert main(["solve", "--help"]) == 0
        flags = {w.strip("[],") for w in capsys.readouterr().out.split() if w.startswith(("--", "[--"))}
        assert flags == {"--help", "--out", "--trace"}

    def test_oracle_subcommand(self, tmp_path, capsys):
        path, _ = diagonal_scenario(tmp_path)
        assert main(["oracle", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["snr"] > 0


class TestReproduce:
    def test_total_cases_pass(self):
        rows, reports = reproduce("total-1")
        assert all(ok for *_, ok in rows)
        assert "total-1" in reports
        assert "assuming sigma2=1.0" in reports["total-1"]["assumption"]

    def test_indiv_case_passes(self):
        rows, reports = reproduce("indiv-n4")
        assert all(ok for *_, ok in rows)
        quantities = {r[1] for r in rows}
        assert {"sdp_objective", "cdm_objective", "pnorm_objective",
                "grp_objective"} <= quantities

    @pytest.mark.parametrize("solver,options,key", [
        ("sdp", None, "cdm"),
        ("sdp", {"fallback": "pnorm", "p": fixtures.PNORM_P}, "pnorm"),
        ("grp", {"samples": fixtures.GRP_SAMPLES}, "grp"),
    ])
    def test_solve_runs_the_reproduced_routes(self, tmp_path, reproduced_n4, solver,
                                              options, key):
        # reproduce runs solve's routes: with Ps = sigma2 = 1 the SNR is the
        # QCQP value that reproduce reports
        path, _ = fixture_scenario(tmp_path, solver=solver, options=options, seed=20111)
        rep = run(parse_scenario(path))
        assert rep.snr == pytest.approx(reproduced_n4[key], rel=1e-9)

    def test_unknown_case_rejected(self):
        with pytest.raises(InputError):
            reproduce("total-9")

    def test_exit_1_when_a_row_fails(self, monkeypatch, capsys):
        assert main(["reproduce", "total-1"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        monkeypatch.setitem(fixtures.TOTAL_EXPECT[1], "bracket", (0.5, 0.5))
        assert main(["reproduce", "total-1"]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(relaybeam.__file__)))
    code = "import relaybeam.cli, sys; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
