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
from relaybeam.channel import ChannelStats
from relaybeam.cli import main, parse_scenario, reproduce, run
from relaybeam.errors import InputError
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.indiv_qcqp import build_qcqp, qcqp_objective
from relaybeam.oracle import brute_force_indiv, brute_force_total
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem
from conftest import (badly_scaled_problem, break_stacked_kernel, degenerate_qcqp_instance,
                      loose_cap_problem, low_k_problem, scan_snr)

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


def fixture_scenario(tmp_path, solver="sdp", options=None, seed=11, n=4):
    R, Q = fixtures.indiv_fixture(n)
    payload = {
        "mode": "individual",
        "sigma2": 1.0,
        "channel": {"stats": {"D": [1.0] * n, "R": cmat(R), "Q": cmat(Q)}},
        "budget": {"Ps": 1.0, "P": [2.0] * n},
        "solver": {"name": solver, **({"options": options} if options else {})},
        "seed": seed,
    }
    return write_scenario(tmp_path / f"n{n}.json", payload), payload


def refuse(what):
    """A stand-in for a solver stage that must not run."""
    def stage(*args, **kwargs):
        raise AssertionError(f"{what} ran")
    return stage


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

    @pytest.mark.parametrize("options", [{"eps": 0.5, "samples": 3, "fallback": "pnorm"},
                                         {"w0": [[1.0, 0.0]] * 6}])
    def test_total_mode_refuses_options(self, tmp_path, capsys, options):
        # total power reads no option: one given is refused, not ignored
        payload = json.loads((SCENARIOS / "total_rician_n6.json").read_text())
        payload["solver"] = {"name": "auto", "options": options}
        path = write_scenario(tmp_path / "total_options.json", payload)
        assert main(["solve", path]) == 3
        assert "field 'solver.options' must be empty in total mode" in capsys.readouterr().err
        payload["solver"]["options"] = {}
        assert main(["solve", write_scenario(tmp_path / "total_empty.json", payload)]) == 0

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

    @staticmethod
    def loose_caps_scenario(tmp_path, seed):
        # P_k = 2e8 gives c_k = 1e-8: nearly parallel constraints
        q = loose_cap_problem(seed, 4)
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * 4, "R": cmat(q.R), "Q": cmat(q.Q)}},
                   "budget": {"Ps": 1.0, "P": [2e8] * 4}}
        return write_scenario(tmp_path / "loose.json", payload)

    def test_loose_caps_exit_2(self, tmp_path, capsys):
        # seed 1: the interior point's Schur matrix is singular, which is a
        # non-convergence, not a crash
        assert main(["solve", self.loose_caps_scenario(tmp_path, 1)]) == 2
        assert "singular Schur matrix" in capsys.readouterr().err

    def test_loose_caps_certify(self, tmp_path, capsys):
        # seed 0, singular under a fixed start, certifies a rank-one optimum
        # from the dual-feasible one: the SNR meets its bound (Ps = sigma2 = 1)
        assert main(["solve", self.loose_caps_scenario(tmp_path, 0)]) == 0
        rep = strict_json(capsys.readouterr().out)
        meta = rep["metadata"]
        assert meta["rank_estimate"] == 1
        assert 0.0 <= meta["sdp_gap"] <= sdp.GAP_TOL * meta["sdp_obj"]
        bound = meta["sdp_obj"] + meta["sdp_gap"]
        assert bound * (1 - 2 * sdp.GAP_TOL) <= rep["snr"] <= bound * (1 + 1e-12)

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

    def test_denormal_p0_exit_3(self, tmp_path, capsys):
        # sigma2/P0 overflows to inf, which no solver can use
        payload = json.loads((SCENARIOS / "total_rician_n6.json").read_text())
        payload["budget"]["P0"] = 1e-310
        path = write_scenario(tmp_path / "denormal.json", payload)
        assert main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert "sigma2/P0" in err and "1e-310" in err

    def test_unwritable_out_directory_exit_3(self, tmp_path, capsys, monkeypatch):
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(cli.tempfile, "mkstemp", denied)
        out = tmp_path / "out"
        assert main(["solve", str(SCENARIOS / "total_rayleigh_n4.json"), "--out", str(out)]) == 3
        assert str(out) in capsys.readouterr().err

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

    def test_zero_r_total_solves_at_snr_0(self, tmp_path, capsys):
        # no signal path is no failure: w = 0 at SNR 0, the whole budget at
        # the source (x = 1), no lambda_min and a note
        payload = {"mode": "total", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * 3, "R": cmat(np.zeros((3, 3))),
                                         "Q": cmat(np.ones((3, 3)))}},
                   "budget": {"P0": 10.0}}
        path = write_scenario(tmp_path / "dark.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert (rep["snr"], rep["snr_db"], rep["Ps"]) == (0.0, None, 10.0)
        assert rep["feasibility"] == [0.0] and not any(re or im for re, im in rep["w"])
        meta = rep["metadata"]
        assert (meta["x"], meta["lambda_min"], meta["iterations"]) == (1.0, None, 0)
        assert meta["notes"] == ["R = 0: no signal reaches the destination"]

    def test_zero_r_general_q_solves_at_snr_0(self, tmp_path, capsys, monkeypatch):
        # with R = 0 the sdp route returns w = 0 before any relaxation runs
        monkeypatch.setattr(indiv_qcqp, "solve_relaxation", refuse("a relaxation"))
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * 4, "R": cmat(np.zeros((4, 4))),
                                         "Q": cmat(A @ A.conj().T / 4)}},
                   "budget": {"Ps": 1.0, "P": [1.0] * 4}}
        path = write_scenario(tmp_path / "dark.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["solver"] == "sdp" and "fallback" not in rep["metadata"]
        assert rep["metadata"]["notes"] == ["R = 0: no signal reaches the destination"]
        assert rep["snr"] == 0.0
        assert rep["snr_db"] is None

    @pytest.mark.parametrize("mode,R,D,P", [("total", "Q", 1e300, None),
                                            ("total", "I", 1e300, None),
                                            ("pnorm", "Q", 1.0, 1e-300)],
                             ids=["dense-pair", "closed-form", "pnorm-embedding"])
    def test_underflowing_r_is_a_convergence_error(self, tmp_path, capsys, mode, R, D, P):
        # a nonzero R whose whitened or scaled form underflows float64 is no
        # R = 0: n = 3 with R = 1e-300 Q (Q general) or 1e-300 I, at D_k =
        # 1e300 on total power and at P_k = 1e-300 on the p-norm route
        A = np.random.default_rng(3).standard_normal((3, 3, 2)) @ [1.0, 1j]
        Q = A @ A.conj().T / 3 if R == "Q" else np.eye(3)
        payload = {"mode": "total" if mode == "total" else "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [D] * 3, "R": cmat(1e-300 * Q), "Q": cmat(Q)}},
                   "budget": {"P0": 10.0} if mode == "total" else {"Ps": 1.0, "P": [P] * 3},
                   "solver": {"name": "auto" if mode == "total" else mode}}
        path = write_scenario(tmp_path / "faint.json", payload)
        assert main(["solve", path]) == 2
        assert "it underflows, or R = 0" in capsys.readouterr().err

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
    def test_zero_r_on_every_route(self, tmp_path, capsys, monkeypatch, solver, n, diagonal):
        # R = 0 leaves every w at SNR 0: each route reports w = 0 with a note,
        # and no closed form, relaxation, search or GRP draw runs
        for module, name in ((indiv_qcqp.indiv_diag, "solve_diagonal"),
                             (indiv_qcqp, "solve_relaxation"), (indiv_qcqp, "grp_extract"),
                             (indiv_search, "coordinate_descent"),
                             (indiv_search, "augmented_lagrangian_solve")):
            monkeypatch.setattr(module, name, refuse(name))
        A = np.random.default_rng(n).standard_normal((n, n, 2)) @ [1.0, 1j]
        payload = {"mode": "individual", "sigma2": 1.0,
                   "channel": {"stats": {"D": [1.0] * n, "R": cmat(np.zeros((n, n))),
                                         "Q": cmat(np.eye(n) if diagonal
                                                   else A @ A.conj().T / n)}},
                   "budget": {"Ps": 1.0, "P": [1.0] * n},
                   "solver": {"name": solver}}
        path = write_scenario(tmp_path / "dark.json", payload)
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["snr"] == 0.0
        assert rep["snr_db"] is None
        assert not any(re or im for re, im in rep["w"]) and rep["trace"] is None
        assert rep["metadata"]["notes"] == ["R = 0: no signal reaches the destination"]

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
        assert (meta["rank_estimate"], meta["iterations"]) == (1, 3)
        assert 0.0 <= meta["sdp_gap"] <= 1e-12
        assert max(rep["feasibility"]) <= 1e-12
        assert rep["snr"] == pytest.approx(2.0948368126, rel=1e-10)
        assert rep["snr"] <= (meta["sdp_obj"] + meta["sdp_gap"]) * (1 + 1e-12)

    def test_sample_64_relay_scenario(self, capsys, monkeypatch):
        # Rician statistics take the secular pair: no eigendecomposition at all
        path = SCENARIOS / "total_rician_n64.json"
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(len(M)) or eigh(M))
        assert main(["solve", str(path)]) == 0
        assert calls == []
        rep = strict_json(capsys.readouterr().out)
        assert rep["scenario_mode"] == "total" and len(rep["w"]) == 64
        assert rep["snr"] >= brute_force_total(parse_scenario(str(path)).problem)[1] * (1 - 1e-9)
        assert rep["metadata"]["notes"] == []

    def test_sample_low_k_scenario_reports_its_fallback(self, capsys):
        # Rician K = 0.01: the run kept, from x_u, went on on the dense pair
        # from there, and the report's notes say so; the file is the seeded draw
        path = SCENARIOS / "total_lowk_n32.json"
        assert main(["solve", str(path)]) == 0
        rep = strict_json(capsys.readouterr().out)
        ref = total_power.solve(low_k_problem(0.01, 32, 20))
        assert (rep["metadata"]["x"], rep["snr"]) == (ref.x, ref.snr)
        xu = total_power.bracket_x(total_power.build_s_pair(parse_scenario(str(path)).problem))[1]
        assert rep["metadata"]["notes"] == ref.trace.notes == [
            f"dense pair from x={xu}: the secular pair did not certify"]
        assert rep["snr"] >= brute_force_total(low_k_problem(0.01, 32, 20))[1]

    def test_trace_in_the_report(self, tmp_path, capsys, monkeypatch):
        # --trace puts the iteration table in the one report --out writes;
        # without --trace the report's trace is null, and without --out
        # nothing is written to the working directory
        path, _ = diagonal_scenario(tmp_path, solver="cdm")
        out_dir = tmp_path / "out"
        assert main(["solve", path, "--trace", "--out", str(out_dir)]) == 0
        report_path = capsys.readouterr().out.strip()
        assert os.listdir(out_dir) == [os.path.basename(report_path)]
        rep = strict_json(Path(report_path).read_text())
        _, trace = indiv_search.coordinate_descent(parse_scenario(path).problem, np.ones(3))
        assert rep["trace"] == {"columns": ["sweep", "slot", "objective"],
                                "rows": [[float(v) for v in row] for row in trace.rows]}
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["solve", path, "--trace"]) == 0
        assert strict_json(capsys.readouterr().out)["trace"] == rep["trace"]
        assert main(["solve", path]) == 0
        assert strict_json(capsys.readouterr().out)["trace"] is None
        assert os.listdir(work) == []

    def test_two_traced_solves_keep_two_reports(self, tmp_path, capsys):
        path, _ = diagonal_scenario(tmp_path, solver="cdm")
        out_dir = tmp_path / "out"
        report_paths = []
        for _ in range(2):
            assert main(["solve", path, "--trace", "--out", str(out_dir)]) == 0
            report_paths.append(capsys.readouterr().out.strip())
        assert sorted(os.listdir(out_dir)) == sorted({os.path.basename(f) for f in report_paths})
        assert len(set(report_paths)) == 2
        assert all(os.path.basename(f).startswith("report-cdm-") for f in report_paths)
        first, second = (strict_json(Path(f).read_text()) for f in report_paths)
        assert first == second and first["trace"]["columns"] == ["sweep", "slot", "objective"]

    def test_trace_entries_are_plain_floats(self):
        # numpy scalar budgets make every objective an np.float64; the
        # report's rows hold plain floats, the trace's values
        R, Q = fixtures.indiv_fixture(4)
        stats = ChannelStats(D=np.ones(4), R=R, Q=Q, sigma2=np.float64(1.3))
        p = IndivPowerProblem(stats=stats, Ps=np.float64(0.7), P=np.full(4, 2.0))
        rep = run(cli.Scenario(mode="individual", problem=p, solver="cdm"), trace=True)
        _, trace = indiv_search.coordinate_descent(p, np.ones(4))
        assert all(type(v) is float for row in rep.trace["rows"] for v in row)
        assert strict_json(rep.to_json())["trace"]["rows"] == [
            [float(v) for v in row] for row in trace.rows]

    def test_non_finite_trace_entry_is_null(self, tmp_path, capsys):
        # the total_tiny_p0_n5 channel at P0 = 1e-150: the first Newton
        # step's d2 is NaN, which the strict-JSON report holds as null
        payload = json.loads((SCENARIOS / "total_tiny_p0_n5.json").read_text())
        payload["budget"]["P0"] = 1e-150
        assert main(["solve", write_scenario(tmp_path / "faint.json", payload), "--trace"]) == 0
        trace = strict_json(capsys.readouterr().out)["trace"]
        assert trace["columns"] == ["k", "x", "lambda_min", "d1", "d2", "step"]
        (row,) = trace["rows"]
        assert row[4] is None
        assert all(isinstance(v, float) for v in row[:4] + row[5:])

    def test_singular_pnorm_newton_step_exit_2(self, tmp_path, capsys):
        # seed 100 of the badly scaled recipe: the p-norm route's shifted
        # inner Hessian is numerically singular, a non-convergence; the sdp
        # route's p-norm fallback, from the relaxation's top factor, solves it
        p = badly_scaled_problem(100)
        payload = {"mode": "individual", "sigma2": float(p.stats.sigma2),
                   "channel": {"stats": {"D": p.stats.D.tolist(), "R": cmat(p.stats.R),
                                         "Q": cmat(p.stats.Q)}},
                   "budget": {"Ps": float(p.Ps), "P": p.P.tolist()},
                   "solver": {"name": "pnorm"}}
        assert main(["solve", write_scenario(tmp_path / "pnorm.json", payload)]) == 2
        assert "augmented Lagrangian broke down" in capsys.readouterr().err
        payload["solver"] = {"name": "sdp", "options": {"fallback": "pnorm"}}
        assert main(["solve", write_scenario(tmp_path / "sdp.json", payload)]) == 0
        assert strict_json(capsys.readouterr().out)["metadata"]["fallback"] == "pnorm"

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
        (["solve", "{latin1}"], "{latin1}"),
        (["solve", "{invalid}"], "{invalid}"),
        (["solve", "{deep}"], "{deep}"),
        (["solve", "{list}"], "{list}"),
        (["solve", "{scenario}", "--out", "{file}"], "{file}"),
        (["reproduce", "total-1", "--out", "{file}"], "{file}"),
        # an output file name taken by a directory
        (["reproduce", "total-1", "--out", "{out}"], "{out}/total-1.json"),
    ], ids=["solve-directory", "oracle-directory", "non-utf8-scenario", "invalid-json-scenario",
            "too-deep-json-scenario", "list-scenario", "solve-out-is-a-file",
            "reproduce-out-is-a-file", "reproduce-out-name-is-a-directory"])
    def test_unreadable_input_or_out_path_exit_3(self, tmp_path, capsys, argv, named):
        paths = {key: tmp_path / key
                 for key in ("dir", "latin1", "invalid", "deep", "list", "file", "out")}
        paths["dir"].mkdir()
        paths["latin1"].write_bytes('{"mode": "total", "note": "\u00e9"}'.encode("latin-1"))
        paths["invalid"].write_text("{not json")
        paths["deep"].write_text("[" * 10 ** 5 + "]" * 10 ** 5)
        paths["list"].write_text("[]")
        paths["file"].write_text("")
        (paths["out"] / "total-1.json").mkdir(parents=True)
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

    def test_oracle_on_the_line_of_sight_sample(self, capsys):
        # rank-one R and Q at P0/sigma^2 = 1e12: solve reaches the scan
        path = str(SCENARIOS / "total_los_n4.json")
        assert main(["oracle", path]) == 0
        out = strict_json(capsys.readouterr().out)
        assert 0.0 < out["x"] < 1.0
        assert main(["solve", path]) == 0
        rep = strict_json(capsys.readouterr().out)
        assert rep["metadata"]["iterations"] == 2
        assert out["objective"] * (1 - 1e-9) <= rep["snr"] <= out["objective"] * (1 + 1e-6)

    @pytest.mark.parametrize("P0", [1e16, 1e100])
    def test_line_of_sight_oracle_below_round_off_exit_2(self, tmp_path, capsys, P0):
        # the pencil's smallest eigenvalue is below eigvalsh's resolution: the
        # scan's bracket would be NaN at 1e16, and a floored grid would read
        # above the true objective, so the oracle stops; solve still solves
        payload = json.loads((SCENARIOS / "total_los_n4.json").read_text())
        payload["budget"]["P0"] = P0
        path = write_scenario(tmp_path / "los.json", payload)
        assert main(["oracle", path]) == 2
        err = capsys.readouterr().err
        assert "smallest eigenvalue" in err and "below what eigvalsh resolves" in err
        assert "Traceback" not in err
        assert main(["solve", path]) == 0


def dual_bound(prob, dual_y):
    """sum y + max(0, -lambda_min(sum_k y_k A_k - R)) sum_k 1/c_k, which bounds
    the QCQP value for any y >= 0 (the lift adds that times I to sum y_k A_k),
    from the problem's own D, R, Q, P and one eigvalsh."""
    y, s = np.asarray(dual_y, dtype=float), prob.stats
    c = (prob.Ps * s.D + s.sigma2) / prob.P
    lam = np.linalg.eigvalsh(y.sum() * s.Q + np.diag(c * y) - s.R)[0]
    assert y.min() >= 0
    return y.sum() + max(0.0, -lam) * (1.0 / c).sum()


class TestDualCertificate:
    """Every per-relay report whose route ran the relaxation carries its
    dual_y, and that alone certifies the reported SNR after a JSON round
    trip: snr sigma2/Ps <= bound (1 + 1e-9)."""

    @pytest.mark.parametrize("path,solver,options,rank", [
        (SCENARIOS / "individual_rician_n3.json", None, None, 1),
        (SCENARIOS / "individual_loose_caps_n3.json", None, None, 1),
        (4, "sdp", None, 2),          # the rank-two exit, then cdm
        (6, "sdp", {"fallback": "pnorm", "p": fixtures.PNORM_P}, 2),
        (6, "grp", {"samples": 64}, 2),
    ], ids=["rician-n3", "loose-caps-n3", "fixture-4-cdm", "fixture-6-pnorm", "fixture-6-grp"])
    def test_solve_reports(self, tmp_path, capsys, path, solver, options, rank):
        if isinstance(path, int):
            path = fixture_scenario(tmp_path, solver, options, n=path)[0]
        assert main(["solve", str(path)]) == 0
        rep = strict_json(capsys.readouterr().out)
        prob = parse_scenario(str(path)).problem
        meta = rep["metadata"]
        assert meta["rank_estimate"] == rank and len(meta["dual_y"]) == prob.n
        bound = dual_bound(prob, meta["dual_y"])
        assert bound == pytest.approx(meta["sdp_obj"] + meta["sdp_gap"], rel=1e-12)
        assert rep["snr"] * prob.stats.sigma2 / prob.Ps <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("n", [4, 6])
    def test_reproduce_reports(self, tmp_path, capsys, n):
        # with Ps = sigma2 = 1 every route's objective is its SNR
        assert main(["reproduce", f"indiv-n{n}", "--out", str(tmp_path)]) == 0
        rep = strict_json((tmp_path / f"indiv-n{n}.json").read_text())
        bound = dual_bound(parse_scenario(fixture_scenario(tmp_path, n=n)[0]).problem,
                           rep["dual_y"])
        assert max(rep[key] for key in ("sdp", "cdm", "pnorm", "grp")) <= bound * (1 + 1e-9)

    def test_total_power_and_diagonal_reports_carry_none(self, tmp_path, capsys):
        for path in (SCENARIOS / "total_rayleigh_n4.json", diagonal_scenario(tmp_path)[0]):
            assert main(["solve", str(path)]) == 0
            assert "dual_y" not in strict_json(capsys.readouterr().out)["metadata"]


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

    def test_out_writes_one_strict_json_report_per_case(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main(["reproduce", "total-1", "--out", str(out_dir)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert os.listdir(out_dir) == ["total-1.json"]
        rep = strict_json((out_dir / "total-1.json").read_text())
        assert rep["case"] == "total-1" and len(rep["bracket"]) == 2

    def test_n6_case_passes_with_the_cdm_over_grp_row(self, capsys):
        # 10^6 GRP samples at rank two, the only case with the cdm/grp row;
        # exit 0 means no row failed
        assert main(["reproduce", "indiv-n6"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [r for r in rows if "cdm/grp>=1.07" in r and r.endswith("PASS")]

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
