import numpy as np
import pytest

from relaybeam.errors import InputError
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.oracle import brute_force_indiv, brute_force_total
from relaybeam.total_power import solve as total_solve
from conftest import (finite_diff, identical_relays_problem, matrix_built, rand_indiv_problem,
                      rand_total_problem, weak_rician_problem)


class TestBruteForceIndiv:
    def test_single_relay_full_power(self, rng):
        p = rand_indiv_problem(rng, 1)
        w, val = brute_force_indiv(p, radial_points=50, angular_points=8)
        beta = p.caps()[0]
        assert abs(w[0]) == pytest.approx(beta, rel=1e-9)

    def test_diagonal_matches_closed_form(self, rng):
        for _ in range(5):
            p = rand_indiv_problem(rng, 2, diagonal=True)
            ref = solve_diagonal(p)
            _, val = brute_force_indiv(p, radial_points=30, angular_points=12)
            assert val == pytest.approx(ref.snr, rel=1e-3)

    def test_feasible_output(self, rng):
        p = rand_indiv_problem(rng, 3)
        w, val = brute_force_indiv(p, radial_points=12, angular_points=8)
        assert p.slacks(w).min() >= -1e-9

    def test_budget_guard(self, rng):
        p = rand_indiv_problem(rng, 3)
        with pytest.raises(InputError, match="coarser"):
            brute_force_indiv(p, radial_points=600, angular_points=720)

    def test_scope_error(self, rng):
        p = rand_indiv_problem(rng, 4)
        with pytest.raises(InputError, match="brute force is limited to n <= 3"):
            brute_force_indiv(p)


class TestSdpRouteEquivalence:
    def test_sdp_route_matches_oracle(self, rng):
        # end to end: QCQP via SDP (+ rank-one decomposition when needed),
        # rescaled to the cap problem, agrees with exhaustive search
        from relaybeam.indiv_qcqp import (rank_one_decompose,
                                          rescale_to_original, solve_via_sdp)
        checked = 0
        for _ in range(6):
            n = int(rng.integers(2, 4))
            p = rand_indiv_problem(rng, n)
            q, sol, w = solve_via_sdp(p)
            if w is None:
                w = rank_one_decompose(sol.X, q)
            got = rescale_to_original(w, q, p)
            grid = (40, 32) if n == 2 else (24, 18)     # radial and angular points
            _, val = brute_force_indiv(p, *grid)
            assert got.snr == pytest.approx(val, rel=2e-3)
            checked += 1
        assert checked == 6


class TestBruteForceTotal:
    def test_diagonal_within_one_grid_step(self, rng):
        from relaybeam.total_power import build_s_pair, bracket_x, solve_diagonal
        for _ in range(5):
            p = rand_total_problem(rng, 4, diagonal=True)
            ref = solve_diagonal(p)
            s = build_s_pair(p)
            xl, xu = bracket_x(s)
            points = 200
            x_grid, _ = brute_force_total(p, points=points)
            step = (xu - xl) / (points - 1)
            assert abs(x_grid - ref.x) <= step + 1e-12

    def test_matches_solver(self, rng):
        for _ in range(5):
            p = rand_total_problem(rng, 4)
            x_grid, obj_grid = brute_force_total(p, points=200)
            sol = total_solve(p)
            # solver must be at least as good as the grid and nearby in x
            assert sol.snr >= obj_grid - 1e-6 * abs(obj_grid)

    @pytest.mark.parametrize("p", [
        matrix_built(weak_rician_problem(64, 10.0, 1, 0.05, 0.2, 2.0)),
        matrix_built(weak_rician_problem(64, 10.0, 2, 0.3, 1.0, 5.0)),
        matrix_built(identical_relays_problem(64, 10.0)),
    ], ids=["weak-los", "strong-scattering", "identical-relays"])
    def test_matches_solver_on_the_dense_pair(self, p):
        # 64 relays on matrix-built statistics, where H's top eigenvalue need
        # not dominate: weak line of sight, strong scattering, identical relays
        _, obj_grid = brute_force_total(p, points=200)
        assert total_solve(p).snr >= obj_grid - 1e-6 * abs(obj_grid)

    def test_resolution_monotone(self, rng):
        p = rand_total_problem(rng, 4)
        _, lo = brute_force_total(p, points=10)
        _, hi = brute_force_total(p, points=1000)
        assert hi >= lo - 1e-12

    def test_points_floor(self, rng):
        p = rand_total_problem(rng, 3)
        with pytest.raises(InputError):
            brute_force_total(p, points=5)


class TestFiniteDiff:
    def test_square(self):
        assert finite_diff(lambda x: x * x, 3.0, h=1e-5) == pytest.approx(6.0, abs=1e-8)

    def test_gradient(self):
        g = finite_diff(lambda v: v[0] ** 2 + 3 * v[1], np.array([1.0, 2.0]))
        assert np.allclose(g, [2.0, 3.0], atol=1e-7)
