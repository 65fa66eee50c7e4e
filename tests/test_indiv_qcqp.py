import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybeam import fixtures, indiv_qcqp
from relaybeam.channel import ChannelStats
from relaybeam.errors import ConvergenceError, InputError
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.indiv_qcqp import (_GRP_CHUNK, build_qcqp, grp_extract, qcqp_objective,
                                  rank_one_decompose, rescale_to_original, solve_via_sdp)
from relaybeam.linalg import qform, symmetrize
from relaybeam.problems import IndivPowerProblem
from relaybeam.sdp import RANK_TOL, QcqpInstance, SdpSolution, _gauge_basis, range_eigh
from conftest import constraint_stack, degenerate_qcqp_instance, rand_indiv_problem, rand_pd


def grp_values(X, q, samples, seed):
    """GRP in complex (samples, n) arithmetic on the same draws: L L^H = X
    on the eigenpairs above 1e-6 lambda_max, and from SFC64 seeded by
    SeedSequence(seed) the rays zeta, w = L zeta.  Each sample takes r - 1
    64-bit words.  Their high 32 bits, sorted, k_(1) <= ... <= k_(r-1), give
    the shares t = (2^32 - k_(r-1), k_(r-1) - k_(r-2), ..., k_(1)) 2^-32;
    their low 32 bits u give p_j = exp(i a_j) for zeta_2 ... zeta_r, a the
    float32 angle 2 pi u 2^-32; zeta = sqrt(t) (1, p_2, ..., p_r).  It
    draws every sample at every rank.  Returns the samples w, their worst
    constraint values and their objective values; a sample whose worst
    constraint value is not positive has no value (-inf)."""
    wv, U = np.linalg.eigh(symmetrize(X))
    keep = wv > 1e-6 * wv.max()
    L = U[:, keep] * np.sqrt(wv[keep])
    r = L.shape[1]
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    words = rng.bit_generator.random_raw(samples * (r - 1)).reshape(samples, r - 1)
    edges = np.hstack([np.zeros((samples, 1)), np.sort(words >> 32, axis=1),
                       np.full((samples, 1), 2.0 ** 32)])
    t = np.diff(edges, axis=1)[:, ::-1] * 2.0 ** -32
    a = ((words & 0xFFFFFFFF) * 2.0 ** -32).astype(np.float32) * np.float32(2 * np.pi)
    p = np.ones((samples, r), dtype=complex)
    p[:, 1:] = np.cos(a) + 1j * np.sin(a)
    zeta = np.sqrt(t) * p
    W = zeta @ L.T
    quad_Q = ((W @ q.Q.T) * W.conj()).sum(axis=1).real
    worst = (quad_Q[:, None] + np.abs(W) ** 2 * q.c[None, :]).max(axis=1)
    vals = np.full(samples, -np.inf)
    vals[worst > 0] = ((W @ q.R.T) * W.conj()).sum(axis=1).real[worst > 0] / worst[worst > 0]
    return W, worst, vals


def grp_reference(X, q, samples, seed):
    """The best of ``grp_values``, rescaled to the feasible boundary, or
    ConvergenceError when no sample has a value.  Every kernel of
    ``grp_extract`` must agree with it."""
    W, worst, vals = grp_values(X, q, samples, seed)
    i = int(np.argmax(vals))
    if vals[i] == -np.inf:
        raise ConvergenceError("no sample has a positive worst constraint value")
    return W[i] / np.sqrt(worst[i])


def near_null_space_instance(seed):
    """X's range within 1e-9 of the null spaces of a rank-one R and of
    Q = 1e8 g g^H, under caps of 1e-9, with rng [seed, 45]: (X, q)."""
    rng = np.random.default_rng([seed, 45])
    v, g = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2))
    q = QcqpInstance(R=np.outer(v, v.conj()), Q=1e8 * np.outer(g, g.conj()), c=np.full(4, 1e-9))
    B = np.linalg.svd(np.stack([v, g]).conj())[2][2:].conj().T
    V = B + 1e-9 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    return V @ V.conj().T, q


def assert_forms_of_w(L, q, zeta, F):
    """GRP's feature product C @ F gives, to 1e-12 relative, w^H R w, w^H Q w
    and max_k (w^H Q w + c_k |w_k|^2) of each column w = L zeta, taken
    straight from w in complex arithmetic."""
    V = indiv_qcqp._grp_forms(L, q) @ F
    got = np.array([V[0], V[1], V[1] + V[2:].max(axis=0)])
    W = (L @ zeta).T
    quad_Q = np.array([qform(q.Q, w) for w in W])
    ref = np.array([[qform(q.R, w) for w in W], quad_Q,
                    quad_Q + (q.c * np.abs(W) ** 2).max(axis=1)])
    assert np.all(np.abs(got - ref).max(axis=1) <= 1e-12 * np.abs(ref).max(axis=1))


def fixture_problem(n):
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0))


class TestBuildQcqp:
    def test_fixture_unit_coeffs(self):
        p = fixture_problem(4)
        q = build_qcqp(p)
        assert np.allclose(q.c, 1.0)
        assert np.array_equal(q.Q, p.stats.Q)
        w = np.arange(1.0, 5.0) + 1j
        assert np.allclose(q.constraint_values(w),
                           [qform(Ak, w) for Ak in constraint_stack(p)], rtol=1e-14, atol=0)

    def test_zero_q_unit_box(self):
        stats = ChannelStats(D=np.ones(3), R=np.eye(3), Q=np.zeros((3, 3)),
                             sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(3, 2.0))
        q = build_qcqp(p)
        w = np.array([1.0, 2.0j, -3.0])
        assert np.allclose(q.constraint_values(w), np.abs(w) ** 2, rtol=1e-15, atol=0)
        assert np.allclose(q.traces(np.outer(w, w.conj())), np.abs(w) ** 2,
                           rtol=1e-15, atol=0)

    def test_single_relay(self):
        stats = ChannelStats(D=np.array([2.0]), R=np.eye(1), Q=np.eye(1),
                             sigma2=0.5)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.array([5.0]))
        q = build_qcqp(p)
        assert q.constraint_values([1.0])[0] == pytest.approx((1.0 * 2.0 + 0.5) / 5.0 + 1.0)


@pytest.mark.parametrize("n", [3, 4, 8, 16, 32])
def test_forms_match_stacked_reference(n):
    # both methods of the (R, Q, c) form against the stacked A_k, at a
    # random point and a random PSD matrix of rank min(n, 3)
    rng = np.random.default_rng(n)
    p = rand_indiv_problem(rng, n)
    q, A = build_qcqp(p), constraint_stack(p)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(q.constraint_values(w), [qform(Ak, w) for Ak in A],
                               rtol=1e-12, atol=0)
    V = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    X = V @ V.conj().T
    np.testing.assert_allclose(q.traces(X), [np.trace(Ak @ X).real for Ak in A],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_gauge_basis_spans_the_hermitian_matrices(r):
    # rank_one_decompose's directions: -i S_l over the KKT exit's
    # skew-Hermitian S_l are Hermitian and span all r^2 real dimensions
    H = -1j * _gauge_basis(r)
    assert np.array_equal(H, H.conj().transpose(0, 2, 1))
    flat = H.reshape(r * r, r * r)
    assert np.linalg.matrix_rank(np.hstack([flat.real, flat.imag])) == r * r


class TestRescale:
    def test_saturating_point_unchanged(self, rng):
        p = rand_indiv_problem(rng, 4)
        q = build_qcqp(p)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        eta = (q.c * np.abs(w) ** 2).max()
        w = w / np.sqrt(eta)      # now the tightest cap is active
        sol = rescale_to_original(w, q, p)
        assert np.allclose(sol.w, w)

    def test_scale_invariance(self, rng):
        p = rand_indiv_problem(rng, 4)
        q = build_qcqp(p)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s1 = rescale_to_original(w, q, p)
        s2 = rescale_to_original(2.0 * w, q, p)
        assert s1.snr == pytest.approx(s2.snr, rel=1e-12)
        assert np.allclose(s1.w, s2.w)

    def test_one_active_constraint(self, rng):
        for _ in range(10):
            p = rand_indiv_problem(rng, 5)
            q = build_qcqp(p)
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            sol = rescale_to_original(w, q, p)
            slack = sol.feasibility
            assert slack.min() >= -1e-9
            rel = slack / p.P
            assert rel.min() <= 1e-9   # at least one cap active

    def test_zero_vector_rejected(self, rng):
        p = rand_indiv_problem(rng, 3)
        q = build_qcqp(p)
        with pytest.raises(InputError):
            rescale_to_original(np.zeros(3), q, p)

    def test_q_of_another_problem_refused(self, rng):
        # w scaled by another problem's caps can break p's; a q of p's own
        # (R, Q, c) in other arrays is p's
        p1, p2 = rand_indiv_problem(rng, 4), rand_indiv_problem(rng, 4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        with pytest.raises(InputError, match="q does not pose p"):
            rescale_to_original(w, build_qcqp(p1), p2)
        q = QcqpInstance(R=p2.stats.R.copy(), Q=p2.stats.Q.copy(), c=p2.c.copy())
        assert np.array_equal(rescale_to_original(w, q, p2).w,
                              rescale_to_original(w, build_qcqp(p2), p2).w)


class TestSolveViaSdp:
    @pytest.mark.parametrize("n", [4, 6])
    def test_fixture_rank_two_no_w(self, n):
        p = fixture_problem(n)
        q, sol, w = solve_via_sdp(p)
        assert sol.rank_estimate == 2
        assert w is None

    def test_diagonal_rank_one_matches_closed_form(self, rng):
        # a strongly dominant relay makes the relaxation optimum unique and
        # rank one; without dominance the optimal face can contain diagonal
        # optima of higher rank and the interior point converges inside it
        for _ in range(15):
            n = 3
            r = rng.uniform(0.05, 0.3, n)
            j = int(rng.integers(0, n))
            r[j] += 10.0
            stats = ChannelStats(D=rng.uniform(0.1, 2.0, n),
                                 R=np.diag(r).astype(complex),
                                 Q=np.diag(rng.uniform(0.5, 2.0, n)).astype(complex),
                                 sigma2=1.0)
            p = IndivPowerProblem(stats=stats, Ps=1.0, P=rng.uniform(0.5, 2.0, n))
            q, sol, w = solve_via_sdp(p)
            assert sol.rank_estimate == 1
            assert w is not None
            got = rescale_to_original(w, q, p)
            ref = solve_diagonal(p)
            assert got.snr == pytest.approx(ref.snr, rel=1e-6)


class TestSolve:
    def test_auto_picks_by_diagonality(self):
        p = fixture_problem(4)
        diag = IndivPowerProblem(stats=ChannelStats(D=np.ones(3), R=np.diag([2.0, 1.0, 0.5]),
                                                    Q=np.eye(3), sigma2=1.0),
                                 Ps=1.0, P=np.ones(3))
        assert indiv_qcqp.solve(diag)[1] == {"solver": "indiv-diag"}
        sol, meta, trace = indiv_qcqp.solve(p)
        assert (meta["solver"], meta["fallback"], meta["rank_estimate"]) == ("sdp", "cdm", 2)
        assert len(trace) > 0

    @pytest.mark.parametrize("solver", ["sdp", "grp"])
    def test_given_relaxation_is_used(self, solver, monkeypatch):
        # a passed relaxation gives the same answer as the one solved inside,
        # and no second relaxation is solved
        p = fixture_problem(4)
        options = {"samples": 100}
        sol, meta, _ = indiv_qcqp.solve(p, solver, options)
        relaxation = solve_via_sdp(p)
        monkeypatch.setattr(indiv_qcqp, "solve_via_sdp", None)
        again, meta_again, _ = indiv_qcqp.solve(p, solver, options, relaxation=relaxation)
        assert np.array_equal(sol.w, again.w)
        assert meta == meta_again

    def test_sdp_at_three_relays_decomposes(self, rng):
        prob, q = degenerate_qcqp_instance(rng, 3)
        sol, meta, trace = indiv_qcqp.solve(prob, "sdp")
        assert meta["rank_estimate"] >= 2 and trace is None
        assert meta["fallback"] == "rank-one-decomposition"
        assert qcqp_objective(q, sol.w) == pytest.approx(meta["sdp_obj"], rel=1e-8)

    @pytest.mark.parametrize("route", indiv_qcqp.ROUTES)
    @pytest.mark.parametrize("key", indiv_qcqp.OPTIONS)
    def test_none_option_is_absent(self, key, route):
        # an option whose value is None takes its default, on a route that
        # reads it and on one that does not
        if route == "indiv-diag":
            p = IndivPowerProblem(stats=ChannelStats(D=np.ones(3), R=np.diag([2.0, 1.0, 0.5]),
                                                     Q=np.eye(3), sigma2=1.0),
                                  Ps=1.0, P=np.ones(3))
        else:
            p = fixture_problem(4)
        relaxation = solve_via_sdp(p) if route in ("auto", "sdp", "grp") else None
        sol, meta, trace = indiv_qcqp.solve(p, route, {key: None}, 0, relaxation)
        ref, meta_ref, trace_ref = indiv_qcqp.solve(p, route, {}, 0, relaxation)
        assert np.array_equal(sol.w, ref.w) and meta == meta_ref
        assert (trace and trace.rows) == (trace_ref and trace_ref.rows)

    @pytest.mark.parametrize("solver", ["sdp", "grp"])
    def test_relaxation_of_another_problem_refused(self, solver, rng):
        # another problem's relaxation, rescaled to p, can break p's caps
        p1, p2 = rand_indiv_problem(rng, 4), rand_indiv_problem(rng, 4)
        with pytest.raises(InputError, match="the relaxation's q does not pose p"):
            indiv_qcqp.solve(p2, solver, None, 0, solve_via_sdp(p1))

    @pytest.mark.parametrize("solver", ["bogus", "total-newton", "SDP"])
    def test_unknown_route_rejected(self, solver):
        with pytest.raises(InputError, match="unknown per-relay solver"):
            indiv_qcqp.solve(fixture_problem(4), solver)


class TestRankOneDecompose:
    def test_already_rank_one(self, rng):
        p = rand_indiv_problem(rng, 3)
        q = build_qcqp(p)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = v / np.sqrt(max(qform(Ak, v) for Ak in constraint_stack(p)))
        w = rank_one_decompose(np.outer(v, v.conj()), q)
        phase = np.vdot(w, v)
        align = abs(phase) / (np.linalg.norm(w) * np.linalg.norm(v))
        assert align == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def decompose_by_rounds(X, q, monkeypatch):
        """rank_one_decompose(X, q), checking that each round (one range_eigh
        call) lowers the rank, that at most two rounds run, and that every
        round and w w^H hold each cap value and Tr(R X) of X's range part to
        1e-12 relative.  R = sum_k y_k A_k on every instance here, so Tr(R X)
        follows the caps."""
        seen = []
        monkeypatch.setattr(indiv_qcqp, "range_eigh",
                            lambda X: seen.append(range_eigh(X)) or seen[-1])
        w = rank_one_decompose(X, q)
        ranks = [lam.size for lam, _ in seen]
        assert ranks[-1] == 1 and len(ranks) <= 3
        assert all(a > b for a, b in zip(ranks, ranks[1:]))
        first, *rounds = [(U * lam) @ U.conj().T for lam, U in seen] + [np.outer(w, w.conj())]
        for Xi in rounds:
            np.testing.assert_allclose(q.traces(Xi), q.traces(first), rtol=1e-12, atol=0)
            assert np.vdot(q.R, Xi).real == pytest.approx(np.vdot(q.R, first).real, rel=1e-12)
        return w

    @pytest.mark.parametrize("n,inactive", [(2, False), (3, False), (2, True), (3, True)],
                             ids=["2", "3", "2-one-inactive", "3-one-inactive"])
    def test_degenerate_instances_audit(self, n, inactive, rng, monkeypatch):
        # every constraint value of the range part of X is held, a cap with
        # y_k = 0 included
        count = 0
        while count < 25:
            prob, q = degenerate_qcqp_instance(rng, n, inactive=inactive)
            _, sol, _ = solve_via_sdp(prob)
            if sol.rank_estimate < 2:
                continue
            count += 1
            w = self.decompose_by_rounds(sol.X, q, monkeypatch)
            assert qform(q.R, w) >= sol.primal_obj - 1e-8 * abs(sol.primal_obj)

    @pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (3, 3)])
    def test_random_rank_r_inputs(self, n, r, rng, monkeypatch):
        # a random rank-r X, optimal or not: at n = 2, r = 2 and n = 3, r = 3
        # the null space has dimension r^2 - n >= 2, so the direction chosen
        # in it is one of many
        for _ in range(10):
            _, q = degenerate_qcqp_instance(rng, n)
            V = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            self.decompose_by_rounds(V @ V.conj().T, q, monkeypatch)

    def test_positive_multiplier_below_one_is_held(self):
        # rank-3 relaxation with y = [1.9e-3, 2.6e-8, 0.951] and traces
        # [1 - 3.9e-7, 0.960, 1 - 1.0e-9]: cap 1 is slack by more than 1e-7
        # although its multiplier is positive, and moving it costs objective
        def hermitian3(diag, h12, h13, h23):
            H = np.diag(diag).astype(complex)
            H[0, 1], H[0, 2], H[1, 2] = h12, h13, h23
            return H + np.triu(H, 1).conj().T

        Q = hermitian3([2.1953832659926866, 0.48044269473107215, 1.8874067342506111],
                       0.46092922969336914 + 0.2686907884465631j,
                       -0.6253140500437256 + 0.16639549717851143j,
                       -0.4389156021952552 - 0.37355817576692885j)
        R = hermitian3([2.0952733148137264, 0.4577802721309839, 1.8818172887741826],
                       0.4391872548301832 + 0.25601667712526316j,
                       -0.5958180634978256 + 0.1585466421180302j,
                       -0.4182120074235856 - 0.3559374827315464j)
        D = np.array([0.5945825523082486, 0.43766805499124795, 1.7774494860768792])
        P = np.array([1.1436985787066647, 18.98307180661253, 39.72756458956248])
        stats = ChannelStats(D=D, R=R, Q=Q, sigma2=1.3133230876826956)
        prob = IndivPowerProblem(stats=stats, Ps=1.2223616187410093, P=P)
        q, sol, _ = solve_via_sdp(prob)
        assert sol.rank_estimate == 3
        assert sol.dual_y[0] > 1e-3 and q.traces(sol.X)[0] < 1.0 - 1e-7
        w = rank_one_decompose(sol.X, q)
        assert qcqp_objective(q, w) >= sol.primal_obj * (1.0 - 1e-8)
        assert q.constraint_values(w).max() <= 1.0 + 1e-9

    def test_rank_three_with_a_zero_multiplier(self):
        # fuzz-found rank-3 relaxation with y_2 = 0, on which an active-set
        # reduction had to walk to a blocking constraint
        D = np.array([1.3023126450061204, 1.9343948885924642, 1.6516180401909857])
        P = np.array([0.9122066091200027, 1.2593291445610737, 2.4464756993495307])
        Q = np.diag([1.2860534326030995, 1.1971039844946225, 0.2545901623873574]).astype(complex)
        Q[0, 1] = 0.5828723505203993 + 0.519772889995155j
        Q[0, 2] = -0.2631820991848445 + 0.3138015337126348j
        Q[1, 2] = -0.0820053440073483 + 0.4831668942030954j
        Q = Q + np.triu(Q, 1).conj().T
        y = np.array([0.6668734311954239, 0.0, 0.0018300415468206488])
        R = y.sum() * Q + np.diag(y * (D + 1.0) / P)
        prob = IndivPowerProblem(stats=ChannelStats(D=D, R=R, Q=Q, sigma2=1.0),
                                 Ps=1.0, P=P)
        q, sol, _ = solve_via_sdp(prob)
        assert sol.rank_estimate == 3
        w = rank_one_decompose(sol.X, q)
        assert qcqp_objective(q, w) == pytest.approx(sol.primal_obj, rel=1e-8)
        assert q.constraint_values(w).max() <= 1.0 + 1e-9

    def test_scope_error_above_three(self):
        p = fixture_problem(4)
        q, sol, _ = solve_via_sdp(p)
        with pytest.raises(InputError, match="rank-one decomposition is only guaranteed for n <= 3"):
            rank_one_decompose(sol.X, q)


class TestGrp:
    def test_deterministic_given_seed(self):
        p = fixture_problem(4)
        q, sol, _ = solve_via_sdp(p)
        w1 = grp_extract(sol.X, q, samples=20000, seed=5)
        w2 = grp_extract(sol.X, q, samples=20000, seed=5)
        assert np.array_equal(w1, w2)

    def test_prefix_monotonicity(self):
        p = fixture_problem(4)
        q, sol, _ = solve_via_sdp(p)
        objs = [qcqp_objective(q, grp_extract(sol.X, q, samples=s, seed=9))
                for s in (1000, 30000, 100000, 200000)]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_rank_one_covariance_degenerate(self, rng):
        p = rand_indiv_problem(rng, 3)
        q = build_qcqp(p)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        X = np.outer(v, v.conj())
        w = grp_extract(X, q, samples=50, seed=1)
        # every sample is a scalar multiple of v, so the output is v rescaled
        vn = v / np.sqrt(max(qform(Ak, v) for Ak in constraint_stack(p)))
        align = abs(np.vdot(w, vn)) / (np.linalg.norm(w) * np.linalg.norm(vn))
        assert align == pytest.approx(1.0, abs=1e-12)
        # the samples stay on the range of X, so no spurious eigenvalue
        # perturbs the norm
        assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(vn), rel=1e-12)

    def test_extraction_feasible_and_bounded(self, rng):
        p = fixture_problem(6)
        q, sol, _ = solve_via_sdp(p)
        w = grp_extract(sol.X, q, samples=50000, seed=3)
        vals = q.constraint_values(w)
        assert vals.max() <= 1.0 + 1e-8
        assert qform(q.R, w) <= sol.primal_obj + 1e-7

    def test_zero_x_rejected(self, rng):
        p = rand_indiv_problem(rng, 3)
        q = build_qcqp(p)
        with pytest.raises(InputError):
            grp_extract(np.zeros((3, 3)), q, samples=10, seed=0)

    def test_negative_seed_rejected(self):
        q, sol, _ = solve_via_sdp(fixture_problem(4))
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            grp_extract(sol.X, q, samples=10, seed=-1)

    @pytest.mark.parametrize("samples,seed", [(1000.0, 1), (10, 1.7), ("10", 1),
                                              (10, None), (True, 1), (10, True),
                                              (True, True)])
    def test_non_integral_samples_or_seed_rejected(self, samples, seed):
        q, sol, _ = solve_via_sdp(fixture_problem(4))
        with pytest.raises(InputError, match="must be .*integer"):
            grp_extract(sol.X, q, samples=samples, seed=seed)

    def test_numpy_integers_accepted(self):
        q, sol, _ = solve_via_sdp(fixture_problem(4))
        assert np.array_equal(grp_extract(sol.X, q, np.int64(500), np.uint64(3)),
                              grp_extract(sol.X, q, 500, 3))

    def test_rank_one_tie_first_sample_wins(self, rng):
        # X = e_0 e_0^H with R_00 = Q_00 = c_0 = 1: every sample value is
        # exactly R_00 / (Q_00 + c_0) = 1/2, so the first sample of the
        # stream must win over four chunks, the last one partial
        R, Q = rand_pd(rng, 3), rand_pd(rng, 3)
        stats = ChannelStats(D=np.ones(3), R=R / R[0, 0].real, Q=Q / Q[0, 0].real,
                             sigma2=1.0)
        q = build_qcqp(IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(3, 2.0)))
        X = np.diag([1.0, 0.0, 0.0]).astype(complex)
        w = grp_extract(X, q, 3 * _GRP_CHUNK + 17, seed=11)
        assert np.array_equal(w, grp_extract(X, q, 1, seed=11))
        # the complex reference's values are not exact ties, but the first
        # sample of the stream is its one-sample answer
        assert np.abs(w - grp_reference(X, q, 1, seed=11)).max() <= 1e-12

    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_uniforms_per_sample(self, rank, monkeypatch):
        rng = np.random.default_rng(rank)
        p = rand_indiv_problem(rng, 5)
        V = rng.standard_normal((5, rank)) + 1j * rng.standard_normal((5, rank))
        generator, made, drawn, words = np.random.Generator, [], [], []

        class Counting:
            # only ``random`` and raw words: a normal drawn anywhere is an
            # AttributeError
            def __init__(self, bit_generator):
                self.rng = generator(bit_generator)
                self.bit_generator = self
                made.append(self)

            def random(self, *args, **kwargs):
                out = self.rng.random(*args, **kwargs)
                drawn.append(out.size)
                return out

            def random_raw(self, size):
                out = self.rng.bit_generator.random_raw(size)
                words.append(out.size)
                return out

        monkeypatch.setattr(np.random, "Generator", Counting)
        samples = 2 * _GRP_CHUNK + 17
        grp_extract(V @ V.conj().T, build_qcqp(p), samples, seed=4)
        # one stream per call, r - 1 64-bit words a sample and no uniform
        # floats; at rank one every sample ties, so only the first one is
        # drawn, and it takes no word
        assert len(made) == 1
        assert drawn == []
        assert sum(words) == (rank - 1) * samples

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_rays_have_the_complex_normal_ray_law(self, r):
        # under CN(0, I_r) a share |zeta_k|^2 / |zeta|^2 is Beta(1, r - 1), so
        # it averages 1/r with second moment 2 / (r (r + 1)), and the relative
        # phasors e^{i(phi_j - phi_i)} average 0: each within 4 standard
        # errors over 10^5 rows
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([7, r])))
        words = rng.bit_generator.random_raw(10 ** 5 * (r - 1))
        F = indiv_qcqp._grp_features(*indiv_qcqp._rays(words, 10 ** 5, r), float)
        assert np.all(F[:r] > 0)
        i, j = np.triu_indices(r, 1)
        P = F[r:r + i.size] + 1j * F[r + i.size:]
        # the features are those of one zeta: |P_ij|^2 = |zeta_i|^2 |zeta_j|^2
        assert np.all(np.abs(np.abs(P) ** 2 - F[i] * F[j]) <= 1e-14 * F[i] * F[j])

        def within_4_se(x, mean):
            se = x.std(axis=-1) / np.sqrt(x.shape[-1])
            assert np.all(np.abs(x.mean(axis=-1) - mean) <= 4 * se)

        shares = F[:r] / F[:r].sum(axis=0)
        within_4_se(shares, 1 / r)
        within_4_se(shares ** 2, 2 / (r * (r + 1)))
        rel = P / np.abs(P)
        within_4_se(rel.real, 0.0)
        within_4_se(rel.imag, 0.0)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 8, 16])
    def test_features_give_the_forms_of_w(self, r):
        # the r^2-feature kernel gives the forms of w = L zeta for the ray
        # zeta = (F_0, P_12, ..., P_1r) / sqrt(F_0) of each column, the one
        # grp_extract rebuilds
        n = max(8, r)
        rng = np.random.default_rng([r, 8])
        q = build_qcqp(rand_indiv_problem(rng, n))
        L = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        words = np.random.default_rng(r).bit_generator.random_raw(1000 * (r - 1))
        F = indiv_qcqp._grp_features(*indiv_qcqp._rays(words, 1000, r), float)
        h = r * (r - 1) // 2
        zeta = np.vstack([F[:1], F[r:2 * r - 1] + 1j * F[r + h:r + h + r - 1]]) / np.sqrt(F[0])
        assert_forms_of_w(L, q, zeta, F)

    @pytest.mark.parametrize("n", [4, 6])
    def test_rank_two_stream_is_pinned(self, n):
        # the rank-two draw and its float64 arithmetic, bit for bit, on the
        # fixture relaxations across three chunk edges
        pinned = {4: [("-0x1.35b156509b571p-1", "0x1.05acb948694ebp-2"),
                      ("0x1.077d91bc1c6fep-1", "-0x1.123fad8bde95fp-1"),
                      ("-0x1.a1d721d691c98p-3", "-0x1.6db2bbcfc46c6p-1"),
                      ("-0x1.6792427fc9157p-1", "-0x1.d9021ab5eab7ap-3")],
                  6: [("-0x1.44eaef07de79ep-1", "0x1.16ba9290006c0p-1"),
                      ("0x1.eb598e67b9798p-4", "0x1.9692c6181d7f6p-2"),
                      ("0x1.944111cc228dbp-1", "-0x1.1e96622a9ebe8p-2"),
                      ("-0x1.51a9f4ef6dda7p-1", "0x1.01dd1700af959p-1"),
                      ("-0x1.3ed5615afaaefp-2", "0x1.2bdce22ce4f25p-2"),
                      ("-0x1.3db95213eaef7p-6", "0x1.6afd710fdbaa2p-1")]}
        q, sol, _ = solve_via_sdp(fixture_problem(n))
        w = grp_extract(sol.X, q, 3 * _GRP_CHUNK + 17, 20111)
        assert [(z.real.hex(), z.imag.hex()) for z in w.tolist()] == pinned[n]

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_rank_two_returns_the_ray_of_its_best_value(self, n):
        # every value and the returned w come from one zeta: w's value is
        # the best one and its tightest cap is met exactly
        if n in fixtures.INDIV_EXPECT:
            p = fixture_problem(n)
            X = solve_via_sdp(p)[1].X
        else:
            rng = np.random.default_rng([n, 2])
            p = rand_indiv_problem(rng, n)
            V = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            X = V @ V.conj().T
        q = build_qcqp(p)
        samples = 2 * _GRP_CHUNK + 5
        w = grp_extract(X, q, samples, seed=n)
        best = grp_values(X, q, samples, seed=n)[2].max()
        assert qcqp_objective(q, w) == pytest.approx(best, rel=1e-12)
        assert q.constraint_values(w).max() == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_draws_first_sample(self, rng):
        # a generic rank-one X: the values tie only up to round-off, and the
        # answer is the first sample, which is the principal factor's ray
        p = rand_indiv_problem(rng, 5)
        q = build_qcqp(p)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        X = np.outer(v, v.conj())
        w = grp_extract(X, q, 10 ** 6, seed=8)
        assert np.array_equal(w, grp_extract(X, q, 1, seed=8))
        lam, U = np.linalg.eigh(X)
        assert qcqp_objective(q, w) == pytest.approx(
            qcqp_objective(q, np.sqrt(lam[-1]) * U[:, -1]), rel=1e-12)

    @pytest.mark.parametrize("rank", [None, 2, 1])      # None: full rank
    @pytest.mark.parametrize("n", [3, 4, 6, 11, 12, 16])
    def test_matches_complex_reference(self, n, rank):
        # the sample counts cover a single sample, a partial first chunk, the
        # first chunk's edge on both sides (the first chunk is half of the
        # others, which hold 2 / r of _GRP_CHUNK at rank r) and a partial
        # last chunk
        rng = np.random.default_rng([n, rank or n])
        if rank == 2 and n in fixtures.INDIV_EXPECT:
            p = fixture_problem(n)
            X = solve_via_sdp(p)[1].X              # the rank-two fixture relaxation
        else:
            p = rand_indiv_problem(rng, n)
            V = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
            X = V @ V.conj().T
        q = build_qcqp(p)
        edge = _GRP_CHUNK // (rank or n)
        for samples in (1, 7, edge - 1, edge, edge + 1, 100000):
            w = grp_extract(X, q, samples, seed=samples + n)
            w_ref = grp_reference(X, q, samples, seed=samples + n)
            if rank == 1:
                # every sample lies on one ray, so the values tie up to
                # round-off and only w w^H is determined
                w, w_ref = np.outer(w, w.conj()), np.outer(w_ref, w_ref.conj())
            assert np.abs(w - w_ref).max() <= 1e-12, samples

    def test_screen_keeps_samples_whose_bounded_denominator_is_not_positive(self):
        # tiny caps beside a rank-one Q: the best samples lie near the null
        # space of Q, where the float32 screen's bounded denominator V_1 +
        # max_k V_k - a_1 - max_k a_k is not positive, so no bound on their
        # value exists; their R form is positive, so the screen's test keeps
        # them and each is evaluated in float64.  The values there are
        # ill-conditioned (Q's form cancels), hence 1e-9.
        rng = np.random.default_rng(5)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = QcqpInstance(R=np.eye(4, dtype=complex), Q=np.outer(g, g.conj()), c=np.full(4, 1e-9))
        X, chunk = np.eye(4, dtype=complex), 2 * _GRP_CHUNK // 4
        late = 0
        for seed in range(8):
            best = grp_values(X, q, 3 * chunk, seed)[2].max()
            # the seeds whose best sample is not among the first `chunk` samples
            late += qcqp_objective(q, grp_extract(X, q, chunk, seed)) < 0.5 * best
            assert qcqp_objective(q, grp_extract(X, q, 3 * chunk, seed)) == pytest.approx(
                best, rel=1e-9)
        assert late >= 3

    def test_screen_drops_unbounded_samples_of_negative_r_form(self):
        # X's range within 1e-9 of the null spaces of a rank-one R and of
        # Q = 1e8 g g^H, under caps of 1e-9: both forms are float64 round-off
        # of either sign, and the largest ratio of the R form to the
        # denominator over the draws has a negative R form over a negative
        # denominator, with no finite ray.  Such a sample has no value (see
        # grp_extract), so w is finite here; taking its ratio would make it NaN.
        X, q = near_null_space_instance(3)
        samples = 3 * _GRP_CHUNK
        W, worst, _ = grp_values(X, q, samples, 3)
        assert worst[np.argmax(((W @ q.R.T) * W.conj()).sum(axis=1).real / worst)] < 0
        assert np.isfinite(grp_extract(X, q, samples, 3)).all()

    @pytest.mark.parametrize("samples", [4000, 24576])
    def test_no_non_finite_w_near_null_spaces(self, samples):
        # the instance above over 100 seeds: a sample whose float64
        # denominator is not positive has no value, so w is finite, or, where
        # no drawn sample has a value (Q's round-off is negative over the
        # whole range of X), ConvergenceError is raised
        raised = 0
        for seed in range(100):
            X, q = near_null_space_instance(seed)
            try:
                assert np.isfinite(grp_extract(X, q, samples, seed)).all()
            except ConvergenceError:
                raised += 1
        assert raised < 10

    def test_no_value_is_a_convergence_error(self):
        # seed 14 of the instance above: every drawn sample's float64
        # denominator is negative, through grp_extract and solve's grp route
        # alike (exit 2), never a NaN w that rescaling reports as an input error
        X, q = near_null_space_instance(14)
        with pytest.raises(ConvergenceError, match="no sample has a positive"):
            grp_extract(X, q, 100, 14)
        stats = ChannelStats(D=np.ones(4), R=q.R, Q=q.Q, sigma2=1.0)
        p = IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(4, 2e9))
        sol = SdpSolution(X=X, dual_y=np.zeros(4), primal_obj=0.0, dual_obj=0.0, gap=0.0,
                          rank_estimate=2, iterations=0)
        with pytest.raises(ConvergenceError):
            indiv_qcqp.solve(p, "grp", {"samples": 100}, 14, (build_qcqp(p), sol, None))

    @pytest.mark.parametrize("n", [4, 6])
    def test_band_leaves_few_draws_to_the_feature_kernel(self, n, monkeypatch):
        # at rank two the band rejects a draw on its raw word: at the paper's
        # sample count fewer than 10 % of the draws reach the feature kernel
        # (float32 screen and float64 values together)
        q, sol, _ = solve_via_sdp(fixture_problem(n))
        columns, features = [], indiv_qcqp._grp_features
        monkeypatch.setattr(indiv_qcqp, "_grp_features",
                            lambda k, *rest: columns.append(k.shape[1]) or features(k, *rest))
        for seed in (1, 20111):
            columns.clear()
            grp_extract(sol.X, q, fixtures.GRP_SAMPLES, seed)
            assert sum(columns) < 0.1 * fixtures.GRP_SAMPLES

    @pytest.mark.parametrize("n", [4, 6, 3, 9, 16])
    def test_bloch_band_holds_every_word_that_exceeds_best(self, n):
        # every one of 2 x 10^5 rank-two words whose float64 value exceeds a
        # best value (the first chunk's best, the best of all, and half of it)
        # lies in the band; on the fixture relaxations the band near the best
        # is narrow (the values of random instances can be flat over wide
        # bands); beyond every value the band is empty
        first, last = 1.0, 1.0
        if n in fixtures.INDIV_EXPECT:
            q, sol, _ = solve_via_sdp(fixture_problem(n))
            lam, U = range_eigh(sol.X)
            L, first, last = U * np.sqrt(lam), 0.1, 0.02
        else:
            rng = np.random.default_rng([n, 46])
            q = build_qcqp(rand_indiv_problem(rng, n))
            L = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        C = indiv_qcqp._grp_forms(L, q)
        words = np.random.default_rng(n).bit_generator.random_raw(2 * 10 ** 5)
        V = C @ indiv_qcqp._grp_features(*indiv_qcqp._rays(words, words.size, 2), float)
        vals = V[0] / (V[1] + V[2:].max(axis=0))
        for best, narrow in ((vals[:_GRP_CHUNK // 2].max(), first), (vals.max(), last),
                             (vals.max() / 2, 1.0)):
            lo, width = indiv_qcqp._bloch_band(C, best) or (0, 2 ** 64)
            assert np.all(words[vals > best] - np.uint64(lo) < width)
            assert width <= narrow * 2 ** 64
        assert indiv_qcqp._bloch_band(C, 2 * vals.max()) == (0, 0)

    @pytest.mark.parametrize("n", [4, 6])
    def test_float64_value_does_not_depend_on_its_batch(self, n, monkeypatch):
        # a sample's float64 value, and so w, is bit for bit the same whether
        # it is evaluated alone or among the few survivors of the band and the
        # screen, or inside one batch of every sample (a first chunk that
        # holds them all); the winners here are past the default first chunk
        q, sol, _ = solve_via_sdp(fixture_problem(n))
        batches, features = [], indiv_qcqp._grp_features

        def record(k, cos, sin, dtype):
            if dtype is float:
                batches.append(k.shape[1])
            return features(k, cos, sin, dtype)

        monkeypatch.setattr(indiv_qcqp, "_grp_features", record)
        samples, late = 50000, 0
        for seed in range(8):
            batches.clear()
            w = grp_extract(sol.X, q, samples, seed)
            later = batches[1:]
            if np.array_equal(w, grp_extract(sol.X, q, _GRP_CHUNK // 2, seed)):
                continue    # the winner is in the first chunk
            late += 1
            assert 0 < max(later) <= samples // 100
            with monkeypatch.context() as one_chunk:
                one_chunk.setattr(indiv_qcqp, "_GRP_CHUNK", 4 * samples)
                batches.clear()
                assert np.array_equal(w, grp_extract(sol.X, q, samples, seed))
                assert batches == [samples]
        assert late >= 3

    @pytest.mark.parametrize("trial", [26, 59, 64])
    def test_screen_bounds_the_rounding_of_cancelling_forms(self, trial):
        # R = Q + eps D beside a rank-one Q and caps c ~ eps: near the null
        # space of Q both forms cancel, their float32 values are off by far
        # more than the screen's 2^-19 margin, and only the rounding bounds
        # a_j keep the float64 best among the evaluated samples (these
        # trials fail without them).  The values are ill-conditioned, hence 1e-9.
        rng = np.random.default_rng([trial, 77])
        r = int(rng.choice([2, 3]))
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        Q = np.outer(g, g.conj())
        c = np.full(4, 10 ** rng.uniform(-9, -3))
        R = Q + c[0] * 10 ** rng.uniform(-1, 1) * np.diag(rng.uniform(0.5, 2, 4))
        q = QcqpInstance(R=R, Q=Q, c=c)
        V = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
        X, samples = V @ V.conj().T, 3 * (2 * _GRP_CHUNK // r)
        best = grp_values(X, q, samples, trial)[2].max()
        assert qcqp_objective(q, grp_extract(X, q, samples, trial)) == pytest.approx(
            best, rel=1e-9)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 16), rank=st.integers(1, 5),
       j=st.integers(-64, 64), spread=st.floats(0.0, 1.0), chunks=st.integers(0, 2),
       offset=st.integers(-2, 2))
@settings(deadline=None, max_examples=200)
@example(seed=1, n=4, rank=2, j=0, spread=0.5, chunks=2, offset=-2)   # rank two: two samples
@example(seed=1, n=4, rank=2, j=0, spread=0.5, chunks=2, offset=2)    # short of, and past, 4,096 + 2^15
def test_grp_is_the_float64_first_maximum(seed, n, rank, j, spread, chunks, offset):
    # whatever the float32 screen leaves out, w is the first maximum of the
    # float64 values of the same draws (the complex reference's): at ranks
    # 1-5, R scaled by 4^j, lambda_r / lambda_1 down to RANK_TOL, and sample
    # counts around the edge after chunk `chunks` (one sample at 0)
    rank = min(rank, n)
    rng = np.random.default_rng(seed)
    q = build_qcqp(rand_indiv_problem(rng, n))
    q = QcqpInstance(R=4.0 ** j * q.R, Q=q.Q, c=q.c)
    U = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))[0]
    X = (U * RANK_TOL ** (spread * np.arange(rank) / max(rank - 1, 1))) @ U.conj().T
    # grp_extract's chunks at the rank it samples at (range_eigh may cut the
    # last eigenvalue, at RANK_TOL lambda_1): the first holds _GRP_CHUNK / r
    # samples, each later one 2^15 at rank two and 2 _GRP_CHUNK / r otherwise
    r = range_eigh(X)[0].size
    first, step = _GRP_CHUNK // r, 2 ** 15 if r == 2 else 2 * _GRP_CHUNK // r
    samples = max(1, first + (chunks - 1) * step + offset)
    w, w_ref = grp_extract(X, q, samples, seed), grp_reference(X, q, samples, seed)
    if r == 1:
        # every sample lies on one ray: only w w^H is determined
        w, w_ref = np.outer(w, w.conj()), np.outer(w_ref, w_ref.conj())
    assert np.abs(w - w_ref).max() <= 1e-12 * np.abs(w_ref).max()
