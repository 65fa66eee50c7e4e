import numpy as np
import pytest

from relaybeam import fixtures, indiv_qcqp
from relaybeam.channel import ChannelStats
from relaybeam.errors import InputError
from relaybeam.indiv_diag import solve_diagonal
from relaybeam.indiv_qcqp import (GRP_BATCH, _unvech, _vech, build_qcqp, grp_extract,
                                  qcqp_objective, rank_one_decompose,
                                  rescale_to_original, solve_via_sdp)
from relaybeam.linalg import qform, symmetrize
from relaybeam.problems import IndivPowerProblem
from relaybeam.sdp import range_eigh
from conftest import constraint_stack, degenerate_qcqp_instance, rand_indiv_problem, rand_pd


def grp_reference(X, q, samples, seed):
    """GRP in complex (samples, n) arithmetic, drawn in the range of X: w =
    L (a + i b) / sqrt 2 ~ CN(0, X) with L L^H = X on the eigenpairs above
    1e-6 lambda_max, and one (take, 2r) draw per batch from SFC64 seeded
    by SeedSequence([seed, batch]).  It draws every sample at every rank.
    The real 2r-dimensional chunked kernel must agree with it."""
    wv, U = np.linalg.eigh(symmetrize(X))
    keep = wv > 1e-6 * wv.max()
    L = U[:, keep] * np.sqrt(wv[keep])
    r = L.shape[1]
    best_val, best_w = -np.inf, None
    for batch_idx, done in enumerate(range(0, samples, GRP_BATCH)):
        take = min(GRP_BATCH, samples - done)
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence([seed, batch_idx])))
        z = rng.standard_normal((take, 2 * r))
        W = ((z[:, :r] + 1j * z[:, r:]) / np.sqrt(2.0)) @ L.T
        quad_Q = ((W @ q.Q.T) * W.conj()).sum(axis=1).real
        worst = (quad_Q[:, None] + np.abs(W) ** 2 * q.c[None, :]).max(axis=1)
        vals = ((W @ q.R.T) * W.conj()).sum(axis=1).real / worst
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_w = float(vals[i]), W[i] / np.sqrt(worst[i])
    return best_w


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


@pytest.mark.parametrize("r", [1, 2, 3])
def test_vech_matches_loop_reference(r):
    # coordinates: the diagonal, then sqrt 2 (Re, Im) of each entry above it
    rng = np.random.default_rng(r)
    A = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    H = A + A.conj().T
    ref = [H[i, i].real for i in range(r)]
    H_ref = np.diag(ref).astype(complex)
    for i in range(r):
        for j in range(i + 1, r):
            ref += [np.sqrt(2.0) * H[i, j].real, np.sqrt(2.0) * H[i, j].imag]
            H_ref[i, j] = (ref[-2] + 1j * ref[-1]) / np.sqrt(2.0)
            H_ref[j, i] = H_ref[i, j].conjugate()
    assert np.array_equal(_vech(H), ref)
    assert np.array_equal(_unvech(np.array(ref), r), H_ref)
    assert np.allclose(H_ref, H, rtol=1e-15, atol=0)


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

    @pytest.mark.parametrize("n,inactive", [(2, False), (3, False), (2, True), (3, True)],
                             ids=["2", "3", "2-one-inactive", "3-one-inactive"])
    def test_degenerate_instances_audit(self, n, inactive, rng, monkeypatch):
        # every constraint value of the range part of X is held, a cap with
        # y_k = 0 included, in at most two rounds (one range_eigh call each)
        calls = []
        monkeypatch.setattr(indiv_qcqp, "range_eigh",
                            lambda X: calls.append(1) or range_eigh(X))
        count = 0
        while count < 25:
            prob, q = degenerate_qcqp_instance(rng, n, inactive=inactive)
            _, sol, _ = solve_via_sdp(prob)
            if sol.rank_estimate < 2:
                continue
            count += 1
            lam, U = range_eigh(sol.X)
            calls.clear()
            w = rank_one_decompose(sol.X, q)
            assert len(calls) <= 3
            traces = q.traces((U * lam) @ U.conj().T)
            np.testing.assert_allclose(q.constraint_values(w), traces, rtol=1e-9, atol=0)
            assert qform(q.R, w) >= sol.primal_obj - 1e-8 * abs(sol.primal_obj)

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
                                              (10, None)])
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
        # stream must win over four batches, the last one partial
        R, Q = rand_pd(rng, 3), rand_pd(rng, 3)
        stats = ChannelStats(D=np.ones(3), R=R / R[0, 0].real, Q=Q / Q[0, 0].real,
                             sigma2=1.0)
        q = build_qcqp(IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(3, 2.0)))
        X = np.diag([1.0, 0.0, 0.0]).astype(complex)
        w = grp_extract(X, q, 3 * GRP_BATCH + 17, seed=11)
        assert np.array_equal(w, grp_extract(X, q, 1, seed=11))
        # the complex reference's values are not exact ties, but the first
        # sample of the stream is its one-sample answer
        assert np.abs(w - grp_reference(X, q, 1, seed=11)).max() <= 1e-12

    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_two_rank_normals_per_sample(self, rank, monkeypatch):
        rng = np.random.default_rng(rank)
        p = rand_indiv_problem(rng, 5)
        V = rng.standard_normal((5, rank)) + 1j * rng.standard_normal((5, rank))
        generator, drawn = np.random.Generator, []

        class Counting:
            def __init__(self, bit_generator):
                self.rng = generator(bit_generator)

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                drawn.append(out.size)
                return out

        monkeypatch.setattr(np.random, "Generator", Counting)
        samples = 2 * GRP_BATCH + 17
        grp_extract(V @ V.conj().T, build_qcqp(p), samples, seed=4)
        # at rank one every sample ties, so only the first one is drawn
        assert sum(drawn) == 2 * rank * (1 if rank == 1 else samples)

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
        # the sample counts cover a single sample, a partial first batch and
        # chunk, the batch edge on both sides and a partial second batch
        rng = np.random.default_rng([n, rank or n])
        if rank == 2 and n in fixtures.INDIV_EXPECT:
            p = fixture_problem(n)
            X = solve_via_sdp(p)[1].X              # the rank-two fixture relaxation
        else:
            p = rand_indiv_problem(rng, n)
            V = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
            X = V @ V.conj().T
        q = build_qcqp(p)
        for samples in (1, 7, GRP_BATCH - 1, GRP_BATCH, GRP_BATCH + 1, 100000):
            w = grp_extract(X, q, samples, seed=samples + n)
            w_ref = grp_reference(X, q, samples, seed=samples + n)
            if rank == 1:
                # every sample lies on one ray, so the values tie up to
                # round-off and only w w^H is determined
                w, w_ref = np.outer(w, w.conj()), np.outer(w_ref, w_ref.conj())
            assert np.abs(w - w_ref).max() <= 1e-12, samples
