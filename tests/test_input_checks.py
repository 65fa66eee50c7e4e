"""Every input check of the library raises InputError naming the field,
and the package namespace holds the problem inputs and the error classes."""

import numpy as np
import pytest

import relaybeam
from relaybeam import fixtures, indiv_qcqp
from relaybeam.channel import ChannelStats, RicianParams, build_stats, powers, snr
from relaybeam.errors import ConvergenceError, InputError, ModelError, RelayBeamError
from relaybeam.indiv_search import (augmented_lagrangian_solve, build_pnorm_embedding,
                                    coordinate_descent, phi_p_grad_hess)
from relaybeam.linalg import check_vector, hermitian
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem

I2 = np.eye(2)


def problem(n=2):
    stats = ChannelStats(D=np.ones(n), R=np.eye(n), Q=np.eye(n), sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=np.ones(n))


def fixture_qcqp(n=4):
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    return indiv_qcqp.build_qcqp(IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0)))


def with_entry(n, i, j, value):
    """I_n with entries (i, j) and (j, i) set to value."""
    X = np.eye(n, dtype=complex)
    X[i, j] = X[j, i] = value
    return X


CASES = {
    "rician-lengths": (lambda: RicianParams(f_mean=[1, 1], f_var=[1, 1], g_mean=[1, 1],
                                            g_var=[1, 1, 1]), "g_var"),
    "rician-no-power": (lambda: RicianParams(f_mean=[0, 0], f_var=[0, 0], g_mean=[1, 1],
                                             g_var=[1, 1]), "f_mean"),
    "rician-nan-var": (lambda: RicianParams(f_mean=[1, 1], f_var=[1, np.nan], g_mean=[1, 1],
                                            g_var=[1, 1]), "f_var must be nonnegative and finite"),
    "rician-inf-var": (lambda: RicianParams(f_mean=[1, 1], f_var=[1, 1], g_mean=[1, 1],
                                            g_var=[np.inf, 1]), "g_var must be nonnegative and finite"),
    "rician-negative-var": (lambda: RicianParams(f_mean=[1, 1], f_var=[1, 1], g_mean=[1, 1],
                                                 g_var=[1, -0.5]), "g_var must be nonnegative"),
    "rician-overflow": (lambda: build_stats(RicianParams(f_mean=[1e160, 1], f_var=[1, 1],
                                                         g_mean=[1, 1], g_var=[1, 1])),
                        "overflow R"),
    "rician-overflow-g-mean": (lambda: build_stats(RicianParams(f_mean=[1, 1], f_var=[1, 1],
                                                                g_mean=[1e160, 1], g_var=[1, 1])),
                               "overflow R"),
    "rician-overflow-g-var": (lambda: build_stats(RicianParams(f_mean=[1, 1], f_var=[1, 1],
                                                               g_mean=[1, 1], g_var=[1e308, 1e308])),
                              "overflow R"),
    # relay 0 has no source link, and its R entry is 0 inf = NaN in the dense product
    "rician-overflow-nan": (lambda: build_stats(RicianParams(f_mean=[0, 1], f_var=[0, 1],
                                                             g_mean=[1e160, 1], g_var=[1, 1])),
                            "overflow R"),
    # R is finite, but symmetrizing Q doubles its first diagonal entry past float64
    "rician-overflow-q": (lambda: build_stats(RicianParams(f_mean=[0, 1], f_var=[1e-10, 1],
                                                           g_mean=[0, 1], g_var=[1e308, 1])),
                          "overflow R or Q"),
    "stats-sizes": (lambda: ChannelStats(D=np.ones(3), R=I2, Q=I2, sigma2=1.0), "D, R, Q"),
    "stats-r-not-psd": (lambda: ChannelStats(D=np.ones(2), R=np.diag([1.0, -1.0]), Q=I2,
                                             sigma2=1.0), "R is not PSD"),
    "stats-q-not-psd": (lambda: ChannelStats(D=np.ones(2), R=I2, Q=np.diag([1.0, -1.0]),
                                             sigma2=1.0), "Q is not PSD"),
    "cap-count": (lambda: IndivPowerProblem(stats=problem().stats, Ps=1.0, P=np.ones(3)),
                  "P must hold one power cap per relay"),
    # r = sigma2/P0 overflows at a denormal P0
    "total-p0-denormal": (lambda: TotalPowerProblem(stats=problem().stats, P0=1e-310),
                          r"sigma2/P0 = 1.0/1e-310 is not positive"),
    "hermitian-not-square": (lambda: hermitian(np.ones((2, 3)), name="Q"), "Q must be square"),
    "vector-empty": (lambda: check_vector([], name="f_mean"), "f_mean must have length"),
    "vector-non-finite": (lambda: check_vector([1.0, np.nan], name="g_mean"),
                          "g_mean contains non-finite"),
    "vector-ragged": (lambda: check_vector([[1.0], [1.0, 2.0]], name="f_mean"),
                      "f_mean must be a vector of numbers"),
    "rician-mean-matrix": (lambda: RicianParams(f_mean=np.ones((2, 2)), f_var=np.ones(4),
                                                g_mean=np.ones(4), g_var=np.ones(4)),
                           r"f_mean must be a vector of numbers, got array\(\[\[1"),
    # the caller's X of the relaxation: an n x n Hermitian matrix of finite entries
    "grp-x-3x3": (lambda: indiv_qcqp.grp_extract(np.eye(3), fixture_qcqp(), 10, 0),
                  r"X must be 4 x 4, got shape \(3, 3\)"),
    "grp-x-5x5": (lambda: indiv_qcqp.grp_extract(np.eye(5), fixture_qcqp(), 10, 0),
                  r"X must be 4 x 4, got shape \(5, 5\)"),
    "grp-x-1d": (lambda: indiv_qcqp.grp_extract(np.ones(4), fixture_qcqp(), 10, 0),
                 r"X must be square, got shape \(4,\)"),
    "grp-x-inf": (lambda: indiv_qcqp.grp_extract(with_entry(4, 0, 1, np.inf), fixture_qcqp(),
                                                 10, 0), "X contains non-finite entries"),
    "grp-x-nan-diagonal": (lambda: indiv_qcqp.grp_extract(with_entry(4, 2, 2, np.nan),
                                                          fixture_qcqp(), 10, 0),
                           "X contains non-finite entries"),
    "rank-one-x-shape": (lambda: indiv_qcqp.rank_one_decompose(
                             np.eye(2), indiv_qcqp.build_qcqp(problem(3))),
                         r"X must be 3 x 3, got shape \(2, 2\)"),
    "rank-one-x-nan": (lambda: indiv_qcqp.rank_one_decompose(
                           with_entry(3, 0, 0, np.nan), indiv_qcqp.build_qcqp(problem(3))),
                       "X contains non-finite entries"),
    "cdm-w0-length": (lambda: coordinate_descent(problem(), np.ones(3)), "w0 has length 3"),
    "al-w0-nan": (lambda: augmented_lagrangian_solve(build_pnorm_embedding(problem(), 8), problem(),
                                                     w0=[np.nan, 1.0]),
                  "w0 contains non-finite entries"),
    "al-w0-inf": (lambda: augmented_lagrangian_solve(build_pnorm_embedding(problem(), 8), problem(),
                                                     w0=[1.0, np.inf]),
                  "w0 contains non-finite entries"),
    "pnorm-p": (lambda: build_pnorm_embedding(problem(), 0), "p must be >= 1"),
    "pnorm-p-fraction": (lambda: build_pnorm_embedding(problem(), 2.5),
                         "p must be an integer, got 2.5"),
    "pnorm-p-bool": (lambda: build_pnorm_embedding(problem(), True),
                     "p must be an integer, got True"),
    # a per-relay option given to the library is checked, not replaced
    "solve-p-zero": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"p": 0}), "p must be >= 1"),
    "solve-p-bool": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"p": True}),
                     "p must be an integer, got True"),
    "solve-fallback": (lambda: indiv_qcqp.solve(problem(), "sdp", {"fallback": "bogus"}),
                       r"unknown fallback 'bogus'; choose one of \('cdm', 'pnorm'\)"),
    # ... whatever the route reads
    "solve-pnorm-eps": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"eps": -1.0}),
                        "eps must be a positive finite number, got -1.0"),
    "solve-grp-eps": (lambda: indiv_qcqp.solve(problem(), "grp", {"eps": 0}),
                      "eps must be a positive finite number, got 0"),
    "solve-cdm-samples": (lambda: indiv_qcqp.solve(problem(), "cdm", {"samples": 0}),
                          "samples must be >= 1 and an integer"),
    "solve-pnorm-samples": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"samples": 0}),
                            "samples must be >= 1 and an integer"),
    "solve-sdp-w0": (lambda: indiv_qcqp.solve(problem(), "sdp", {"w0": np.ones(3)}),
                     "w0 has length 3, expected 2"),
    # ... and its type: a bool, a string or an array is no number
    "solve-eps-bool": (lambda: indiv_qcqp.solve(problem(), "cdm", {"eps": True}),
                       "eps must be a positive finite number, got True"),
    "solve-eps-str": (lambda: indiv_qcqp.solve(problem(), "cdm", {"eps": "x"}),
                      "eps must be a positive finite number, got 'x'"),
    "solve-eps-list": (lambda: indiv_qcqp.solve(problem(), "cdm", {"eps": [1e-3]}),
                       r"eps must be a positive finite number, got \[0.001\]"),
    "solve-p-str": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"p": "4"}),
                    "p must be an integer, got '4'"),
    "solve-p-array": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"p": np.array([4])}),
                      r"p must be an integer, got array\(\[4\]\)"),
    "solve-w0-str": (lambda: indiv_qcqp.solve(problem(), "cdm", {"w0": "abc"}),
                     "w0 must be a vector of numbers, got 'abc'"),
    "pnorm-hessian-at-zero": (lambda: phi_p_grad_hess(build_pnorm_embedding(problem(), 8),
                                                      np.zeros(4)),
                              "not twice differentiable at z = 0"),
    "snr-ps-nan": (lambda: snr(problem().stats, np.nan, np.ones(2)), "Ps must be positive and finite"),
    "snr-ps-inf": (lambda: snr(problem().stats, np.inf, np.ones(2)), "Ps must be positive and finite"),
    "powers-ps-nan": (lambda: powers(problem().stats, np.nan, np.ones(2)),
                      "Ps must be positive and finite"),
    "powers-ps-inf": (lambda: powers(problem().stats, np.inf, np.ones(2)),
                      "Ps must be positive and finite"),
    # one weight is not broadcast over three relays
    "powers-w-length": (lambda: powers(problem(3).stats, 1.0, [1.0]), "w has length 1, expected 3"),
    "snr-w-length": (lambda: snr(problem().stats, 1.0, np.ones(3)), "w has length 3, expected 2"),
    "snr-w-length-vectors": (lambda: snr(build_stats(RicianParams(f_mean=[1, 1], f_var=[1, 1],
                                                                  g_mean=[1, 1], g_var=[1, 1])),
                                         1.0, np.ones(3)), "w has length 3, expected 2"),
    # weights are a finite numeric 1-D vector: no string, no matrix, no NaN or inf
    "snr-w-str": (lambda: snr(problem().stats, 1.0, "ab"),
                  "w must be a vector of numbers, got 'ab'"),
    "snr-w-mixed": (lambda: snr(problem().stats, 1.0, [1, "x"]),
                    r"w must be a vector of numbers, got \[1, 'x'\]"),
    "snr-w-matrix": (lambda: snr(problem(4).stats, 1.0, np.ones((2, 2))),
                     r"w must be a vector of numbers, got array\(\[\[1"),
    "snr-w-nan": (lambda: snr(problem().stats, 1.0, [1.0, np.nan]), "w contains non-finite"),
    "snr-w-inf": (lambda: snr(problem().stats, 1.0, [np.inf, 1.0]), "w contains non-finite"),
    "powers-w-str": (lambda: powers(problem().stats, 1.0, "ab"),
                     "w must be a vector of numbers, got 'ab'"),
    "powers-w-matrix": (lambda: powers(problem(4).stats, 1.0, np.ones((2, 2))),
                        r"w must be a vector of numbers, got array\(\[\[1"),
    "powers-w-nan": (lambda: powers(problem().stats, 1.0, [np.nan, 1.0]), "w contains non-finite"),
    "powers-w-inf": (lambda: powers(problem().stats, 1.0, [1.0, -np.inf]),
                     "w contains non-finite"),
}


@pytest.mark.parametrize("call,named", CASES.values(), ids=CASES.keys())
def test_input_check_names_the_field(call, named):
    with pytest.raises(InputError, match=named):
        call()


def test_package_namespace():
    assert sorted(relaybeam.__all__) == sorted([
        "ChannelStats", "RicianParams", "build_stats", "IndivPowerProblem",
        "TotalPowerProblem", "RelayBeamError", "InputError", "ConvergenceError",
        "ModelError"])
    for name in relaybeam.__all__:
        assert getattr(relaybeam, name).__name__ == name
    # the CLI's exit codes: 2, 3 and 4 (any other RelayBeamError)
    assert set(RelayBeamError.__subclasses__()) == {InputError, ConvergenceError, ModelError}
