"""Every input check of the library raises InputError naming the field,
and the package namespace holds the problem inputs and the error classes."""

import dataclasses
import functools
import importlib
import inspect
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaybeam
from relaybeam import cli, fixtures, indiv_diag, indiv_qcqp, sdp, total_power
from relaybeam.channel import ChannelStats, RicianParams, build_stats, powers, snr
from relaybeam.errors import ConvergenceError, InputError, RelayBeamError
from relaybeam.indiv_search import augmented_lagrangian_solve, choose_p, coordinate_descent
from relaybeam.linalg import check_vector, hermitian
from relaybeam.oracle import brute_force_indiv, brute_force_total
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem

I2 = np.eye(2)


def problem(n=2):
    stats = ChannelStats(D=np.ones(n), R=np.eye(n), Q=np.eye(n), sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=np.ones(n))


def fixture_qcqp(n=4):
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    return indiv_qcqp.build_qcqp(IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0)))


def rician(**given):
    """Two-relay Rician parameters, with the fields in ``given`` replaced."""
    return RicianParams(**{"f_mean": [1, 0.5j], "f_var": [0.5, 1], "g_mean": [1, 1],
                           "g_var": [0.2, 0.3], **given})


def total_problem():
    return TotalPowerProblem(stats=build_stats(rician()), P0=10.0)


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
    "stats-sizes": (lambda: ChannelStats(D=np.ones(3), R=I2, Q=I2, sigma2=1.0),
                    r"R must be 3 x 3, got shape \(2, 2\)"),
    "stats-r-not-psd": (lambda: ChannelStats(D=np.ones(2), R=np.diag([1.0, -1.0]), Q=I2,
                                             sigma2=1.0), "R is not PSD"),
    "stats-q-not-psd": (lambda: ChannelStats(D=np.ones(2), R=I2, Q=np.diag([1.0, -1.0]),
                                             sigma2=1.0), "Q is not PSD"),
    "cap-count": (lambda: IndivPowerProblem(stats=problem().stats, Ps=1.0, P=np.ones(3)),
                  "P has length 3, expected 2"),
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
    # one rule for a numerically zero X on both extractions
    "rank-one-x-zero": (lambda: indiv_qcqp.rank_one_decompose(
                            np.zeros((3, 3)), indiv_qcqp.build_qcqp(problem(3))),
                        "X is numerically zero"),
    "grp-x-zero": (lambda: indiv_qcqp.grp_extract(np.zeros((4, 4)), fixture_qcqp(), 10, 0),
                   "X is numerically zero"),
    "cdm-w0-length": (lambda: coordinate_descent(problem(), np.ones(3)), "w0 has length 3"),
    "al-w0-nan": (lambda: augmented_lagrangian_solve(problem(), 8, w0=[np.nan, 1.0]),
                  "w0 contains non-finite entries"),
    "al-w0-inf": (lambda: augmented_lagrangian_solve(problem(), 8, w0=[1.0, np.inf]),
                  "w0 contains non-finite entries"),
    "al-p-zero": (lambda: augmented_lagrangian_solve(problem(), 0),
                  "p must be an integer >= 1, got 0"),
    "pnorm-p-fraction": (lambda: augmented_lagrangian_solve(problem(), 2.5),
                         "p must be an integer >= 1, got 2.5"),
    "pnorm-p-bool": (lambda: augmented_lagrangian_solve(problem(), True),
                     "p must be an integer >= 1, got True"),
    "choose-p-zero": (lambda: choose_p(0), "n must be an integer >= 1, got 0"),
    # a per-relay option given to the library is checked, not replaced
    "solve-p-zero": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"p": 0}),
                     "p must be an integer >= 1, got 0"),
    "solve-p-bool": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"p": True}),
                     "p must be an integer >= 1, got True"),
    "solve-fallback": (lambda: indiv_qcqp.solve(problem(), "sdp", {"fallback": "bogus"}),
                       r"unknown fallback 'bogus'; choose one of \('cdm', 'pnorm'\)"),
    # ... whatever the route reads
    "solve-pnorm-eps": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"eps": -1.0}),
                        "eps must be a positive number, got -1.0"),
    "solve-grp-eps": (lambda: indiv_qcqp.solve(problem(), "grp", {"eps": 0}),
                      "eps must be a positive number, got 0"),
    "solve-cdm-samples": (lambda: indiv_qcqp.solve(problem(), "cdm", {"samples": 0}),
                          "samples must be an integer >= 1, got 0"),
    "solve-pnorm-samples": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"samples": 0}),
                            "samples must be an integer >= 1, got 0"),
    "solve-sdp-w0": (lambda: indiv_qcqp.solve(problem(), "sdp", {"w0": np.ones(3)}),
                     "w0 has length 3, expected 2"),
    # ... and its type: a bool, a string or an array is no number
    "solve-eps-bool": (lambda: indiv_qcqp.solve(problem(), "cdm", {"eps": True}),
                       "eps must be a positive number, got True"),
    "solve-eps-str": (lambda: indiv_qcqp.solve(problem(), "cdm", {"eps": "x"}),
                      "eps must be a positive number, got 'x'"),
    "solve-eps-list": (lambda: indiv_qcqp.solve(problem(), "cdm", {"eps": [1e-3]}),
                       r"eps must be a positive number, got \[0.001\]"),
    "solve-p-str": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"p": "4"}),
                    "p must be an integer >= 1, got '4'"),
    "solve-p-array": (lambda: indiv_qcqp.solve(problem(), "pnorm", {"p": np.array([4])}),
                      r"p must be an integer >= 1, got array\(\[4\]\)"),
    "solve-w0-str": (lambda: indiv_qcqp.solve(problem(), "cdm", {"w0": "abc"}),
                     "w0 must be a vector of numbers, got 'abc'"),
    "snr-ps-nan": (lambda: snr(problem().stats, np.nan, np.ones(2)),
                   "Ps must be a positive number, got nan"),
    "snr-ps-inf": (lambda: snr(problem().stats, np.inf, np.ones(2)),
                   "Ps must be a positive number, got inf"),
    "powers-ps-nan": (lambda: powers(problem().stats, np.nan, np.ones(2)),
                      "Ps must be a positive number, got nan"),
    "powers-ps-inf": (lambda: powers(problem().stats, np.inf, np.ones(2)),
                      "Ps must be a positive number, got inf"),
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
    # a scalar is a real number of its kind, never a string, None, a bool, a
    # complex number or an array of rank >= 1; a real vector takes no complex entry
    "rician-g-var-str": (lambda: rician(g_var="abc"),
                         "g_var must be a vector of nonnegative numbers, got 'abc'"),
    "rician-f-var-matrix": (lambda: rician(f_var=np.ones((2, 1))),
                            r"f_var must be a vector of nonnegative numbers, got array\(\[\[1"),
    "rician-f-var-complex": (lambda: rician(f_var=[1 + 1j, 1]),
                             r"f_var must be a vector of nonnegative numbers, got \[\(1\+1j\), 1\]"),
    "stats-d-str": (lambda: ChannelStats(D="abc", R=I2, Q=I2),
                    "D must be a vector of nonnegative numbers, got 'abc'"),
    "stats-d-matrix": (lambda: ChannelStats(D=np.ones((2, 1)), R=I2, Q=I2),
                       r"D must be a vector of nonnegative numbers, got array\(\[\[1"),
    "stats-r-str": (lambda: ChannelStats(D=np.ones(2), R="abc", Q=I2),
                    "R must be a matrix of numbers, got 'abc'"),
    "stats-sigma2-str": (lambda: ChannelStats(D=np.ones(2), R=I2, Q=I2, sigma2="1"),
                         "sigma2 must be a positive number, got '1'"),
    "stats-sigma2-none": (lambda: ChannelStats(D=np.ones(2), R=I2, Q=I2, sigma2=None),
                          "sigma2 must be a positive number, got None"),
    "stats-sigma2-bool": (lambda: ChannelStats(D=np.ones(2), R=I2, Q=I2, sigma2=True),
                          "sigma2 must be a positive number, got True"),
    "build-stats-sigma2-bool": (lambda: build_stats(rician(), True),
                                "sigma2 must be a positive number, got True"),
    # numeric strings are refused, as the constructors refuse them
    "build-stats-sigma2-str": (lambda: build_stats(rician(), "1"),
                               "sigma2 must be a positive number, got '1'"),
    "total-stats-none": (lambda: TotalPowerProblem(stats=None, P0=1.0),
                         "stats must be a ChannelStats, got a NoneType"),
    "total-p0-str": (lambda: TotalPowerProblem(stats=problem().stats, P0="1"),
                     "P0 must be a positive number, got '1'"),
    "total-p0-none": (lambda: TotalPowerProblem(stats=problem().stats, P0=None),
                      "P0 must be a positive number, got None"),
    "total-p0-bool": (lambda: TotalPowerProblem(stats=problem().stats, P0=True),
                      "P0 must be a positive number, got True"),
    "total-p0-array": (lambda: TotalPowerProblem(stats=problem().stats, P0=np.array([1.0])),
                       r"P0 must be a positive number, got array\(\[1\.\]\)"),
    # an int past float64 is no finite float
    "total-p0-huge-int": (lambda: TotalPowerProblem(stats=problem().stats, P0=10 ** 400),
                          "P0 must be a positive number, got 1000"),
    "indiv-ps-str": (lambda: IndivPowerProblem(stats=problem().stats, Ps="1", P=np.ones(2)),
                     "Ps must be a positive number, got '1'"),
    "indiv-ps-bool": (lambda: IndivPowerProblem(stats=problem().stats, Ps=True, P=np.ones(2)),
                      "Ps must be a positive number, got True"),
    "indiv-ps-complex": (lambda: IndivPowerProblem(stats=problem().stats, Ps=1 + 0j, P=np.ones(2)),
                         r"Ps must be a positive number, got \(1\+0j\)"),
    "indiv-p-str": (lambda: IndivPowerProblem(stats=problem().stats, Ps=1.0, P="ab"),
                    "P must be a vector of positive numbers, got 'ab'"),
    "indiv-p-matrix": (lambda: IndivPowerProblem(stats=problem().stats, Ps=1.0, P=np.ones((1, 2))),
                       r"P must be a vector of positive numbers, got array\(\[\[1"),
    "indiv-p-complex": (lambda: IndivPowerProblem(stats=problem().stats, Ps=1.0, P=[1, 1j]),
                        r"P must be a vector of positive numbers, got \[1, 1j\]"),
    "snr-ps-str": (lambda: snr(problem().stats, "1", np.ones(2)),
                   "Ps must be a positive number, got '1'"),
    "snr-stats-none": (lambda: snr(None, 1.0, np.ones(2)),
                       "stats must be a ChannelStats, got a NoneType"),
    "newton-x0-str": (lambda: total_power.newton_solve(total_problem(), "0.5"),
                      "x0 must be a number, got '0.5'"),
    "lambda-min-g-x-str": (lambda: total_power.lambda_min_g(
                               total_power.build_s_pair(total_problem()), "0.5"),
                           "x must be a number, got '0.5'"),
    "solve-options-str": (lambda: indiv_qcqp.solve(problem(), "auto", "abc"),
                          "options must be a dict or None, got 'abc'"),
    # the seed is checked on every route, before the relaxation is solved
    "solve-sdp-seed-str": (lambda: indiv_qcqp.solve(problem(), "sdp", None, seed="x"),
                           "seed must be a non-negative integer below 2\\*\\*64, got 'x'"),
    "qcqp-objective-w-str": (lambda: indiv_qcqp.qcqp_objective(fixture_qcqp(), "ab"),
                             "w must be a vector of numbers, got 'ab'"),
    "oracle-points-str": (lambda: brute_force_total(total_problem(), "100"),
                          "points must be an integer >= 1, got '100'"),
    "oracle-points-fraction": (lambda: brute_force_total(total_problem(), 10.5),
                               "points must be an integer >= 1, got 10.5"),
    "slacks-w-str": (lambda: problem().slacks("ab"), "w must be a vector of numbers, got 'ab'"),
    # a weight vector to rescale is checked before its zero test
    "rescale-w-nan": (lambda: indiv_qcqp.rescale_to_original(
                          [np.nan, 1, 1], indiv_qcqp.build_qcqp(problem(3)), problem(3)),
                      "w contains non-finite entries"),
    "rescale-w-inf": (lambda: indiv_qcqp.rescale_to_original(
                          [np.inf, 1, 1], indiv_qcqp.build_qcqp(problem(3)), problem(3)),
                      "w contains non-finite entries"),
    "rescale-w-length": (lambda: indiv_qcqp.rescale_to_original(
                             [1, 1], indiv_qcqp.build_qcqp(problem(3)), problem(3)),
                         "w has length 2, expected 3"),
    # an option key the routes do not read is refused, not ignored
    "solve-grp-unknown-option": (lambda: indiv_qcqp.solve(problem(), "grp", {"sample": 100}),
                                 "unknown option 'sample'; known options: samples, eps, p, w0, "
                                 "fallback"),
    "solve-cdm-unknown-option": (lambda: indiv_qcqp.solve(problem(), "cdm", {"epsilon": 0.5}),
                                 "unknown option 'epsilon'"),
    "solve-unknown-option-key": (lambda: indiv_qcqp.solve(problem(), "auto", {1: 2}),
                                 "unknown option 1"),
    # a problem or parameter object of another type
    "build-stats-none": (lambda: build_stats(None), "p must be a RicianParams, got a NoneType"),
    "total-solve-none": (lambda: total_power.solve(None),
                         "p must be a TotalPowerProblem, got a NoneType"),
    "newton-none": (lambda: total_power.newton_solve(None, 0.5),
                    "p must be a TotalPowerProblem, got a NoneType"),
    "indiv-solve-none": (lambda: indiv_qcqp.solve(None),
                         "p must be an IndivPowerProblem, got a NoneType"),
    "indiv-diag-none": (lambda: indiv_diag.solve_diagonal(None),
                        "p must be an IndivPowerProblem, got a NoneType"),
    "relaxation-none": (lambda: sdp.solve_relaxation(None),
                        "q must be a QcqpInstance, got a NoneType"),
    # the certificate is read against the solution's own q
    "certificate-sol-none": (lambda: sdp.dual_certificate_residuals(None),
                             "sol must be a SdpSolution, got a NoneType"),
    "oracle-grid-str": (lambda: brute_force_indiv(problem(), "x"),
                        "radial_points must be an integer >= 1, got 'x'"),
    "oracle-angular-zero": (lambda: brute_force_indiv(problem(), angular_points=0),
                            "angular_points must be an integer >= 1, got 0"),
    "oracle-total-none": (lambda: brute_force_total(None),
                          "p must be a TotalPowerProblem, got a NoneType"),
    # ... at the lower-level entries too
    "build-qcqp-none": (lambda: indiv_qcqp.build_qcqp(None),
                        "p must be an IndivPowerProblem, got a NoneType"),
    "solve-via-sdp-none": (lambda: indiv_qcqp.solve_via_sdp(None),
                           "p must be an IndivPowerProblem, got a NoneType"),
    "grp-q-none": (lambda: indiv_qcqp.grp_extract(np.eye(4), None, 10, 0),
                   "q must be a QcqpInstance, got a NoneType"),
    "rank-one-q-none": (lambda: indiv_qcqp.rank_one_decompose(np.eye(3), None),
                        "q must be a QcqpInstance, got a NoneType"),
    "qcqp-objective-q-none": (lambda: indiv_qcqp.qcqp_objective(None, [1, 1]),
                              "q must be a QcqpInstance, got a NoneType"),
    "rescale-q-none": (lambda: indiv_qcqp.rescale_to_original([1, 1], None, problem()),
                       "q must be a QcqpInstance, got a NoneType"),
    "solve-relaxation-q-none": (lambda: indiv_qcqp.solve(
                                    problem(), "sdp", None, 0,
                                    dataclasses.replace(indiv_qcqp.solve_via_sdp(problem())[1],
                                                        q=None)),
                                "the relaxation's q must be a QcqpInstance, got a NoneType"),
    # solve's relaxation is one SdpSolution, which carries its own q
    "solve-relaxation-pair": (lambda: indiv_qcqp.solve(
                                  problem(), "sdp", None, 0, indiv_qcqp.solve_via_sdp(problem())[:2]),
                              "relaxation must be a SdpSolution, got a tuple"),
    "solve-grp-relaxation-qcqp": (lambda: indiv_qcqp.solve(
                                      problem(), "grp", {"samples": 10}, 0,
                                      indiv_qcqp.build_qcqp(problem())),
                                  "relaxation must be a SdpSolution, got a QcqpInstance"),
    "solve-relaxation-x-size": (lambda: indiv_qcqp.solve(
                                    problem(), "sdp", None, 0, indiv_qcqp.solve_via_sdp(problem(3))[1]),
                                "the relaxation's X must be 2 x 2, got shape"),
    # ... on every route, the ones that do not read it too
    "solve-cdm-relaxation-tuple": (lambda: indiv_qcqp.solve(problem(), "cdm", None, 0, ("junk",)),
                                   "relaxation must be a SdpSolution, got a tuple"),
    "solve-pnorm-relaxation-x-nan": (lambda: indiv_qcqp.solve(
                                         problem(), "pnorm", None, 0, dataclasses.replace(
                                             indiv_qcqp.solve_via_sdp(problem())[1],
                                             X=np.full((2, 2), np.nan))),
                                     "the relaxation's X contains non-finite entries"),
    "solve-indiv-diag-relaxation-other-p": (lambda: indiv_qcqp.solve(
                                                problem(), "indiv-diag", None, 0,
                                                indiv_qcqp.solve_via_sdp(dataclasses.replace(
                                                    problem(), P=np.full(2, 5.0)))[1]),
                                            "the relaxation's q does not pose p"),
    "rescale-p-none": (lambda: indiv_qcqp.rescale_to_original(
                           [1, 1], indiv_qcqp.build_qcqp(problem()), None),
                       "p must be an IndivPowerProblem, got a NoneType"),
    "s-pair-none": (lambda: total_power.build_s_pair(None),
                    "p must be a TotalPowerProblem, got a NoneType"),
    "bracket-none": (lambda: total_power.bracket_x(None),
                     "s must be a SPair or a RicianPair, got a NoneType"),
    "lambda-min-g-none": (lambda: total_power.lambda_min_g(None, 0.5),
                          "s must be a SPair or a RicianPair, got a NoneType"),
    "lambda-min-g-problem": (lambda: total_power.lambda_min_g(total_problem(), 0.5),
                             "s must be a SPair or a RicianPair, got a TotalPowerProblem"),
    "total-diagonal-none": (lambda: total_power.solve_diagonal(None),
                            "p must be a TotalPowerProblem, got a NoneType"),
    "as-beamforming-p-none": (lambda: total_power.as_beamforming_solution(
                                  None, total_power.solve(total_problem())),
                              "p must be a TotalPowerProblem, got a NoneType"),
    "as-beamforming-sol-none": (lambda: total_power.as_beamforming_solution(total_problem(), None),
                                "sol must be a TotalPowerSolution, got a NoneType"),
    "al-prob-none": (lambda: augmented_lagrangian_solve(None, 8),
                     "prob must be an IndivPowerProblem, got a NoneType"),
    # the CLI's Python entry points: open(0) would read the scenario from stdin and close fd 0
    "cli-path-int": (lambda: parse_fd_0(), "path must be a str or a PathLike, got a int"),
    "cli-out-dir-int": (lambda: cli.reproduce("total-1", out_dir=3),
                        "out_dir must be a str or a PathLike, got a int"),
    # any out_dir but None is a directory, a falsy one too
    "cli-out-dir-zero": (lambda: cli.reproduce("total-1", out_dir=0),
                         "out_dir must be a str or a PathLike, got a int"),
    "cli-out-dir-empty": (lambda: cli.reproduce("total-1", out_dir=""),
                          "cannot use out_dir '' as a directory"),
    "cli-run-none": (lambda: cli.run(None), "s must be a Scenario, got a NoneType"),
}


def parse_fd_0():
    """cli.parse_scenario(0), then a check that fd 0 is still open (os.fstat raises if not)."""
    try:
        cli.parse_scenario(0)
    finally:
        os.fstat(0)


@pytest.mark.parametrize("call,named", CASES.values(), ids=CASES.keys())
def test_input_check_names_the_field(call, named):
    with pytest.raises(InputError, match=named):
        call()


# the modules whose public functions make up the library's API
API_MODULES = ("channel", "total_power", "sdp", "indiv_qcqp", "indiv_search", "indiv_diag",
               "oracle", "cli")
NONE_EXEMPT = {
    # it has no required argument, and called with none it parses sys.argv
    # (here pytest's own command line)
    "cli.main",
    # bench/selftest.py's check that a failing benchmark probe is counted
    # calls coordinate_descent(None, None) and pins its AttributeError
    # (ROADMAP item 7)
    "indiv_search.coordinate_descent",
    # every caller passes an X that it checked with linalg.hermitian or built
    # itself; a check here would add an O(n^2) pass to every relaxation
    "sdp.range_eigh",
}


def public_functions():
    for short in API_MODULES:
        mod = importlib.import_module(f"relaybeam.{short}")
        for name, fn in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield f"{short}.{name}", fn


def test_public_function_refuses_none():
    # each public function, given None for every argument without a default,
    # raises InputError: no malformed input escapes as a bare Python error
    seen = set()
    for name, fn in public_functions():
        seen.add(name)
        if name in NONE_EXEMPT:
            continue
        required = [q.name for q in inspect.signature(fn).parameters.values()
                    if q.default is q.empty and q.kind not in (q.VAR_POSITIONAL, q.VAR_KEYWORD)]
        with pytest.raises(InputError):
            fn(**dict.fromkeys(required))
    assert NONE_EXEMPT <= seen
    assert {"indiv_search.coordinate_descent", "indiv_search.augmented_lagrangian_solve",
            "indiv_search.choose_p"} == {n for n in seen if n.startswith("indiv_search.")}


def test_package_namespace():
    assert sorted(relaybeam.__all__) == sorted([
        "ChannelStats", "RicianParams", "build_stats", "IndivPowerProblem",
        "TotalPowerProblem", "RelayBeamError", "InputError", "ConvergenceError"])
    for name in relaybeam.__all__:
        assert getattr(relaybeam, name).__name__ == name
    # the CLI's exit codes 2 and 3; no signal (R = 0) is no error
    assert set(RelayBeamError.__subclasses__()) == {InputError, ConvergenceError}



# what a caller may pass by mistake: None, a bool, a string or bytes, a nested
# or ragged list, a 0-d or 2-d array, NaN, +-inf, a complex number where a real
# one is expected, or a number out of range; a few of them are valid somewhere
_ENTRY = st.sampled_from([0.0, 0.5, 1.0, -1.0, np.nan, np.inf, -np.inf, 1j])
MALFORMED = st.one_of(
    st.sampled_from([None, True, False, "", "1", "ab", b"1", 0, -1, 3, 2.5, -0.5, np.nan,
                     np.inf, -np.inf, 1j, 1 + 0j, np.float64(np.nan), np.complex128(1),
                     np.bool_(True), np.array(0.5), np.array(np.nan), np.array(True),
                     np.array(1j), np.array("1"), np.array(None), [1, "x"], [1, None],
                     [[1.0], [1.0, 2.0]], [], {}]),
    st.lists(st.one_of(_ENTRY, st.lists(_ENTRY, max_size=2)), max_size=3),
    st.lists(_ENTRY, min_size=1, max_size=3).map(np.array),
    st.lists(st.lists(_ENTRY.filter(np.isfinite), min_size=2, max_size=2), min_size=1,
             max_size=2).map(np.array),
)


@functools.cache
def grp_instance():
    """The rank-two relaxation of the four-relay fixture, and its QCQP."""
    R, Q = fixtures.indiv_fixture(4)
    p = IndivPowerProblem(stats=ChannelStats(D=np.ones(4), R=R, Q=Q), Ps=1.0, P=np.full(4, 2.0))
    q, sol, _ = indiv_qcqp.solve_via_sdp(p)
    return {"X": sol.X, "q": q}


def diagonal_problem():
    stats = ChannelStats(D=[1, 2], R=np.diag([1.0, 2.0]), Q=np.diag([0.5, 1.0]))
    return IndivPowerProblem(stats=stats, Ps=1.0, P=[1, 1])


def solve_with(options=None, seed=0, **option):
    """indiv_qcqp.solve on a diagonal problem with ``options``, or with the one ``option``."""
    return indiv_qcqp.solve(diagonal_problem(), "auto", option or options, seed)


# entry point: (the call, its valid arguments by name, the arguments its checks cover)
ENTRIES = {
    "RicianParams": (rician, dict, ("f_mean", "f_var", "g_mean", "g_var")),
    "ChannelStats": (ChannelStats, lambda: {"D": [1, 2], "R": I2, "Q": I2, "sigma2": 1.0},
                     ("D", "R", "Q", "sigma2")),
    "build_stats": (build_stats, lambda: {"p": rician(), "sigma2": 1.0}, ("p", "sigma2")),
    "TotalPowerProblem": (TotalPowerProblem, lambda: {"stats": problem().stats, "P0": 1.0},
                          ("stats", "P0")),
    "IndivPowerProblem": (IndivPowerProblem,
                          lambda: {"stats": problem().stats, "Ps": 1.0, "P": [1, 2]},
                          ("stats", "Ps", "P")),
    "snr": (snr, lambda: {"stats": problem().stats, "Ps": 1.0, "w": [1, 1j]},
            ("stats", "Ps", "w")),
    "powers": (powers, lambda: {"stats": problem().stats, "Ps": 1.0, "w": [1, 1j]},
               ("stats", "Ps", "w")),
    "newton_solve": (total_power.newton_solve, lambda: {"p": total_problem(), "x0": 0.5},
                     ("p", "x0")),
    "lambda_min_g": (total_power.lambda_min_g,
                     lambda: {"s": total_power.build_s_pair(total_problem()), "x": 0.5},
                     ("s", "x")),
    "indiv_qcqp.solve": (solve_with, dict,
                         ("options", "seed", "eps", "samples", "p", "w0", "fallback")),
    "grp_extract": (indiv_qcqp.grp_extract, lambda: {**grp_instance(), "samples": 10, "seed": 0},
                    ("q", "samples", "seed")),
    "coordinate_descent": (coordinate_descent,
                           lambda: {"p": diagonal_problem(), "w0": [1, 1], "eps": 1e-3},
                           ("w0", "eps")),
    "choose_p": (choose_p, lambda: {"n": 4}, ("n",)),
    "augmented_lagrangian_solve": (augmented_lagrangian_solve,
                                   lambda: {"prob": problem(), "p": 4, "w0": [1, 1j]},
                                   ("prob", "p", "w0")),
    "brute_force_indiv": (brute_force_indiv,
                          lambda: {"p": problem(), "radial_points": 3, "angular_points": 2},
                          ("p", "radial_points", "angular_points")),
    "brute_force_total": (brute_force_total, lambda: {"p": total_problem(), "points": 10},
                          ("p", "points")),
    "rescale_to_original": (indiv_qcqp.rescale_to_original,
                            lambda: {"w_qcqp": [1, 1], "q": indiv_qcqp.build_qcqp(problem()),
                                     "p": problem()}, ("w_qcqp", "q", "p")),
}
ARGUMENT = {name: st.sampled_from(checked) for name, (_, _, checked) in ENTRIES.items()}


@settings(deadline=None, max_examples=200)
@given(bad=MALFORMED, data=st.data())
def test_malformed_argument_returns_or_raises_input_error(bad, data):
    # each entry point, given ``bad`` for one argument and valid values for the
    # others, returns or raises InputError
    for name, (call, valid, _) in ENTRIES.items():
        args = valid()
        args[data.draw(ARGUMENT[name], label=f"{name} argument")] = bad
        try:
            call(**args)
        except InputError:
            pass
