"""Every input check of the library raises InputError naming the field,
and the package namespace holds the problem inputs and the error classes."""

import numpy as np
import pytest

import relaybeam
from relaybeam.channel import ChannelStats, RicianParams, build_stats, powers, snr
from relaybeam.errors import ConvergenceError, InputError, ModelError, RelayBeamError
from relaybeam.indiv_search import build_pnorm_embedding, coordinate_descent
from relaybeam.linalg import check_vector, hermitian
from relaybeam.problems import IndivPowerProblem

I2 = np.eye(2)


def problem(n=2):
    stats = ChannelStats(D=np.ones(n), R=np.eye(n), Q=np.eye(n), sigma2=1.0)
    return IndivPowerProblem(stats=stats, Ps=1.0, P=np.ones(n))


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
    "stats-sizes": (lambda: ChannelStats(D=np.ones(3), R=I2, Q=I2, sigma2=1.0), "D, R, Q"),
    "stats-r-not-psd": (lambda: ChannelStats(D=np.ones(2), R=np.diag([1.0, -1.0]), Q=I2,
                                             sigma2=1.0), "R is not PSD"),
    "stats-q-not-psd": (lambda: ChannelStats(D=np.ones(2), R=I2, Q=np.diag([1.0, -1.0]),
                                             sigma2=1.0), "Q is not PSD"),
    "cap-count": (lambda: IndivPowerProblem(stats=problem().stats, Ps=1.0, P=np.ones(3)),
                  "P must hold one power cap per relay"),
    "hermitian-not-square": (lambda: hermitian(np.ones((2, 3)), name="Q"), "Q must be square"),
    "vector-empty": (lambda: check_vector([], name="f_mean"), "f_mean must have length"),
    "vector-non-finite": (lambda: check_vector([1.0, np.nan], name="g_mean"),
                          "g_mean contains non-finite"),
    "cdm-w0-length": (lambda: coordinate_descent(problem(), np.ones(3)), "w0 has length 3"),
    "pnorm-p": (lambda: build_pnorm_embedding(problem(), 0), "p must be >= 1"),
    "pnorm-p-fraction": (lambda: build_pnorm_embedding(problem(), 2.5),
                         "p must be an integer, got 2.5"),
    "snr-ps-nan": (lambda: snr(problem().stats, np.nan, np.ones(2)), "Ps must be positive and finite"),
    "snr-ps-inf": (lambda: snr(problem().stats, np.inf, np.ones(2)), "Ps must be positive and finite"),
    "powers-ps-nan": (lambda: powers(problem().stats, np.nan, np.ones(2)),
                      "Ps must be positive and finite"),
    "powers-ps-inf": (lambda: powers(problem().stats, np.inf, np.ones(2)),
                      "Ps must be positive and finite"),
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
