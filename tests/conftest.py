import numpy as np
import pytest

from relaybeam.channel import ChannelStats
from relaybeam.problems import IndivPowerProblem, TotalPowerProblem


def rand_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = scale * (A @ A.conj().T) / n
    return 0.5 * (H + H.conj().T)


def rand_pd(rng, n, scale=1.0, ridge=0.05):
    return rand_psd(rng, n, scale) + ridge * np.eye(n)


def rand_stats(rng, n, diagonal=False):
    if diagonal:
        R = np.diag(rng.uniform(0.1, 2.0, n)).astype(complex)
        Q = np.diag(rng.uniform(0.1, 2.0, n)).astype(complex)
    else:
        R = rand_pd(rng, n)
        Q = rand_pd(rng, n)
    D = rng.uniform(0.1, 2.0, n)
    return ChannelStats(D=D, R=R, Q=Q, sigma2=float(rng.uniform(0.5, 2.0)))


def rand_indiv_problem(rng, n, diagonal=False):
    stats = rand_stats(rng, n, diagonal=diagonal)
    return IndivPowerProblem(stats=stats, Ps=float(rng.uniform(0.5, 3.0)),
                             P=rng.uniform(0.5, 2.0, n))


def rand_total_problem(rng, n, diagonal=False):
    stats = rand_stats(rng, n, diagonal=diagonal)
    return TotalPowerProblem(stats=stats, P0=float(rng.uniform(2.0, 20.0)))


def scan_snr(stats, P0, points=1001, zooms=2):
    """Independent dense scan of the best total-power SNR over x = Ps/P0.

    For fixed x the relays spend (1-x) P0 and the best weights give
    (x P0/sigma^2) lambda_max(R, Q + (x P0 D + sigma^2 I)/((1-x) P0)); the
    grid is refined ``zooms`` times around its best point.
    """
    xs = np.linspace(0.0, 1.0, points + 2)[1:-1]
    best = -np.inf
    for _ in range(zooms + 1):
        bump = (xs[:, None] * P0 * stats.D + stats.sigma2) / ((1.0 - xs)[:, None] * P0)
        Li = np.linalg.inv(np.linalg.cholesky(stats.Q + bump[:, :, None] * np.eye(stats.n)))
        lam = np.linalg.eigvalsh(Li @ stats.R @ np.conj(np.swapaxes(Li, 1, 2)))[:, -1]
        vals = xs * P0 / stats.sigma2 * lam
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], points)
    return best


def degenerate_qcqp_instance(rng, n):
    """An individual-power instance whose SDP relaxation has a non-unique
    optimal face: R is a positive combination of the constraint matrices,
    so every fully-active feasible X is optimal and the interior-point
    limit has rank >= 2."""
    from relaybeam.indiv_qcqp import build_qcqp
    Q = rand_psd(rng, n)
    D = rng.uniform(0.1, 2.0, n)
    Ps = float(rng.uniform(0.5, 2.0))
    sigma2 = float(rng.uniform(0.5, 2.0))
    P = rng.uniform(0.5, 2.0, n)
    coeffs = (Ps * D + sigma2) / P
    y = rng.uniform(0.3, 1.5, n)
    R = y.sum() * Q + np.diag(y * coeffs)
    stats = ChannelStats(D=D, R=R, Q=Q, sigma2=sigma2)
    prob = IndivPowerProblem(stats=stats, Ps=Ps, P=P)
    return prob, build_qcqp(prob)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
