"""Embedded six- and four-relay benchmark scenarios with reference values.

Two Rician total-power scenarios (defined through per-relay channel
parameters) and two individual-power scenarios (defined directly through
printed R and Q matrices with unit scale coefficients).  The total-power
reference values assume sigma^2 = 1 and P0 = 10; that assumption is
reported wherever these fixtures are used.
"""

from __future__ import annotations

import numpy as np

from .channel import RicianParams

TOTAL_ASSUMED_SIGMA2 = 1.0
TOTAL_ASSUMED_P0 = 10.0


_TOTAL_PARAMS = {
    1: dict(f_mean=[0.2202 + 0.8130j, -0.4075 - 0.7644j, -2.0107 + 0.4016j,
                    -0.4503 + 0.0678j, 0.8588 - 0.1130j, -0.1219 + 0.4260j],
            f_var=[3.8042, 2.6326, 4.7590, 0.4989, 1.2576, 1.2484],
            g_mean=[-0.3726 + 0.8007j, 0.4592 - 0.2045j, -0.8769 + 0.4671j,
                    -0.9270 + 0.5430j, -0.0063 - 0.4977j, -0.7783 - 0.7712j],
            g_var=[0.3913, 0.4791, 0.0865, 2.7813, 4.8960, 4.6789]),
    2: dict(f_mean=[-0.4751 + 0.7340j, -0.0449 - 0.4609j, 0.0239 - 1.5154j,
                    0.5130 - 0.1755j, -0.2017 + 0.6717j, 1.0134 - 0.1985j],
            f_var=[2.4707, 3.9193, 2.4121, 3.8879, 1.2050, 3.0901],
            g_mean=[0.5360 - 1.2932j, 1.7471 - 0.8914j, 0.0955 - 0.1577j,
                    -0.6795 + 0.2479j, 0.5815 + 0.5039j, -0.3090 + 0.8413j],
            g_var=[3.9655, 0.2693, 0.9205, 0.5567, 3.3901, 2.9367]),
}


def total_fixture(case: int) -> RicianParams:
    return RicianParams(**_TOTAL_PARAMS[case])


# expected values under the sigma^2 = 1, P0 = 10 assumption
TOTAL_EXPECT = {
    1: {
        "bracket": (0.1711, 0.7077),
        # (x, lambda_min) reached from x0 = x_l and x0 = x_u respectively
        "from_xl": (0.2156, 1.2191),
        "from_xu": (0.5844, 1.2694),
    },
    2: {
        "bracket": (0.2754, 0.6392),
        "from_xl": (0.4087, 0.6060),
        "from_xu": (0.4087, 0.6060),
    },
}
TOTAL_TOL = 5e-3


_INDIV_RQ = {   # n: (R, Q)
    4: ([[1.6, -.74 - .16j, .084 - .57j, -.19 + .67j],
         [-.74 + .16j, 1.1, -.88 + .31j, -.44 - .24j],
         [.084 + .57j, -.88 - .31j, 2.0, .20 - .14j],
         [-.19 - .67j, -.44 + .24j, .20 + .14j, 1.5]],
        [[2.1, .73 + .75j, .43 + 1.1j, .70 - .33j],
         [.73 - .75j, 1.6, -.20 + .18j, .57 - .71j],
         [.43 - 1.1j, -.20 - .18j, 2.0, -.52 - .45j],
         [.70 + .33j, .57 + .71j, -.52 + .45j, .98]]),
    6: ([[3.44, -.263 + .054j, .572 + 1.73j, .490 - .276j, -.613 - 1.62j, -.014 + .375j],
         [-.263 - .054j, 3.09, -.342 - 1.49j, .926 + 1.13j, -.282 - .713j, -.211 + .911j],
         [.572 - 1.73j, -.342 + 1.49j, 2.70, -.493 + .865j, -.396 + .826j, .149 - .836j],
         [.490 + .276j, .926 - 1.13j, -.493 - .865j, 3.09, .541 + .330j, -.552 - .221j],
         [-.613 + 1.62j, -.282 + .713j, -.396 - .826j, .541 - .330j, 2.75, -.442 - .352j],
         [-.014 - .375j, -.211 - .911j, .149 + .836j, -.552 + .221j, -.442 + .352j, 2.08]],
        [[.778, -.658 - .646j, .135 + .269j, -.273 + .005j, .088 - .261j, -.021 - .013j],
         [-.658 + .646j, 2.20, -.379 - 1.14j, .253 - .872j, -.337 + 1.02j, .444 - .035j],
         [.135 - .269j, -.379 + 1.14j, 2.0, .689 + .298j, -.547 - .160j, .373 + .693j],
         [-.273 - .005j, .253 + .872j, .689 - .298j, 1.0, -.655 + .192j, .132 - .107j],
         [.088 + .261j, -.337 - 1.02j, -.547 + .160j, -.655 - .192j, 2.40, -.721 - .276j],
         [-.021 + .013j, .444 + .035j, .373 - .693j, .132 + .107j, -.721 + .276j, 1.09]]),
}


def indiv_fixture(n: int):
    """Printed (R, Q) pairs; unit scale coefficients (Ps = sigma^2 = 1,
    D = I, P_k = 2) make every A_k = J_k + Q."""
    return tuple(np.array(M) for M in _INDIV_RQ[n])


INDIV_EXPECT = {
    4: {
        "sdp": 3.74112,
        "x_eigs": (0.2064, 1.8148),
        "cdm": 3.7076,
        "pnorm": 3.7069,
        "grp": 3.6970,
        "grp_tol": 0.02,
    },
    6: {
        "sdp": 9.33816,
        "x_eigs": (0.8369, 2.3774),
        "cdm": 8.9428,
        "pnorm": 8.9409,
        "grp": 8.1472,
        "grp_tol": 0.03,
    },
}
INDIV_TOL = 0.02           # relative, for sdp/eigs/cdm/pnorm
GRP_SAMPLES = 10 ** 6
PNORM_P = 1024
CDM_OVER_GRP_MIN = 1.07    # required coordinate-descent advantage on n=6
