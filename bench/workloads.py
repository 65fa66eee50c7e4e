"""The three benchmark workloads: seeded input pools, the op each input
runs, and the benchmark's own checks of every op's output.

``load(name, seed, tmpdir)`` is the whole set-up of a workload: it imports
the relaybeam modules the workload's users import and generates the input
pool.  The worker times it from fresh interpreters to get ``setup_s``, so
it must stay the only set-up path.

The checks never reuse the library's formulas or solvers for the quantity
they check: the SNR, the power budget and the per-relay slacks are
recomputed here from the weights, the total-power optimum comes from a
dense scan of x over (0, 1), the diagonal optimum from a threshold scan,
and the SDP bound is accepted only after this module verifies the returned
dual vector with its own eigenvalue test.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("total-sweep", "indiv-sweep", "cli-paper")

TOTAL_NS = (4, 6, 16, 32, 64)
TOTAL_REGIMES = ("rayleigh", "rician", "near-los")
# regimes relaybeam rejects today (ROADMAP item 4): run every pass outside
# the timed loop and counted by exception class in the run record
TOTAL_DEFECT_REGIMES = ("los", "var-1e-9")
INDIV_NS = (3, 4, 6, 8, 12, 16)
# instances per stratum, sized so that a pool's cost and worst quality vary
# little from seed to seed; at n = 16 most general instances relax to rank
# two and add a CDM run of widely varying length, and the n = 16 stratum is
# kept near a tenth of the pool so the tail percentile falls inside it
TOTAL_PER_STRATUM = 4
INDIV_KINDS = {"general": 20, "rician": 4, "diagonal": 4}
INDIV_KINDS_N16 = {"general": 12, "rician": 3, "diagonal": 4}
INDIV_DEGENERATE_N3 = 2

TOTAL_SNR_RTOL = 1e-3      # Newton stops at a relative step of 1e-3
SLACK_RTOL = 1e-9
DUAL_RTOL = 1e-6


@dataclass
class Op:
    key: str                 # stable label, unique in the pool
    n: int
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one op returned, reduced to what the checks need."""

    route: str
    w: np.ndarray | None = None
    Ps: float = 0.0
    snr: float = 0.0
    dual_y: np.ndarray | None = None
    text: str = ""


@dataclass
class Check:
    ok: bool
    quality: float | None    # achieved objective over the reference
    detail: str = ""


class Workload:
    """A loaded workload: ``ops`` is the timed pool, ``defects`` the
    known-failing inputs run untimed after each pass."""

    name = ""

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self.ops: list[Op] = []
        self.defects: list[Op] = []

    def run(self, op: Op) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> Check:
        raise NotImplementedError

    def axis_probes(self):
        """(key, n, call) for traced runs at relay counts the pool lacks."""
        return []

    @staticmethod
    def same(a: Outcome, b: Outcome) -> bool:
        """Repeat runs of one input must give the same answer."""
        if a.route != b.route or a.text != b.text:
            return False
        if a.w is None or b.w is None:
            return a.w is b.w
        return bool(np.allclose(a.w, b.w, rtol=1e-9, atol=1e-12)
                    and abs(a.snr - b.snr) <= 1e-9 * max(abs(a.snr), 1e-300))


def load(name: str, seed: int, tmpdir: str) -> Workload:
    classes = {"total-sweep": TotalSweep, "indiv-sweep": IndivSweep,
               "cli-paper": CliPaper}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    return classes[name](seed, tmpdir)


# ---------------------------------------------------------------------------
# reference computations, written independently of relaybeam
# ---------------------------------------------------------------------------

def _cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _wishart(rng, n, rank=None):
    G = _cn(rng, (n, n if rank is None else rank))
    return G @ G.conj().T / G.shape[1]


def rician_stats(f_mean, f_var, g_mean, g_var):
    """(D, R, Q) of the Rician model: h_i = f_i g_i with independent f, g."""
    D = np.abs(f_mean) ** 2 + f_var
    Q = np.outer(g_mean, g_mean.conj()) + np.diag(g_var)
    R = (np.outer(f_mean, f_mean.conj()) + np.diag(f_var)) * Q
    return D, R, Q


def snr_of(R, Q, sigma2, Ps, w):
    w = np.asarray(w, dtype=complex)
    num = float(np.real(np.vdot(w, R @ w)))
    den = 1.0 + float(np.real(np.vdot(w, Q @ w)))
    return (Ps / sigma2) * num / den


def total_reference_snr(D, R, Q, sigma2, P0, grid=32, refine=40):
    """Best SNR over x = Ps/P0 by a dense scan plus golden-section refinement.

    For fixed x the relays spend (1-x)P0 in full and the best weights solve a
    generalized eigenproblem: with B = Ps D + sigma^2 (diagonal),
    SNR(x) = (Ps/sigma^2) lambda_max(Pr B^-1/2 R B^-1/2, I + Pr B^-1/2 Q B^-1/2).
    """
    n = D.size

    def at(x):
        Ps, Pr = x * P0, (1.0 - x) * P0
        s = 1.0 / np.sqrt(Ps * D + sigma2)
        M1 = Pr * R * np.outer(s, s)
        M2 = np.eye(n) + Pr * Q * np.outer(s, s)
        Li = np.linalg.inv(np.linalg.cholesky(M2))
        C = Li @ M1 @ Li.conj().T
        return (Ps / sigma2) * float(np.linalg.eigvalsh(0.5 * (C + C.conj().T))[-1])

    xs = np.linspace(0.0, 1.0, grid + 2)[1:-1]
    vals = [at(x) for x in xs]
    i = int(np.argmax(vals))
    a = xs[i - 1] if i > 0 else xs[0] * 1e-3
    b = xs[i + 1] if i + 1 < grid else 1.0 - (1.0 - xs[-1]) * 1e-3
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = at(c), at(d)
    for _ in range(refine):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = at(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = at(d)
    return max(vals[i], fc, fd)


def diagonal_reference_snr(r, q, caps2, sigma2, Ps):
    """Exact optimum for diagonal R, Q: the SNR is linear-fractional in
    t_k = |w_k|^2 on a box, so the best vertex switches relays on in
    decreasing order of r_k/q_k; scan every such prefix."""
    with np.errstate(divide="ignore"):
        ratio = np.where(q > 0, r / np.where(q > 0, q, 1.0), np.inf)
    order = np.argsort(-ratio, kind="stable")
    best, num, den = 0.0, 0.0, 1.0
    for k in order:
        num += r[k] * caps2[k]
        den += q[k] * caps2[k]
        best = max(best, (Ps / sigma2) * num / den)
    return best


def certified_sdp_bound(R, Q, c, y, w):
    """Upper bound on max_w w^H R w / max_k w^H A_k w from a dual vector y,
    with A_k = Q + c_k e_k e_k^H.  Returns (bound, lambda_min of
    sum_k y_k A_k - R); a slightly negative lambda_min is charged to the
    bound at the given w so the bound stays valid."""
    y = np.maximum(np.asarray(y, dtype=float), 0.0)
    Z = y.sum() * Q + np.diag(y * c) - R
    lam = float(np.linalg.eigvalsh(0.5 * (Z + Z.conj().T))[0])
    wq = float(np.real(np.vdot(w, Q @ w)))
    worst = float((wq + c * np.abs(w) ** 2).max())
    penalty = max(0.0, -lam) * float(np.vdot(w, w).real) / worst
    return float(y.sum()) + penalty, lam


def check_indiv_solution(D, R, Q, sigma2, Ps, P, out: Outcome, bound_y=None):
    """Feasibility, SNR consistency and quality of a per-relay-cap answer.

    ``bound_y`` is a dual vector certifying the SDP bound; without one the
    statistics must be diagonal and the exact threshold optimum is used.
    """
    w = np.asarray(out.w, dtype=complex)
    gain = Ps * D + sigma2
    slack = P - gain * np.abs(w) ** 2
    if slack.min() < -SLACK_RTOL * P.max():
        return Check(False, None, f"cap violated by {-slack.min():.3e}")
    achieved = snr_of(R, Q, sigma2, Ps, w)
    if abs(achieved - out.snr) > 1e-7 * max(abs(achieved), 1e-12):
        return Check(False, None, f"reported snr {out.snr} != {achieved}")
    if bound_y is None:
        ref = diagonal_reference_snr(np.diag(R).real, np.diag(Q).real,
                                     P / gain, sigma2, Ps)
        ratio = achieved / ref if ref > 0 else 1.0
        return Check(abs(ratio - 1.0) <= 1e-9, ratio, "diagonal optimum")
    c = gain / P
    bound, lam = certified_sdp_bound(R, Q, c, bound_y, w)
    scale = max(1.0, float(np.abs(R).max()))
    if lam < -DUAL_RTOL * scale:
        return Check(False, None, f"SDP dual infeasible: lambda_min {lam:.3e}")
    ratio = achieved / ((Ps / sigma2) * bound)
    return Check(0.0 < ratio <= 1.0 + 1e-7, ratio, "over certified SDP bound")


def check_total_solution(D, R, Q, sigma2, P0, out: Outcome, ref_snr):
    w = np.asarray(out.w, dtype=complex)
    if not 0.0 < out.Ps < P0:
        return Check(False, None, f"source power {out.Ps} outside (0, P0)")
    used = out.Ps + out.Ps * float(D @ np.abs(w) ** 2) + sigma2 * float(np.vdot(w, w).real)
    if abs(used - P0) > 1e-8 * P0:
        return Check(False, None, f"budget not saturated: {used} of {P0}")
    achieved = snr_of(R, Q, sigma2, out.Ps, w)
    if abs(achieved - out.snr) > 1e-7 * max(abs(achieved), 1e-12):
        return Check(False, None, f"reported snr {out.snr} != {achieved}")
    ratio = achieved / ref_snr
    return Check(ratio >= 1.0 - TOTAL_SNR_RTOL, ratio, "over dense x scan")


# ---------------------------------------------------------------------------
# total-sweep: Rician parameters -> build_stats -> total_power.solve
# ---------------------------------------------------------------------------

class TotalSweep(Workload):
    """Library API for the joint budget over n, fading regime and P0/sigma^2."""

    name = "total-sweep"

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.rb = importlib.import_module("relaybeam")
        self.total_power = importlib.import_module("relaybeam.total_power")
        rng = np.random.default_rng([seed, 1])
        for n in TOTAL_NS:
            for regime in TOTAL_REGIMES + TOTAL_DEFECT_REGIMES:
                # P0/sigma^2 stratified over 1e-2 .. 1e4
                for j in range(4):
                    reps = TOTAL_PER_STRATUM if regime in TOTAL_REGIMES else int(j == 0)
                    for rep in range(reps):
                        op = self._make(rng, n, regime, -2.0 + 1.5 * j, rep)
                        (self.ops if regime in TOTAL_REGIMES else self.defects).append(op)

    @staticmethod
    def _make(rng, n, regime, decade, rep):
        var = {"rician": None, "near-los": 1e-3, "los": 0.0, "var-1e-9": 1e-9}
        if regime == "rayleigh":
            f_mean = np.zeros(n, dtype=complex)
            g_mean = np.zeros(n, dtype=complex)
        else:
            f_mean, g_mean = _cn(rng, n), _cn(rng, n)
        if var.get(regime) is None:
            f_var, g_var = rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n)
        else:
            f_var, g_var = np.full(n, var[regime]), np.full(n, var[regime])
        sigma2 = float(rng.uniform(0.5, 2.0))
        P0 = sigma2 * 10.0 ** (decade + 1.5 * rng.uniform())
        return Op(key=f"n{n}/{regime}/{decade:+.1f}#{rep}", n=n,
                  data=dict(f_mean=f_mean, f_var=f_var, g_mean=g_mean, g_var=g_var,
                            sigma2=sigma2, P0=P0))

    def run(self, op):
        d = op.data
        params = self.rb.RicianParams(f_mean=d["f_mean"], f_var=d["f_var"],
                                      g_mean=d["g_mean"], g_var=d["g_var"])
        stats = self.rb.build_stats(params, d["sigma2"])
        prob = self.rb.TotalPowerProblem(stats=stats, P0=d["P0"])
        sol = self.total_power.solve(prob)
        bsol = self.total_power.as_beamforming_solution(prob, sol)
        return Outcome(route="closed-form" if sol.iterations == 0 else "newton",
                       w=bsol.w, Ps=bsol.Ps, snr=bsol.snr)

    def check(self, op, out):
        d = op.data
        D, R, Q = rician_stats(d["f_mean"], d["f_var"], d["g_mean"], d["g_var"])
        ref = total_reference_snr(D, R, Q, d["sigma2"], d["P0"])
        return check_total_solution(D, R, Q, d["sigma2"], d["P0"], out, ref)


# ---------------------------------------------------------------------------
# indiv-sweep: per-relay caps with the README's auto dispatch
# ---------------------------------------------------------------------------

class IndivSweep(Workload):
    """Library API for per-relay caps: diagonal statistics in closed form,
    otherwise the SDP relaxation with rank-one extraction or fallback."""

    name = "indiv-sweep"

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.rb = importlib.import_module("relaybeam")
        self.indiv_diag = importlib.import_module("relaybeam.indiv_diag")
        self.indiv_qcqp = importlib.import_module("relaybeam.indiv_qcqp")
        self.indiv_search = importlib.import_module("relaybeam.indiv_search")
        rng = np.random.default_rng([seed, 2])
        for n in INDIV_NS:
            counts = dict(INDIV_KINDS_N16 if n == 16 else INDIV_KINDS)
            if n == 3:
                counts["degenerate"] = INDIV_DEGENERATE_N3
            kinds = [kind for kind, c in counts.items() for _ in range(c)]
            for i, kind in enumerate(kinds):
                self.ops.append(Op(key=f"n{n}/{kind}#{i}", n=n,
                                   data=indiv_instance(rng, n, kind)))

    def run(self, op):
        return solve_indiv_auto(self, op.data)

    def axis_probes(self):
        """The SDP at n = 32 and CDM from R's top eigenvector at n = 16, 32
        and 64 (an n = 64 SDP takes about 10 s)."""
        rng = np.random.default_rng([self.seed, 4])

        def problem(n):
            d = indiv_instance(rng, n, "general")
            stats = self.rb.ChannelStats(D=d["D"], R=d["R"], Q=d["Q"], sigma2=d["sigma2"])
            return self.rb.IndivPowerProblem(stats=stats, Ps=d["Ps"], P=d["P"])

        probes = [("sdp/n32", 32, lambda: self.indiv_qcqp.solve_via_sdp(problem(32)))]
        for n in (16, 32, 64):
            def cdm(n=n):
                prob = problem(n)
                w0 = np.linalg.eigh(prob.stats.R)[1][:, -1]
                self.indiv_search.coordinate_descent(prob, w0)
            probes.append((f"cdm/n{n}", n, cdm))
        return probes

    def check(self, op, out):
        d = op.data
        return check_indiv_solution(d["D"], d["R"], d["Q"], d["sigma2"], d["Ps"],
                                    d["P"], out, out.dual_y)


def indiv_instance(rng, n, kind):
    """Per-relay-cap statistics of one kind, with random gains and caps."""
    D = rng.uniform(0.5, 2.0, n)
    Ps = float(10.0 ** rng.uniform(-0.5, 0.5))
    sigma2 = float(rng.uniform(0.5, 2.0))
    P = rng.uniform(0.5, 3.0, n)
    if kind == "general":
        R, Q = _wishart(rng, n), _wishart(rng, n)
    elif kind == "rician":
        D, R, Q = rician_stats(_cn(rng, n), rng.uniform(0.2, 2.0, n),
                               _cn(rng, n), rng.uniform(0.2, 2.0, n))
    elif kind == "diagonal":
        R = np.diag(rng.uniform(0.2, 3.0, n)).astype(complex)
        Q = np.diag(rng.uniform(0.2, 3.0, n)).astype(complex)
    elif kind == "degenerate":
        # R a positive combination of the constraint matrices: the optimal
        # face of the relaxation is not a point and the IPM returns rank >= 2
        Q = _wishart(rng, n)
        y = rng.uniform(0.3, 1.5, n)
        R = y.sum() * Q + np.diag(y * (Ps * D + sigma2) / P)
    else:
        raise ValueError(kind)
    return dict(D=D, R=R, Q=Q, sigma2=sigma2, Ps=Ps, P=P)


def solve_indiv_auto(wl, d):
    """The README's auto route, called through the public library API."""
    stats = wl.rb.ChannelStats(D=d["D"], R=d["R"], Q=d["Q"], sigma2=d["sigma2"])
    prob = wl.rb.IndivPowerProblem(stats=stats, Ps=d["Ps"], P=d["P"])
    if stats.is_diagonal():
        sol = wl.indiv_diag.solve_diagonal(prob)
        return Outcome(route="indiv-diag", w=sol.w, Ps=sol.Ps, snr=sol.snr)
    q, sdp_sol, w = wl.indiv_qcqp.solve_via_sdp(prob)
    if w is not None:
        route = "sdp-rank-one"
    elif prob.n <= 3:
        route = "rank-one-decomposition"
        w = wl.indiv_qcqp.rank_one_decompose(sdp_sol.X, q)
    else:
        vals, vecs = np.linalg.eigh(sdp_sol.X)
        w0 = np.sqrt(max(vals[-1], 0.0)) * vecs[:, -1]
        sol, _ = wl.indiv_search.coordinate_descent(prob, w0)
        return Outcome(route="cdm", w=sol.w, Ps=sol.Ps, snr=sol.snr,
                       dual_y=sdp_sol.dual_y)
    sol = wl.indiv_qcqp.rescale_to_original(w, q, prob)
    return Outcome(route=route, w=sol.w, Ps=sol.Ps, snr=sol.snr,
                   dual_y=sdp_sol.dual_y)


# ---------------------------------------------------------------------------
# cli-paper: relaybeam.cli.main(argv) in-process, stdout captured
# ---------------------------------------------------------------------------

REPRODUCE_CASES = ("total-1", "total-2", "indiv-n4", "indiv-n6")
SAMPLE_SCENARIOS = ("scenarios/total_rayleigh_n4.json",
                    "scenarios/individual_rician_n3.json")
# (solver, relay count) of the generated scenarios.  The two grp solves join
# reproduce indiv-n4/n6 in the GRP-heavy mode (about 1 s each).  The 22
# light ops are built around a dense cluster of total-power solves (3-6 ms)
# with the closed-form diagonal solves below it and the sdp, cdm, pnorm and
# Rician-sample solves (10-30 ms) above it.  A 4-pass run then has 104
# samples: p50 falls in the middle of that cluster rather than on a step
# between seed-dependent instances, and the tail, p90, falls among the n = 4
# heavy ops, away from both mode boundaries.
GENERATED = ((("sdp", 4), ("cdm", 6), ("pnorm", 4))
             + tuple(("indiv-diag", n) for n in (4, 5, 6, 8, 10, 12))
             + tuple(("total", n) for n in range(4, 13))
             + (("grp", 4), ("grp", 6)))


class CliPaper(Workload):
    """The CLI as users run it: reproduce the paper cases and solve files."""

    name = "cli-paper"

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.cli = importlib.import_module("relaybeam.cli")
        rng = np.random.default_rng([seed, 3])
        for case in REPRODUCE_CASES:
            self.ops.append(Op(key=f"reproduce/{case}", n=6 if case != "indiv-n4" else 4,
                               data=dict(argv=["reproduce", case])))
        for path in SAMPLE_SCENARIOS:
            with open(path) as fh:
                scen = json.load(fh)
            self.ops.append(Op(key=f"solve/{os.path.basename(path)}",
                               n=len(scen["channel"]["rician"]["f_var"]),
                               data=dict(argv=["solve", path], scenario=scen)))
        for i, (solver, n) in enumerate(GENERATED):
            scen = generated_scenario(rng, solver, n, seed)
            path = os.path.join(tmpdir, f"gen{i}-{solver}-n{n}.json")
            with open(path, "w") as fh:
                json.dump(scen, fh)
            self.ops.append(Op(key=f"solve/gen-{solver}-n{n}", n=n,
                               data=dict(argv=["solve", path], scenario=scen)))
        self._bounds = {}

    def run(self, op):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = self.cli.main(list(op.data["argv"]))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return Outcome(route=op.data["argv"][0], text=buf.getvalue())

    def check(self, op, out):
        if out.route == "reproduce":
            rows = [ln.split() for ln in out.text.splitlines()[1:] if ln.strip()]
            passed = sum(1 for r in rows if r[-1] == "PASS")
            return Check(bool(rows) and passed == len(rows), None,
                         f"{passed}/{len(rows)} rows PASS")
        try:
            rep = json.loads(out.text, parse_constant=_reject_constant)
        except ValueError as exc:
            return Check(False, None, f"report is not valid JSON: {exc}")
        scen = op.data["scenario"]
        D, R, Q = scenario_stats(scen)
        sigma2 = float(scen.get("sigma2", 1.0))
        res = Outcome(route="solve", w=np.array([complex(a, b) for a, b in rep["w"]]),
                      Ps=float(rep["Ps"]), snr=float(rep["snr"]))
        budget = scen["budget"]
        if scen["mode"] == "total":
            ref = total_reference_snr(D, R, Q, sigma2, float(budget["P0"]))
            return check_total_solution(D, R, Q, sigma2, float(budget["P0"]), res, ref)
        P = np.asarray(budget["P"], dtype=float)
        y = None
        if np.count_nonzero(R - np.diag(np.diag(R))) or np.count_nonzero(Q - np.diag(np.diag(Q))):
            y = self._sdp_dual(op.key, D, R, Q, sigma2, float(budget["Ps"]), P)
        return check_indiv_solution(D, R, Q, sigma2, float(budget["Ps"]), P, res, y)

    def _sdp_dual(self, key, D, R, Q, sigma2, Ps, P):
        """A dual vector for the bound, from the library's IPM on this module's
        own constraint matrices; check_indiv_solution verifies it."""
        if key not in self._bounds:
            sdp = importlib.import_module("relaybeam.sdp")
            c = (Ps * D + sigma2) / P
            A = [Q + np.diag(np.eye(D.size)[k] * c) for k in range(D.size)]
            self._bounds[key] = sdp.solve_relaxation(
                sdp.SdpProblem(objective=R, constraints=A)).dual_y
        return self._bounds[key]


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in np.ravel(v)]


def _mat_pairs(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def generated_scenario(rng, solver, n, seed):
    if solver == "total":
        return {"mode": "total", "sigma2": 1.0,
                "channel": {"rician": {"f_mean": _pairs(_cn(rng, n)),
                                       "f_var": rng.uniform(0.2, 2.0, n).tolist(),
                                       "g_mean": _pairs(_cn(rng, n)),
                                       "g_var": rng.uniform(0.2, 2.0, n).tolist()}},
                "budget": {"P0": float(10.0 ** rng.uniform(0.0, 2.0))},
                "seed": seed}
    kind = "diagonal" if solver == "indiv-diag" else "general"
    d = indiv_instance(rng, n, kind)
    return {"mode": "individual", "sigma2": d["sigma2"],
            "channel": {"stats": {"D": d["D"].tolist(), "R": _mat_pairs(d["R"]),
                                  "Q": _mat_pairs(d["Q"])}},
            "budget": {"Ps": d["Ps"], "P": d["P"].tolist()},
            "solver": {"name": solver}, "seed": seed}


def scenario_stats(scen):
    ch = scen["channel"]
    if "rician" in ch:
        r = ch["rician"]
        c = lambda v: np.array([complex(a, b) for a, b in v])  # noqa: E731
        return rician_stats(c(r["f_mean"]), np.asarray(r["f_var"], float),
                            c(r["g_mean"]), np.asarray(r["g_var"], float))
    s = ch["stats"]
    m = lambda v: np.array([[complex(a, b) for a, b in row] for row in v])  # noqa: E731
    return np.asarray(s["D"], float), m(s["R"]), m(s["Q"])
