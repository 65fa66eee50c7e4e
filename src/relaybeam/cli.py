"""Command-line interface: parse a scenario, solve it, serialize a report.

Subcommands:
  solve <scenario.json>     run the configured solver on a scenario file
  reproduce <case|all>      regenerate the embedded benchmark numbers
  oracle <scenario.json>    brute-force verification of a scenario (no flags)
  trace-export <report>     print the trace CSV referenced by a report

Scenario files are JSON with complex numbers encoded as [re, im] pairs and
matrices row-major.  ``parse_scenario`` is the one place a file is read: it
converts and checks every field and builds the problem, so the solvers never
see raw JSON.  ``solve --out DIR`` writes a new
``report-<solver>-<random>.json`` per run, so reports never overwrite each
other.  Exit codes: 0 success (and ``--help``), 1 a ``reproduce`` row outside
its tolerance, 2 solver non-convergence, 3 input error (a malformed field,
named in the message, or a command-line usage error), 4 any other library
failure (a singular matrix, an infeasible or unbounded model, R = 0).
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fixtures, indiv_diag, indiv_qcqp, indiv_search, oracle, total_power
from .channel import ChannelStats, RicianParams, build_stats
from .errors import ConvergenceError, InputError, RelayBeamError
from .linalg import principal_factor
from .problems import IndivPowerProblem, TotalPowerProblem
# unused here: bench/selftest.py checks that its tracer rebinds this copy
from .sdp import solve_relaxation  # noqa: F401

TOTAL_SOLVERS = ("auto",)
INDIV_SOLVERS = ("auto", "indiv-diag", "sdp", "cdm", "pnorm", "grp")


@dataclass
class Scenario:
    """A scenario file after parsing: the problem it poses and how to solve it."""
    mode: str                      # "total" | "individual"
    problem: TotalPowerProblem | IndivPowerProblem
    solver: str = "auto"
    solver_options: dict = field(default_factory=dict)   # converted, see _OPTION_KINDS
    seed: int = 0


# field: kind of its value (see _field).  The channel fields are the
# arguments of ChannelStats ("stats") and of RicianParams ("rician").
_CHANNEL_KINDS = {"stats": {"D": "numbers", "R": "matrix", "Q": "matrix"},
                  "rician": {"f_mean": "vector", "f_var": "numbers",
                             "g_mean": "vector", "g_var": "numbers"}}
_OPTION_KINDS = {"samples": "integer", "eps": "number", "p": "integer",
                 "w0": "vector", "z0": "numbers", "fallback": ("cdm", "pnorm")}


def parse_scenario(path: str) -> Scenario:
    """Read, convert and validate a scenario file and build its problem.

    The only place a scenario file is read: every error is an InputError,
    and one in a field names that field.
    """
    if not os.path.exists(path):
        raise InputError(f"scenario file not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("scenario must be a JSON object")
    mode = _field(raw, "mode", ("total", "individual"))
    sigma2 = _field(raw, "sigma2", "number", 1.0)
    channel = _field(raw, "channel", "object")
    reprs = [k for k in ("rician", "stats") if k in channel]
    if len(reprs) != 1:
        raise InputError(
            "field 'channel' must contain exactly one of 'rician' or 'stats', "
            f"found {reprs or 'neither'}")
    (rep,) = reprs
    block = _field(channel, f"channel.{rep}", "object")
    values = {key: _field(block, f"channel.{rep}.{key}", kind)
              for key, kind in _CHANNEL_KINDS[rep].items()}
    stats = (ChannelStats(**values, sigma2=sigma2) if rep == "stats"
             else build_stats(RicianParams(**values), sigma2))
    budget = _field(raw, "budget", "object")
    if mode == "total":
        problem = TotalPowerProblem(stats=stats, P0=_field(budget, "budget.P0", "number"))
    else:
        problem = IndivPowerProblem(stats=stats, Ps=_field(budget, "budget.Ps", "number"),
                                    P=_field(budget, "budget.P", "numbers"))
    solver = _field(raw, "solver", "object", {"name": "auto"})
    name = _field(solver, "solver.name", TOTAL_SOLVERS if mode == "total" else INDIV_SOLVERS)
    given = _field(solver, "solver.options", "object", {})
    unknown = sorted(given.keys() - _OPTION_KINDS.keys())
    if unknown:
        raise InputError(f"field 'solver.options.{unknown[0]}' is not an option; "
                         f"known options: {', '.join(_OPTION_KINDS)}")
    options = {key: _field(given, f"solver.options.{key}", kind)
               for key, kind in _OPTION_KINDS.items() if key in given}
    return Scenario(mode=mode, problem=problem, solver=name, solver_options=options,
                    seed=_field(raw, "seed", "integer", 0))


@dataclass
class Report:
    scenario_mode: str
    solver: str
    w: list                      # [re, im] pairs
    Ps: float
    snr: float
    snr_db: float | None         # null when the SNR is 0
    feasibility: list
    metadata: dict
    trace_file: str | None = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def run(s: Scenario, tol: float | None = None, samples: int | None = None,
        pexp: int | None = None, trace_dir: str | None = None,
        seed: int | None = None) -> Report:
    """Dispatch a scenario to its solver and package a report."""
    prob, stats = s.problem, s.problem.stats
    seed = s.seed if seed is None else seed
    meta: dict = {"seed": seed}
    trace_obj = None

    if s.mode == "total":
        sol = total_power.solve(prob)
        meta.update(solver="total-diagonal" if stats.is_diagonal() else "total-newton",
                    iterations=sol.iterations, x=sol.x, lambda_min=sol.lambda_min)
        bsol = total_power.as_beamforming_solution(prob, sol)
        trace_obj = sol.trace
        solver_name = meta["solver"]
    else:
        solver_name = s.solver
        if solver_name == "auto":
            solver_name = "indiv-diag" if stats.is_diagonal() else "sdp"
        bsol, meta2, trace_obj = _run_indiv(prob, solver_name, s.solver_options,
                                            tol=tol, samples=samples, pexp=pexp,
                                            seed=seed)
        meta.update(meta2)

    trace_file = None
    if trace_dir is not None and trace_obj is not None and len(trace_obj):
        os.makedirs(trace_dir, exist_ok=True)
        fd, trace_file = tempfile.mkstemp(prefix=f"trace-{meta.get('solver', 'run')}-",
                                          suffix=".csv", dir=trace_dir)
        with os.fdopen(fd, "w") as fh:
            fh.write(trace_obj.to_csv())

    return Report(scenario_mode=s.mode, solver=meta.get("solver", solver_name),
                  w=[[float(v.real), float(v.imag)] for v in bsol.w],
                  Ps=float(bsol.Ps), snr=float(bsol.snr),
                  snr_db=float(bsol.snr_db) if bsol.snr > 0 else None,
                  feasibility=[float(v) for v in np.atleast_1d(bsol.feasibility)],
                  metadata=meta, trace_file=trace_file)


def _run_indiv(prob: IndivPowerProblem, solver: str, options: dict,
               tol=None, samples=None, pexp=None, seed=0):
    tol = 1e-8 if tol is None else tol
    meta = {"solver": solver}
    start = None
    if solver == "indiv-diag":
        return indiv_diag.solve_diagonal(prob), meta, None
    if solver == "grp":
        n_samples = options.get("samples", 10 ** 6) if samples is None else samples
        q, sdp_sol, _ = indiv_qcqp.solve_via_sdp(prob, tol=tol)
        w = indiv_qcqp.grp_extract(sdp_sol.X, q, n_samples, seed)
        sol = indiv_qcqp.rescale_to_original(w, q, prob)
        meta.update(samples=n_samples, sdp_obj=sdp_sol.primal_obj,
                    rank_estimate=sdp_sol.rank_estimate)
        return sol, meta, None
    if solver == "sdp":
        q, sdp_sol, w = indiv_qcqp.solve_via_sdp(prob, tol=tol)
        meta.update(sdp_obj=sdp_sol.primal_obj, sdp_gap=sdp_sol.gap,
                    rank_estimate=sdp_sol.rank_estimate,
                    iterations=sdp_sol.iterations)
        if w is None and prob.n <= 3:
            meta["fallback"] = "rank-one-decomposition"
            w = indiv_qcqp.rank_one_decompose(sdp_sol.X, q)
        if w is not None:
            return indiv_qcqp.rescale_to_original(w, q, prob), meta, None
        # relaxation is not rank one and n > 3: the configured search solver
        # (coordinate descent by default) from the relaxation's principal factor
        solver = meta["fallback"] = options.get("fallback", "cdm")
        start = principal_factor(sdp_sol.X)
    if solver == "cdm":
        w0 = start if start is not None else options.get("w0", np.ones(prob.n))
        sol, trace = indiv_search.coordinate_descent(prob, w0, eps=options.get("eps", 1e-3))
        meta["sweeps"] = int(trace.rows[-1][0]) + 1 if len(trace) else 0
        return sol, meta, trace
    if solver == "pnorm":
        p_val = options.get("p", 0) if pexp is None else pexp
        p_val = p_val or indiv_search.choose_p(prob.n, 0.01)
        emb = indiv_search.build_pnorm_embedding(prob, p_val)
        z0 = options.get("z0") if start is None else np.concatenate([start.real, start.imag])
        sol, trace, state = indiv_search.augmented_lagrangian_solve(emb, prob, z0=z0)
        meta.update(p=p_val, multiplier=state.lam,
                    constraint_residual=state.constraint_residual)
        return sol, meta, trace
    raise InputError(f"unknown solver {solver!r}")


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def reproduce(case: str, out_dir: str | None = None, seed: int = 20111):
    """Re-run the embedded benchmark scenarios and tabulate the comparison.

    Returns ``(rows, reports)`` where each row is
    (case, quantity, expected, actual, tolerance, passed).
    """
    known = ("total-1", "total-2", "indiv-n4", "indiv-n6")
    cases = known if case == "all" else (case,)
    rows = []
    reports = {}
    for c in cases:
        if c not in known:
            raise InputError(f"unknown case {c!r}; choose one of {known} or 'all'")
        if c.startswith("total-"):
            rows += _reproduce_total(int(c[-1]), reports)
        else:
            rows += _reproduce_indiv(int(c[-1]), reports, seed)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name, rep in reports.items():
            with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
                fh.write(json.dumps(rep, indent=2, sort_keys=True))
    return rows, reports


def _reproduce_total(case: int, reports: dict):
    exp = fixtures.TOTAL_EXPECT[case]
    tol = fixtures.TOTAL_TOL
    params = fixtures.total_fixture(case)
    assumption_note = (f"assuming sigma2={fixtures.TOTAL_ASSUMED_SIGMA2}, "
                       f"P0={fixtures.TOTAL_ASSUMED_P0} for the quoted SNR level")
    stats = build_stats(params, fixtures.TOTAL_ASSUMED_SIGMA2)
    prob = TotalPowerProblem(stats=stats, P0=fixtures.TOTAL_ASSUMED_P0)
    s = total_power.build_s_pair(prob)
    xl, xu = total_power.bracket_x(s)
    name = f"total-{case}"
    rows = [(name, "x_l", exp["bracket"][0], xl, tol, abs(xl - exp["bracket"][0]) <= tol),
            (name, "x_u", exp["bracket"][1], xu, tol, abs(xu - exp["bracket"][1]) <= tol)]
    report = {"case": name, "assumption": assumption_note,
              "P0_over_sigma2": fixtures.TOTAL_ASSUMED_P0 / fixtures.TOTAL_ASSUMED_SIGMA2,
              "bracket": [xl, xu]}
    for key, x0 in (("from_xl", xl), ("from_xu", xu)):
        sol = total_power.newton_solve(prob, x0, s=s)
        ex, el = exp[key]
        rows.append((name, f"{key}.x", ex, sol.x, tol, abs(sol.x - ex) <= tol))
        rows.append((name, f"{key}.lambda_min", el, sol.lambda_min, tol,
                     abs(sol.lambda_min - el) <= tol))
        rows.append((name, f"{key}.newton_iters<=30", 30, sol.iterations, 0,
                     sol.iterations <= 30))
        report[key] = {"x": sol.x, "lambda_min": sol.lambda_min,
                       "iterations": sol.iterations, "snr": sol.snr}
    reports[name] = report
    return rows


def _reproduce_indiv(n: int, reports: dict, seed: int):
    exp = fixtures.INDIV_EXPECT[n]
    rtol = fixtures.INDIV_TOL
    R, Q = fixtures.indiv_fixture(n)
    stats = ChannelStats(D=np.ones(n), R=R, Q=Q, sigma2=1.0)
    prob = IndivPowerProblem(stats=stats, Ps=1.0, P=np.full(n, 2.0))
    q, sdp_sol, _ = indiv_qcqp.solve_via_sdp(prob, tol=1e-8)
    name = f"indiv-n{n}"
    rows = []

    def rel(quan, expv, act, tol=rtol):
        rows.append((name, quan, expv, act, tol, abs(act - expv) <= tol * abs(expv)))

    rel("sdp_objective", exp["sdp"], sdp_sol.primal_obj)
    wX = np.linalg.eigvalsh(sdp_sol.X)
    nonzero = wX[wX > sdp_sol.rank_tol * wX.max()]
    for i, ev in enumerate(exp["x_eigs"]):
        act = float(nonzero[i]) if i < nonzero.size else 0.0
        rel(f"x_eigenvalue_{i + 1}", ev, act)
    rows.append((name, "rank_estimate", 2, sdp_sol.rank_estimate, 0,
                 sdp_sol.rank_estimate == 2))

    w0 = principal_factor(sdp_sol.X)
    cdm_sol, _ = indiv_search.coordinate_descent(prob, w0)
    cdm_obj = indiv_qcqp.qcqp_objective(q, cdm_sol.w)
    rel("cdm_objective", exp["cdm"], cdm_obj)

    emb = indiv_search.build_pnorm_embedding(prob, fixtures.PNORM_P)
    z0 = np.concatenate([w0.real, w0.imag])
    pn_sol, _, _ = indiv_search.augmented_lagrangian_solve(emb, prob, z0=z0)
    pn_obj = indiv_qcqp.qcqp_objective(q, pn_sol.w)
    rel("pnorm_objective", exp["pnorm"], pn_obj)

    w_grp = indiv_qcqp.grp_extract(sdp_sol.X, q, fixtures.GRP_SAMPLES, seed)
    grp_obj = indiv_qcqp.qcqp_objective(q, w_grp)
    rel("grp_objective", exp["grp"], grp_obj, tol=exp["grp_tol"])
    rows.append((name, "ordering grp<=pnorm/cdm<=sdp", "-",
                 f"{grp_obj:.4f}<={max(pn_obj, cdm_obj):.4f}<={sdp_sol.primal_obj:.4f}",
                 1e-6,
                 grp_obj <= max(pn_obj, cdm_obj) + 1e-6
                 and max(pn_obj, cdm_obj) <= sdp_sol.primal_obj + 1e-6))
    if n == 6:
        rows.append((name, "cdm/grp>=1.07", 1.07, cdm_obj / grp_obj, 0,
                     cdm_obj / grp_obj >= fixtures.CDM_OVER_GRP_MIN))
    reports[name] = {"case": name, "sdp": sdp_sol.primal_obj,
                     "x_eigenvalues": [float(v) for v in wX],
                     "cdm": cdm_obj, "pnorm": pn_obj, "grp": grp_obj,
                     "grp_samples": fixtures.GRP_SAMPLES, "grp_seed": seed}
    return rows


def _print_rows(rows):
    wid = max(len(str(r[1])) for r in rows) + 2
    print(f"{'case':<10} {'quantity':<{wid}} {'expected':>12} {'actual':>14} {'status':>8}")
    for case, quan, expv, act, _tol, ok in rows:
        e = f"{expv:.5g}" if isinstance(expv, (int, float)) else str(expv)
        a = f"{act:.6g}" if isinstance(act, (int, float)) else str(act)
        print(f"{case:<10} {quan:<{wid}} {e:>12} {a:>14} {'PASS' if ok else 'FAIL':>8}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="relaybeam",
                                     description="Relay beamforming solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario file")
    p_solve.add_argument("scenario")
    p_repro = sub.add_parser("reproduce", help="re-run embedded benchmarks")
    p_repro.add_argument("case", choices=["total-1", "total-2", "indiv-n4",
                                          "indiv-n6", "all"])
    p_oracle = sub.add_parser("oracle", help="brute-force a scenario")
    p_oracle.add_argument("scenario")
    p_trace = sub.add_parser("trace-export", help="print a report's trace CSV")
    p_trace.add_argument("report")

    for p in (p_solve, p_repro, p_trace):
        p.add_argument("--out", default=None, help="directory for report files")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--samples", type=int, default=None)
    p_solve.add_argument("--p", type=int, default=None, dest="pexp")
    p_solve.add_argument("--trace", action="store_true")
    p_repro.add_argument("--seed", type=int, default=20111)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:      # argparse exits 0 after --help, 2 on a usage error
        return 3 if exc.code else 0
    try:
        return _dispatch(args)
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 2
    except RelayBeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InputError) else 4


def _dispatch(args) -> int:
    if args.command == "solve":
        s = parse_scenario(args.scenario)
        rep = run(s, tol=args.tol, samples=args.samples, pexp=args.pexp,
                  trace_dir=(args.out or ".") if args.trace else None, seed=args.seed)
        body = rep.to_json()
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            fd, path = tempfile.mkstemp(prefix=f"report-{rep.solver}-", suffix=".json",
                                        dir=args.out)
            with os.fdopen(fd, "w") as fh:
                fh.write(body)
            print(path)
        else:
            print(body)
        return 0
    if args.command == "reproduce":
        rows, _ = reproduce(args.case, out_dir=args.out, seed=args.seed)
        _print_rows(rows)
        return 0 if all(ok for *_, ok in rows) else 1
    if args.command == "oracle":
        s = parse_scenario(args.scenario)
        if s.mode == "total":
            x, obj = oracle.brute_force_total(s.problem)
            print(json.dumps({"x": x, "objective": obj}, indent=2))
        else:
            w, val = oracle.brute_force_indiv(s.problem)
            print(json.dumps({"snr": val,
                              "w": [[v.real, v.imag] for v in w]}, indent=2))
        return 0
    if args.command == "trace-export":
        if not os.path.exists(args.report):
            raise InputError(f"report file not found: {args.report}")
        with open(args.report) as fh:
            rep = json.load(fh)
        trace_file = rep.get("trace_file")
        if not trace_file or not os.path.exists(trace_file):
            raise InputError("report has no trace file (re-run solve with --trace)")
        with open(trace_file) as fh:
            content = fh.read()
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            dest = os.path.join(args.out, os.path.basename(trace_file))
            with open(dest, "w") as fh:
                fh.write(content)
            print(dest)
        else:
            sys.stdout.write(content)
        return 0
    raise InputError(f"unknown command {args.command!r}")


# ---------------------------------------------------------------------------
# field decoding helpers
# ---------------------------------------------------------------------------

_MISSING = object()
# numeric field kind: (array rank, description); ranks 2 and 3 hold [re, im] pairs
_NUMERIC = {"number": (0, "a number"), "integer": (0, "an integer"),
            "numbers": (1, "a list of numbers"), "vector": (2, "a list of [re, im] pairs"),
            "matrix": (3, "a square matrix of [re, im] pairs")}


def _field(block: dict, path: str, kind, default=_MISSING):
    """The field at the dotted ``path`` (its last part is the key in ``block``)
    converted to ``kind``: "object", a tuple of the allowed strings, or a kind
    of ``_NUMERIC``, which gives a float, an int, a float array, a complex
    vector or a Hermitian matrix.  A missing field without a default, or a
    value of another kind, raises an InputError that names ``path``."""
    key = path.rpartition(".")[2]
    if key not in block:
        if default is _MISSING:
            raise InputError(f"field '{path}' is missing")
        return default
    value = block[key]
    if kind == "object":
        if isinstance(value, dict):
            return value
        what = "an object"
    elif isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        what = f"one of {kind}"
    else:
        ndim, what = _NUMERIC[kind]
        try:
            arr = np.asarray(value)
        except ValueError:             # ragged nesting
            arr = np.asarray(None)
        if (arr.dtype.kind in "iuf" and arr.ndim == ndim and np.isfinite(arr).all()
                and (ndim < 2 or arr.shape[-1] == 2)
                and (ndim < 3 or arr.shape[0] == arr.shape[1])
                and (kind != "integer" or arr == np.round(arr))):
            if ndim == 0:
                return int(arr) if kind == "integer" else float(arr)
            if ndim == 1:
                return arr.astype(float)
            z = arr[..., 0] + 1j * arr[..., 1]
            return z if ndim == 2 else _mat_c(z, path)
    raise InputError(f"field '{path}' must be {what}, got {reprlib.repr(value)}")


def _mat_c(M: np.ndarray, field_name: str) -> np.ndarray:
    """The Hermitian part of the complex matrix ``M`` read from ``field_name``."""
    asym = np.abs(M - M.conj().T).max()
    scale = max(1.0, np.abs(M).max())
    if asym > 1e-6 * scale:
        raise InputError(
            f"field '{field_name}' is not Hermitian (asymmetry {asym:.2e})")
    if asym > 1e-9 * scale:
        warnings.warn(f"{field_name}: symmetrizing asymmetry of {asym:.2e}",
                      stacklevel=2)
    return 0.5 * (M + M.conj().T)


if __name__ == "__main__":
    sys.exit(main())
