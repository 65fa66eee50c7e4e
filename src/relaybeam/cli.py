"""Command-line interface: parse a scenario, solve it, serialize a report.

Subcommands:
  solve <scenario.json>     run the configured solver on a scenario file
  reproduce <case|all>      regenerate the embedded benchmark numbers
  oracle <scenario.json>    brute-force verification of a scenario (no flags)
  trace-export <report>     print the trace CSV referenced by a report

Scenario files are JSON with complex numbers encoded as [re, im] pairs and
matrices row-major.  ``_read_json`` reads every scenario and report, and
``parse_scenario`` converts and checks every field and builds the problem, so
the solvers never see raw JSON.  ``run`` then calls ``total_power.solve`` or
``indiv_qcqp.solve``, the one per-relay route, and serializes the answer.
``solve --out DIR`` writes a new ``report-<solver>-<random>.json`` per run, so
reports never overwrite each other.  Exit codes: 0 success (and ``--help``), 1
a ``reproduce`` row outside its tolerance, 2 solver non-convergence, 3 input
error (a malformed field, an unreadable or unwritable file or directory, named
in the message, an instance outside a solver's scope, or a command-line usage
error), 4 any other library failure (an infeasible or unbounded model, R = 0).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import fixtures, indiv_qcqp, oracle, sdp, total_power
from .channel import ChannelStats, RicianParams, build_stats
from .errors import ConvergenceError, InputError, RelayBeamError
from .linalg import hermitian
from .problems import IndivPowerProblem, TotalPowerProblem
# unused here: bench/selftest.py checks that its tracer rebinds this copy
from .sdp import solve_relaxation  # noqa: F401

CASES = ("total-1", "total-2", "indiv-n4", "indiv-n6")   # reproduce's cases


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
_OPTION_KINDS = {"samples": "count", "eps": "positive", "p": "count",
                 "w0": "vector", "fallback": ("cdm", "pnorm")}


def parse_scenario(path: str) -> Scenario:
    """Read, convert and validate a scenario file and build its problem.

    The only place a scenario file is read: every error is an InputError,
    and one in a field names that field.
    """
    raw = _read_json(path, "scenario")
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
    name = _field(solver, "solver.name", ("auto",) if mode == "total" else indiv_qcqp.ROUTES)
    given = _field(solver, "solver.options", "object", {})
    unknown = sorted(given.keys() - _OPTION_KINDS.keys())
    if unknown:
        raise InputError(f"field 'solver.options.{unknown[0]}' is not an option; "
                         f"known options: {', '.join(_OPTION_KINDS)}")
    options = {key: _field(given, f"solver.options.{key}", kind)
               for key, kind in _OPTION_KINDS.items() if key in given}
    if "w0" in options and options["w0"].size != stats.n:
        raise InputError(f"field 'solver.options.w0' has {options['w0'].size} pairs, "
                         f"expected one per relay ({stats.n})")
    return Scenario(mode=mode, problem=problem, solver=name, solver_options=options,
                    seed=_field(raw, "seed", "seed", 0))


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


def run(s: Scenario, trace_dir: str | None = None) -> Report:
    """Solve a scenario and package a report.  Every setting comes from the
    scenario; ``trace_dir`` receives the iteration table."""
    prob = s.problem
    meta: dict = {"seed": s.seed}
    if s.mode == "total":
        sol = total_power.solve(prob)
        # only the closed form takes no iteration
        meta.update(solver="total-newton" if sol.iterations else "total-diagonal",
                    iterations=sol.iterations, x=sol.x, lambda_min=sol.lambda_min)
        bsol, trace_obj = total_power.as_beamforming_solution(prob, sol), sol.trace
    else:
        bsol, more, trace_obj = indiv_qcqp.solve(prob, s.solver, s.solver_options, s.seed)
        meta.update(more)

    trace_file = None
    if trace_dir is not None and trace_obj:      # None, or a trace with no row
        trace_file = _write_new(trace_dir, f"trace-{meta['solver']}-", ".csv", trace_obj.to_csv())

    return Report(scenario_mode=s.mode, solver=meta["solver"],
                  w=[[float(v.real), float(v.imag)] for v in bsol.w],
                  Ps=float(bsol.Ps), snr=float(bsol.snr),
                  snr_db=float(bsol.snr_db) if bsol.snr > 0 else None,
                  feasibility=[float(v) for v in np.atleast_1d(bsol.feasibility)],
                  metadata=meta, trace_file=trace_file)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def reproduce(case: str, out_dir: str | None = None, seed: int = 20111):
    """Re-run the embedded benchmark scenarios and tabulate the comparison.

    Returns ``(rows, reports)`` where each row is
    (case, quantity, expected, actual, tolerance, passed).
    """
    rows, reports = [], {}
    for c in CASES if case == "all" else (case,):
        if c not in CASES:
            raise InputError(f"unknown case {c!r}; choose one of {CASES} or 'all'")
        if c.startswith("total-"):
            rows += _reproduce_total(int(c[-1]), reports)
        else:
            rows += _reproduce_indiv(int(c[-1]), reports, seed)
    if out_dir:
        _make_dir(out_dir)
        for name, rep in reports.items():
            _write_text(os.path.join(out_dir, f"{name}.json"),
                        json.dumps(rep, indent=2, sort_keys=True))
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
    q, sdp_sol, _ = relaxation = indiv_qcqp.solve_via_sdp(prob)
    name = f"indiv-n{n}"
    rows = []

    def rel(quan, expv, act, tol=rtol):
        rows.append((name, quan, expv, act, tol, abs(act - expv) <= tol * abs(expv)))

    def objective(solver, options):
        """The QCQP value of the answer of ``solve``'s route, which no rescaling moves."""
        sol, _, _ = indiv_qcqp.solve(prob, solver, options, seed, relaxation)
        return indiv_qcqp.qcqp_objective(q, sol.w)

    rel("sdp_objective", exp["sdp"], sdp_sol.primal_obj)
    wX = np.linalg.eigvalsh(sdp_sol.X)
    nonzero, _ = sdp.range_eigh(sdp_sol.X)
    for i, ev in enumerate(exp["x_eigs"]):
        act = float(nonzero[i]) if i < nonzero.size else 0.0
        rel(f"x_eigenvalue_{i + 1}", ev, act)
    rows.append((name, "rank_estimate", 2, sdp_sol.rank_estimate, 0,
                 sdp_sol.rank_estimate == 2))

    # the sdp route falls back to cdm (by default) or pnorm from X's principal factor
    cdm_obj = objective("sdp", {})
    rel("cdm_objective", exp["cdm"], cdm_obj)
    pn_obj = objective("sdp", {"fallback": "pnorm", "p": fixtures.PNORM_P})
    rel("pnorm_objective", exp["pnorm"], pn_obj)
    grp_obj = objective("grp", {"samples": fixtures.GRP_SAMPLES})
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

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state on it."""
    parser = argparse.ArgumentParser(prog="relaybeam",
                                     description="Relay beamforming solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario file")
    p_solve.add_argument("scenario")
    p_repro = sub.add_parser("reproduce", help="re-run embedded benchmarks")
    p_repro.add_argument("case", choices=CASES + ("all",))
    p_oracle = sub.add_parser("oracle", help="brute-force a scenario")
    p_oracle.add_argument("scenario")
    p_trace = sub.add_parser("trace-export", help="print a report's trace CSV")
    p_trace.add_argument("report")

    for p in (p_solve, p_repro, p_trace):
        p.add_argument("--out", default=None, help="directory for report files")
    p_solve.add_argument("--trace", action="store_true")
    p_repro.add_argument("--seed", type=int, default=20111)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
        rep = run(s, trace_dir=(args.out or ".") if args.trace else None)
        body = rep.to_json()
        if args.out:
            print(_write_new(args.out, f"report-{rep.solver}-", ".json", body))
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
        trace_file = _read_json(args.report, "report").get("trace_file")
        if not (isinstance(trace_file, str) and trace_file):
            raise InputError(f"report {args.report} names no trace file "
                             "(re-run solve with --trace)")
        content = _read_text(trace_file, "trace")
        if args.out:
            _make_dir(args.out)
            dest = os.path.join(args.out, os.path.basename(trace_file))
            _write_text(dest, content)
            print(dest)
        else:
            sys.stdout.write(content)
        return 0


# ---------------------------------------------------------------------------
# file and field decoding helpers
# ---------------------------------------------------------------------------

def _read_json(path: str, what: str) -> dict:
    """The JSON object in the ``what`` file at ``path``.  A file that cannot
    be read, or holds no JSON object, is an InputError that names ``path``."""
    try:
        raw = json.loads(_read_text(path, what))
    except (json.JSONDecodeError, RecursionError) as exc:   # too deeply nested
        raise InputError(f"cannot parse {what} file {path} as JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"{what} file {path} must hold a JSON object")
    return raw


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``, else an InputError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{what} file {path} is not UTF-8 text") from None


def _write_text(path: str, text: str):
    """Write ``text`` to the output file ``path``, else an InputError naming it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file {path}: {exc.strerror}") from None


def _write_new(out_dir: str, prefix: str, suffix: str, text: str) -> str:
    """The path of a new file ``<prefix><random><suffix>`` in ``out_dir`` holding ``text``."""
    _make_dir(out_dir)
    fd, path = tempfile.mkstemp(prefix=prefix, suffix=suffix, dir=out_dir)
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    return path


def _make_dir(path: str):
    """Create the output directory ``path`` unless it exists, else an InputError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use {path} as an output directory: {exc.strerror}") from None


_MISSING = object()
# numeric field kind: (array rank, description); ranks 2 and 3 hold [re, im] pairs
_NUMERIC = {"number": (0, "a number"), "positive": (0, "a positive number"),
            "count": (0, "an integer >= 1"),
            "seed": (0, "a non-negative integer below 2**64"),
            "numbers": (1, "a list of numbers"), "vector": (2, "a list of [re, im] pairs"),
            "matrix": (3, "a square matrix of [re, im] pairs")}
_INTEGER = ("count", "seed")
# the test each ranged kind's value must pass
_IN_RANGE = {"positive": lambda v: v > 0, "count": lambda v: v >= 1,
             "seed": lambda v: 0 <= v < 2 ** 64}


def _field(block: dict, path: str, kind, default=_MISSING):
    """The field at the dotted ``path`` (its last part is the key in ``block``)
    converted to ``kind``: "object", a tuple of the allowed strings, or a kind
    of ``_NUMERIC``, which gives a float, an int, a float array, a complex
    vector or a Hermitian matrix.  A missing field without a default, or a
    value of another kind or out of the kind's range, raises an InputError
    that names ``path``."""
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
                and (kind not in _INTEGER or arr == np.round(arr))
                and (kind not in _IN_RANGE or _IN_RANGE[kind](arr.item()))):
            if ndim == 0:
                return int(arr) if kind in _INTEGER else float(arr)
            if ndim == 1:
                return arr.astype(float)
            z = arr[..., 0] + 1j * arr[..., 1]
            return z if ndim == 2 else hermitian(z, name=f"field '{path}'")
    raise InputError(f"field '{path}' must be {what}, got {reprlib.repr(value)}")


if __name__ == "__main__":
    sys.exit(main())
