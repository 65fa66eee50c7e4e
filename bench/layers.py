"""Per-layer metrics from the spans of a traced run.

``<x>.s`` is the median, over the pool's ops that call x, of the op's self
time in x.  Counts come from the values the traced functions return.  A
layer the workload never calls reads 0.  Axis metrics are whole-call
(inclusive) times grouped by relay count n.  An axis probe that raises (CDM
from R's top eigenvector can stop at its sweep limit with ConvergenceError)
is counted by class in the run record, and the time it took still counts
as its whole-call time; its iteration count is not known.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import workloads
from tracer import ERROR, EXTRA, NAME, OP, T0, T1

SELF_TIMES = ("channel.build_stats", "channel.stats",
              "total_power.build_s_pair", "total_power.bracket_x", "total_power.newton_solve",
              "sdp.problem", "sdp.solve_relaxation",
              "indiv_qcqp.build_qcqp", "indiv_qcqp.rank_one_decompose",
              "indiv_qcqp.rescale", "indiv_qcqp.grp_extract",
              "indiv_search.coordinate_descent", "indiv_search.augmented_lagrangian_solve",
              "indiv_diag.solve_diagonal",
              "cli.parse_scenario", "cli.run", "cli.reproduce", "cli.report")
# (traced function, relay counts, also report IPM iterations)
AXIS = (("total_power.solve", workloads.TOTAL_NS, False),
        ("sdp.solve_relaxation", (4, 6, 16, 32), True),
        ("indiv_search.coordinate_descent", (16, 32, 64), False))


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer_metrics(tr):
    selfs = tr.self_times()
    pool = {i for i, (_, key, _) in enumerate(tr.ops) if not key.startswith(("axis/", "defect/"))}
    per_op = defaultdict(float)
    spans_by = defaultdict(list)
    for i, s in enumerate(tr.spans):
        spans_by[s[NAME]].append(s)
        if s[OP] in pool:
            per_op[(s[OP], s[NAME])] += selfs[i]
    m = {}
    for name in SELF_TIMES:
        m[f"{name}.s"] = (_median([v for (op, nm), v in per_op.items() if nm == name]), "s")

    def pool_spans(name):
        return [s for s in spans_by[name] if s[OP] in pool and s[ERROR] is None]

    def errors_per_pass(name):
        return sum(1 for s in spans_by[name] if s[ERROR] is not None) / max(tr.passes, 1)

    newton = pool_spans("total_power.newton_solve")
    iters = defaultdict(int)
    for s in newton:
        iters[s[OP]] += s[EXTRA]["iters"]
    solve_ops = {s[OP] for s in spans_by["total_power.solve"] if s[OP] in pool}
    diag_ops = {s[OP] for s in spans_by["total_power.solve_diagonal"] if s[OP] in pool}
    m["total_power.newton_iters"] = (_median(list(iters.values())), "count")
    m["total_power.closed_form_ratio"] = (len(diag_ops) / len(solve_ops) if solve_ops else 0.0, "ratio")
    m["total_power.fallback_count"] = (
        sum(1 for s in spans_by["total_power.newton_solve"]
            if s[EXTRA] and s[EXTRA]["fallback"]) / max(tr.passes, 1), "count")
    m["total_power.errors"] = (errors_per_pass("total_power.solve"), "count")

    sdp = pool_spans("sdp.solve_relaxation")
    m["sdp.ipm_iters"] = (_median([s[EXTRA]["iters"] for s in sdp]), "count")
    m["sdp.ms_per_iter"] = (_median([(s[T1] - s[T0]) * 1e3 / max(s[EXTRA]["iters"], 1)
                                     for s in sdp]), "ms")
    m["sdp.rank_one_ratio"] = (sum(1 for s in sdp if s[EXTRA]["rank"] == 1) / len(sdp)
                               if sdp else 0.0, "ratio")
    m["sdp.errors"] = (errors_per_pass("sdp.solve_relaxation"), "count")

    grp = pool_spans("indiv_qcqp.grp_extract")
    m["indiv_qcqp.grp_samples_per_s"] = (_median([s[EXTRA]["samples"] / (s[T1] - s[T0])
                                                  for s in grp]), "1/s")

    cdm = pool_spans("indiv_search.coordinate_descent")
    bound = {s[OP]: s[EXTRA]["dual_obj"] for s in sdp}
    m["indiv_search.cdm_sweeps"] = (_median([s[EXTRA]["sweeps"] for s in cdm]), "count")
    m["indiv_search.us_per_slot"] = (_median([(s[T1] - s[T0]) * 1e6 / max(s[EXTRA]["slots"], 1)
                                              for s in cdm]), "us")
    m["indiv_search.cdm_ratio"] = (_median([s[EXTRA]["snr_scaled"] / bound[s[OP]]
                                            for s in cdm if s[OP] in bound]), "ratio")
    m["indiv_search.al_inner_iters"] = (
        _median([s[EXTRA]["inner"] for s in pool_spans("indiv_search.augmented_lagrangian_solve")]),
        "count")
    return m


def axis_metrics(tr, wl, errors):
    """Whole-call times by relay count, after running the workload's traced
    axis probes (calls at sizes its pool does not reach).  A probe that
    raises is counted in ``errors`` as "<probe key>: <exception class>"."""
    probes = wl.axis_probes()
    if probes:
        tr.install()
        try:
            for key, n, call in probes:
                tr.begin_op(f"axis/{key}", n)
                try:
                    call()
                except Exception as exc:
                    errors[f"{key}: {type(exc).__name__}"] += 1
        finally:
            tr.uninstall()
    ns = [n for (_, key, n) in tr.ops]
    keys = [key for (_, key, _) in tr.ops]
    m = {}
    for name, sizes, iters in AXIS:
        by_n = defaultdict(list)
        it_n = defaultdict(list)
        for s in tr.spans:
            key = keys[s[OP]]
            if s[NAME] != name or key.startswith("defect/"):
                continue
            if s[ERROR] is not None and not key.startswith("axis/"):
                continue
            by_n[ns[s[OP]]].append(s[T1] - s[T0])
            if iters and s[EXTRA] is not None:
                it_n[ns[s[OP]]].append(s[EXTRA]["iters"])
        for n in sizes:
            m[f"axis.n{n}.{name}.s"] = (_median(by_n[n]), "s")
            if iters:
                m[f"axis.n{n}.sdp.ipm_iters"] = (_median(it_n[n]), "count")
    return m
