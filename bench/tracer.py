"""Span tracer that wraps relaybeam's public functions from outside.

``install()`` replaces every binding of each traced function with a wrapper
that records a span: the module attribute itself, re-exports such as
``relaybeam.build_stats`` and ``from x import y`` copies such as
``relaybeam.cli.solve_relaxation``.  Constructors and methods that are
layer boundaries are patched on their class.  ``uninstall()`` puts every
original object back, so untraced passes run the unmodified program.
Spans stay in memory; self time is computed afterwards from parent links.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("channel", "total_power", "sdp", "indiv_qcqp", "indiv_search",
                  "indiv_diag", "cli")
# public helpers called in inner loops (per Newton step, per CDM slot, per
# line-search trial): a span would cost as much as the call, so their time
# stays in the caller's self time, like the linalg helpers
INNER_LOOP = {"channel.snr", "channel.powers", "total_power.g_matrix",
              "total_power.lambda_min_g", "total_power.eig_derivatives",
              "total_power.objective_value", "indiv_qcqp.qcqp_objective",
              "indiv_search.extract_coefficients", "indiv_search.subproblem_value",
              "indiv_search.solve_scalar_subproblem", "indiv_search.phi_p_value",
              "indiv_search.phi_p_grad_hess", "indiv_diag.dinkelbach_F"}
# (module, class, method, span name)
METHODS = (("channel", "ChannelStats", "__init__", "channel.stats"),
           ("sdp", "SdpProblem", "__init__", "sdp.problem"),
           ("cli", "Report", "to_json", "cli.report"))
RENAMES = {"indiv_qcqp.rescale_to_original": "indiv_qcqp.rescale"}

# span fields
NAME, OP, T0, T1, PARENT, ERROR, EXTRA = range(7)


def _extract(name, args, result):
    """Counts read from return values (the library keeps no counters)."""
    if name == "total_power.newton_solve":
        return {"iters": result.iterations,
                "fallback": any("golden" in s for s in result.trace.notes)}
    if name == "sdp.solve_relaxation":
        return {"iters": result.iterations, "rank": result.rank_estimate,
                "dual_obj": result.dual_obj}
    if name == "indiv_search.coordinate_descent":
        sol, trace = result
        prob = args[0]
        return {"slots": len(trace), "sweeps": int(trace.rows[-1][0]) + 1 if len(trace) else 0,
                "snr_scaled": sol.snr * prob.stats.sigma2 / prob.Ps}
    if name == "indiv_search.augmented_lagrangian_solve":
        return {"inner": sum(1 for row in result[1].rows if row[1] >= 0)}
    if name == "indiv_qcqp.grp_extract":
        return {"samples": int(args[2])}
    return None


def traced_functions():
    """{span name: (module, attribute, function)} for every traced function."""
    out = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"relaybeam.{short}")
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in INNER_LOOP):
                continue
            out[RENAMES.get(name, name)] = (mod, attr, obj)
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = []            # (pass index, op key, n) per traced op
        self.current = -1
        self.passes = 0
        self._stack = []
        self._undo = []          # (owner, attribute, original)

    # -- op bookkeeping ----------------------------------------------------

    def next_pass(self):
        self.passes += 1

    def begin_op(self, key, n):
        self.ops.append((self.passes, key, n))
        self.current = len(self.ops) - 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, tracer.current, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[T0] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[T1] = perf()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[T1] = perf()
            span[EXTRA] = _extract(name, args, result)
            return result

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, (_, _, fn) in traced_functions().items():
            wrappers[id(fn)] = self._wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "relaybeam" and not modname.startswith("relaybeam."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for short, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"relaybeam.{short}"), cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[T1] - s[T0]
        return [s[T1] - s[T0] - c for s, c in zip(self.spans, child)]


def snapshot():
    """Identity of every relaybeam binding and patched method, to show that
    uninstall() restores the program exactly."""
    snap = {}
    for modname, mod in sys.modules.items():
        if modname == "relaybeam" or modname.startswith("relaybeam."):
            for attr, obj in vars(mod).items():
                snap[(modname, attr)] = id(obj)
    for short, cls_name, meth, _ in METHODS:
        cls = getattr(importlib.import_module(f"relaybeam.{short}"), cls_name)
        snap[(f"relaybeam.{short}.{cls_name}", meth)] = id(cls.__dict__[meth])
    return snap
