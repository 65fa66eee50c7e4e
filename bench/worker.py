"""One benchmark run of one workload, in one process (started by run.py).

Closed loop, one client: the worker runs the workload's input pool op after
op, in whole passes, so every run times the same multiset of ops.  A first
untimed pass warms caches and checks every output against the independent
references in workloads.py; each timed pass is compared with it afterwards.
Between passes the worker launches one fresh interpreter that performs the
workload's set-up (imports plus input generation) and times it to
readiness; those launches give ``setup_s`` and are never back to back.
Every timing is reported at a reference machine speed (see SpeedProbe and
setup_probe); the raw timings go into the run record.

Usage: worker.py <workload> <seed> <seconds> <trace 0|1> <tmpdir>
       worker.py --probe <workload> <seed> <tmpdir>
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import workloads

# nominal seconds per timed pass on a shared 2-core x86-64 VM; the pass count
# of a run is derived from --seconds with these, so it does not depend on
# how fast the machine happens to be during the run
NOMINAL_PASS_S = {"total-sweep": 2.2, "indiv-sweep": 6.5, "cli-paper": 5.0}
SETUP_LAUNCHES = 7          # at most, spread evenly over the passes
REF_NOMINAL_MS = 0.7        # SpeedProbe kernel time in that VM's fast state
REF_INTERVAL_S = 0.1
REF_LAUNCH = ["-c", "import numpy; print('ready', flush=True)"]
REF_LAUNCH_NOMINAL_S = 0.15  # REF_LAUNCH launch-to-ready time in the fast state
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10
# cli layer launch metrics: fresh interpreters timed to readiness
LAUNCHES = (("cli.interpreter_s", ""),
            ("cli.import_core_s", "import relaybeam, relaybeam.total_power; "),
            ("cli.import_s", "import relaybeam.cli; "))
LAUNCH_ROUNDS = 3


def main(argv):
    if argv[0] == "--probe":
        name, seed, tmpdir = argv[1], int(argv[2]), argv[3]
        workloads.load(name, seed, tmpdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    name, seed, seconds, trace, tmpdir = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
    wl = workloads.load(name, seed, tmpdir)
    run = Runner(wl, tmpdir)
    run.warm_up()
    if trace:
        result = run.traced(passes)
    else:
        result = run.timed(passes)
    print(json.dumps({"record": run.record()}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


class SpeedProbe:
    """Library-independent machine-speed reference, sampled between ops.

    A shared VM's speed drifts between a fast and a slow state (about 1.5x
    apart) on a scale of seconds, alike for pure-Python and small-LAPACK
    work.  Every timing is therefore also reported at the reference speed:
    multiplied by REF_NOMINAL_MS over the median reference sample around it.
    The kernel is a fixed Python loop plus small Hermitian eigensolves.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        G = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self._A = G @ G.conj().T
        self._eigh = np.linalg.eigh
        self.times = []
        self.ms = []

    def kernel_ms(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        for _ in range(4):
            self._eigh(self._A)
        return (time.perf_counter() - t0) * 1e3

    def sample(self):
        self.times.append(time.perf_counter())
        self.ms.append(self.kernel_ms())

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= REF_INTERVAL_S:
            self.sample()

    def factor(self, t0, t1):
        """REF_NOMINAL_MS over the median of the samples taken from two
        before t0 to two after t1."""
        i = bisect.bisect_right(self.times, t0) - 1
        j = bisect.bisect_left(self.times, t1)
        return REF_NOMINAL_MS / statistics.median(self.ms[max(0, i - 1):j + 2])


def launch_to_ready(args):
    """Seconds from starting a fresh interpreter until it prints its first
    line; the process is then waited for, outside the measurement."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line.strip():
        raise RuntimeError(f"launch of {args} failed with exit code {code}")
    return elapsed


def launch_metrics():
    """Launch times of the cli layer, interleaved over a few rounds."""
    samples = {name: [] for name, _ in LAUNCHES}
    for _ in range(LAUNCH_ROUNDS):
        for name, code in LAUNCHES:
            samples[name].append(launch_to_ready(["-c", code + "print('ready', flush=True)"]))
    return {name: (statistics.median(xs), "s") for name, xs in samples.items()}


def tail(samples):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above
    it, by the nearest-rank rule: (percentile, value, samples beyond)."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (p, xs[rank - 1], n - rank)
    if best is None:            # too few samples for any ladder step
        best = (100.0, xs[-1], 0)
    return best


class Runner:
    def __init__(self, wl, tmpdir):
        self.wl = wl
        self.tmpdir = tmpdir
        self.probe = SpeedProbe()
        self.reference = {}          # op key -> Outcome from the checked pass
        self.quality = []
        self.check_failures = []
        self.routes = Counter()
        self.errors = Counter()
        self.defect_errors = Counter()
        self.axis_errors = Counter()     # "<probe key>: <exception class>" of traced axis probes
        self.attempted = 0
        self.failed = 0
        self.setup = []              # (raw seconds, speed factor) per launch
        self.passes = []             # per pass: raw and reference-speed op seconds

    # -- passes ------------------------------------------------------------

    def warm_up(self):
        """Untimed first pass; every output goes through its full check."""
        for op in self.wl.ops:
            try:
                out = self.wl.run(op)
            except Exception as exc:           # recorded, never fatal here
                self.check_failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            try:
                chk = self.wl.check(op, out)
            except Exception as exc:
                self.check_failures.append(f"{op.key}: check raised {type(exc).__name__}: {exc}")
                continue
            if not chk.ok:
                self.check_failures.append(f"{op.key}: {chk.detail}")
                continue
            self.reference[op.key] = out
            if chk.quality is not None:
                self.quality.append(chk.quality)

    def one_pass(self, tracer=None):
        """Time every op of the pool once, sampling the speed probe between
        ops, then compare each output with the checked one.  With a tracer,
        each op is announced to it before it runs.  Returns a dict of the
        pass's op times (raw and at reference speed) and completed ops'
        latencies."""
        timed = []
        perf = time.perf_counter
        begin = tracer.begin_op if tracer is not None else None
        for op in self.wl.ops:
            self.probe.maybe_sample()
            if begin is not None:
                begin(op.key, op.n)
            t0 = perf()
            try:
                out = self.wl.run(op)
                err = None
            except Exception as exc:
                out, err = None, type(exc).__name__
            timed.append((op, out, err, t0, perf() - t0))
        self.probe.sample()
        p = {"raw_s": 0.0, "ref_s": 0.0, "completed": 0, "raw_lat": [], "ref_lat": [],
             "keys": []}
        for op, out, err, t0, dt in timed:
            dt_ref = dt * self.probe.factor(t0, t0 + dt)
            p["raw_s"] += dt
            p["ref_s"] += dt_ref
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.errors[err] += 1
                continue
            ref = self.reference.get(op.key)
            if ref is None or not self.wl.same(ref, out):
                self.failed += 1
                self.errors["OutputMismatch"] += 1
                continue
            p["completed"] += 1
            self.routes[out.route] += 1
            p["raw_lat"].append(dt)
            p["ref_lat"].append(dt_ref)
            p["keys"].append(op.key)
        for op in self.wl.defects:
            if begin is not None:
                begin(f"defect/{op.key}", op.n)
            try:
                self.wl.run(op)
                self.defect_errors["completed"] += 1
            except Exception as exc:
                self.defect_errors[type(exc).__name__] += 1
        self.passes.append(p)
        return p

    def setup_probe(self):
        """One set-up launch between two reference launches, which import
        only numpy: set-up time is import-bound, and the in-process kernel
        does not track the speed of a fresh interpreter's imports."""
        probe_dir = tempfile.mkdtemp(dir=self.tmpdir)
        try:
            before = launch_to_ready(REF_LAUNCH)
            raw = launch_to_ready([os.path.join(os.path.dirname(__file__), "worker.py"),
                                   "--probe", self.wl.name, str(self.wl.seed), probe_dir])
            after = launch_to_ready(REF_LAUNCH)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        self.setup.append((raw, REF_LAUNCH_NOMINAL_S / (0.5 * (before + after))))

    def timed(self, passes):
        stride = math.ceil(passes / (SETUP_LAUNCHES - 1))
        self.setup_probe()
        for i in range(passes):
            self.one_pass()
            if (i + 1) % stride == 0 or i + 1 == passes:
                self.setup_probe()
        self.raw_metrics = self.summary("raw")
        ref = self.summary("ref")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (ref["setup_s"], "s"),
            "solves_per_s": (ref["solves_per_s"], "1/s"),
            "op_ms_p50": (ref["op_ms_p50"], "ms"),
            "op_ms_tail": (ref["op_ms_tail"], "ms"),
            "quality_ratio_min": (min(self.quality) if self.quality else math.nan, "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        return self.result(metrics)

    def summary(self, kind):
        """End-to-end timings from raw times or from reference-speed times."""
        lat = [x for p in self.passes for x in p[f"{kind}_lat"]]
        setup = [raw * (factor if kind == "ref" else 1.0) for raw, factor in self.setup]
        pct, value, beyond = tail(lat) if lat else (0.0, math.nan, 0)
        return {"setup_s": statistics.median(setup),
                "solves_per_s": statistics.median(p["completed"] / p[f"{kind}_s"]
                                                  for p in self.passes),
                "op_ms_p50": statistics.median(lat) * 1e3 if lat else math.nan,
                "op_ms_tail": value * 1e3,
                "tail": {"percentile": pct, "samples": len(lat), "beyond": beyond}}

    def traced(self, passes):
        import layers
        import tracer as tracer_mod
        pairs = max(1, min(3, passes // 2))
        walls = {False: [], True: []}
        tr = tracer_mod.Tracer()
        for i in range(pairs):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tr.install()
                    tr.next_pass()
                try:
                    p = self.one_pass(tracer=tr if traced else None)
                finally:
                    if traced:
                        tr.uninstall()
                walls[traced].append(p["ref_s"])
        metrics = layers.per_layer_metrics(tr)
        metrics.update(layers.axis_metrics(tr, self.wl, self.axis_errors))
        metrics.update(launch_metrics())
        metrics["trace_overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]), "s")
        return self.result(metrics)

    # -- reporting ---------------------------------------------------------

    def result(self, metrics):
        correct = not self.check_failures and self.failed == 0 and self.attempted > 0
        for msg in self.check_failures[:20]:
            print(f"check failed: {msg}", file=sys.stderr)
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}

    def record(self):
        import numpy as np
        rec = {
            "workload": self.wl.name, "seed": self.wl.seed,
            "pool_size": len(self.wl.ops), "passes": len(self.passes),
            "pass_op_s": [p["raw_s"] for p in self.passes],
            "routes": dict(self.routes), "errors": dict(self.errors),
            "known_defects": dict(self.defect_errors),
            "axis_errors": dict(self.axis_errors),
            "quality_ratio_min": min(self.quality) if self.quality else None,
            "setup_s_raw": [raw for raw, _ in self.setup],
            "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": _version("scipy"),
                    "blas": _blas_info(np),
                    "blas_threads": {k: os.environ.get(k) for k in
                                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")},
                    "ref_ms": statistics.median(self.probe.ms) if self.probe.ms else None,
                    "ref_nominal_ms": REF_NOMINAL_MS,
                    "ref_samples": len(self.probe.ms)},
        }
        if getattr(self, "raw_metrics", None):
            rec["raw"] = self.raw_metrics
        return rec


def _version(mod):
    try:
        return __import__(mod).__version__
    except ImportError:
        return None


def _blas_info(np):
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:            # the config layout differs between numpy versions
        return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
