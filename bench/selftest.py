"""Quick self-test of the benchmark; run from the root of a checkout:

    python3 bench/selftest.py

Runs every workload at minimal length, untraced and traced, and checks the
result object against BENCHMARK.json; checks that uninstalling the tracer
restores every original binding; checks that an axis probe that raises is
counted, not fatal; checks the tail-percentile rule; and checks that run.py
refuses a directory without relaybeam sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workloads(spec):
    names = {"0": {m["name"] for m in spec["end_to_end"]},
             "1": {m["name"] for m in spec["per_layer"]}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc = run_bench(wl, trace)
            assert proc.returncode == 0, f"{wl} trace={trace}: {proc.stderr[-2000:]}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, (wl, trace, result)
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == names[trace], (
                wl, trace, set(result["metrics"]) ^ names[trace])
            for name, m in result["metrics"].items():
                assert m["unit"] == units[name], (name, m)
                assert isinstance(m["value"], float) and m["value"] == m["value"], (name, m)
            print(f"ok  {wl} --trace {trace}: {result['attempted']} ops")


def check_tracer_restores():
    import relaybeam.cli  # noqa: F401  (loads every traced module)
    import tracer
    before = tracer.snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        during = tracer.snapshot()
        changed = {k for k in before if before[k] != during[k]}
        # re-exports and from-import copies are rebound, not just the module attribute
        for key in (("relaybeam", "build_stats"), ("relaybeam.channel", "build_stats"),
                    ("relaybeam.cli", "solve_relaxation"), ("relaybeam.sdp", "solve_relaxation"),
                    ("relaybeam.total_power", "newton_solve"),
                    ("relaybeam.channel.ChannelStats", "__init__")):
            assert key in changed, f"{key} not wrapped"
        assert ("relaybeam.linalg", "hermitian") not in changed
        assert ("relaybeam.total_power", "eig_derivatives") not in changed
    finally:
        tr.uninstall()
    assert tracer.snapshot() == before, "uninstall left a wrapper behind"
    print(f"ok  tracer wraps {len(changed)} bindings and restores all of them")


def check_axis_probe_errors():
    """A probe that raises is counted and timed, and the run goes on."""
    from collections import Counter

    import layers
    import relaybeam.indiv_search as indiv_search
    import tracer

    class Probes:
        @staticmethod
        def axis_probes():
            def stuck():
                indiv_search.coordinate_descent(None, None)
            return [("cdm/n64", 64, stuck)]

    tr, errors = tracer.Tracer(), Counter()
    m = layers.axis_metrics(tr, Probes, errors)
    assert errors == {"cdm/n64: AttributeError": 1}, errors
    assert m["axis.n64.indiv_search.coordinate_descent.s"][0] > 0.0, m
    print("ok  an axis probe that raises is counted, not fatal")


def check_tail():
    from worker import tail
    p, value, beyond = tail(list(range(1, 1001)))
    assert (p, value, beyond) == (99.0, 990, 10), (p, value, beyond)
    p, value, beyond = tail(list(range(1, 41)))
    assert (p, value, beyond) == (75.0, 30, 10), (p, value, beyond)
    print("ok  tail percentile keeps at least 10 samples beyond it")


def check_refuses_bare_directory():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-selftest-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("total-sweep", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses a directory without relaybeam sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_tail()
    check_tracer_restores()
    check_axis_probe_errors()
    check_refuses_bare_directory()
    check_workloads(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
