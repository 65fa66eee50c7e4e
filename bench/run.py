"""Benchmark entry point; run from the root of a relaybeam checkout.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Starts one worker process for the workload with OpenBLAS and OpenMP pinned
to one thread and relaybeam imported from ./src, waits for it, and passes
its output through.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run record (environment, routes, error classes, set-up samples).  Exits
non-zero without a result when the checkout has no ./src/relaybeam or the
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TMP_ROOT = ".bench_tmp"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "relaybeam", "__init__.py")):
        print("error: no relaybeam sources at ./src/relaybeam; run from the root "
              "of a relaybeam checkout", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), tmpdir]
    # the worker leads its own process group, so a timeout also stops the
    # interpreters it launches
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass                 # another run still uses it
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("error: worker printed no result", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
