"""Line-reach gate: every line of every function body in src/relaybeam runs in tier-1.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
and compares the lines that ran with the ``co_lines()`` of every function
code object compiled from ``src/relaybeam/*.py``.  Module and class bodies
are left out: they run at import.  Code that a test runs in a subprocess is
not traced, so a line reached only that way counts as unreached.  Prints each
unreached line that ALLOWED does not list and exits 1 if there is one (or if
a test fails).  Python 3.10 and 3.11 (no ``sys.monitoring``):

    PYTHONPATH=src python tests/line_reach.py [pytest args]

``--workloads`` instead loads each benchmark workload of ``bench/workloads.py``
once (seed 1), runs every op of its pool once under the same tracer and
prints "workload line reach: X of Y": the lines that users' calls reach, a
report that never fails on the count.  Then, one line per module, most
first, it prints "workload unreached: <module> <count>: <line numbers>",
the function-body lines that no workload reaches.  It edits nothing under
``bench/``:

    PYTHONPATH=src python tests/line_reach.py --workloads
"""
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "relaybeam"
ALLOWED = {}   # "module.py:line" -> the one-line reason it may stay unreached
ran = set()


def local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def trace(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(str(SRC)) else None


def body_lines(code):
    """(file, line) of every instruction of the function code objects in ``code``."""
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if const.co_flags & 0x2:        # CO_NEWLOCALS: a function, not a class body
                yield from ((const.co_filename, line) for _, _, line in const.co_lines()
                            if line is not None and line != const.co_firstlineno)
            yield from body_lines(const)


def traced(fn, *args):
    """fn(*args) with every src/relaybeam line it runs, in any thread, added to ``ran``."""
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)
        threading.settrace(None)


def run_workloads():
    """One pass over every op of each benchmark workload; returns the ops that
    raised, as "workload op: exception class" (a failing op is reported, not fatal)."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    os.chdir(ROOT)      # cli-paper names its sample scenarios relative to the root
    raised = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for name in workloads.WORKLOADS:
            wl = workloads.load(name, 1, tmpdir)
            for op in wl.ops:
                try:
                    wl.run(op)
                except Exception as exc:
                    raised.append(f"{name} {op.key}: {type(exc).__name__}")
    return raised


def unreached():
    """The function-body lines of src/relaybeam that did not run, as "module.py:line",
    and the number of such lines in all."""
    expected = set()
    for path in sorted(SRC.glob("*.py")):
        expected.update(body_lines(compile(path.read_text(), str(path), "exec")))
    return sorted(f"{Path(f).name}:{line}" for f, line in expected - ran), len(expected)


if __name__ == "__main__":
    if sys.argv[1:] == ["--workloads"]:
        raised = traced(run_workloads)
        missed, total = unreached()
        print(f"workload line reach: {total - len(missed)} of {total}")
        by_module = {}
        for m in missed:
            module, line = m.split(":")
            by_module.setdefault(module, []).append(int(line))
        for module, lines in sorted(by_module.items(), key=lambda item: (-len(item[1]), item[0])):
            print(f"workload unreached: {module} {len(lines)}: {' '.join(map(str, sorted(lines)))}")
        for r in raised:
            print(f"raised: {r}")
        sys.exit(0)
    status = traced(pytest.main, ["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    missed, total = unreached()
    missed = [m for m in missed if m not in ALLOWED]
    print(f"line reach: {total - len(missed)} of {total} function-body lines ran")
    for m in missed:
        print(f"unreached: src/relaybeam/{m}")
    sys.exit(1 if missed or status else 0)
