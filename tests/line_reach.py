"""Line-reach gate: every line of every function body in src/relaybeam runs in tier-1.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
and compares the lines that ran with the ``co_lines()`` of every function
code object compiled from ``src/relaybeam/*.py``.  Module and class bodies
are left out: they run at import.  Code that a test runs in a subprocess is
not traced, so a line reached only that way counts as unreached.  Prints each
unreached line that ALLOWED does not list and exits 1 if there is one (or if
a test fails).  Python 3.10 and 3.11 (no ``sys.monitoring``):

    PYTHONPATH=src python tests/line_reach.py [pytest args]
"""
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "relaybeam"
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


if __name__ == "__main__":
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    expected = set()
    for path in sorted(SRC.glob("*.py")):
        expected.update(body_lines(compile(path.read_text(), str(path), "exec")))
    missed = sorted(f"{Path(f).name}:{line}" for f, line in expected - ran)
    missed = [m for m in missed if m not in ALLOWED]
    print(f"line reach: {len(expected) - len(missed)} of {len(expected)} function-body lines ran")
    for m in missed:
        print(f"unreached: src/relaybeam/{m}")
    sys.exit(1 if missed or status else 0)
