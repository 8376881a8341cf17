#!/usr/bin/env python3
"""Print each executable line of ``src/hybridse`` that no test reaches.

It runs the test suite in this process under a ``sys.settrace`` hook that
traces only frames whose code lives in ``src/hybridse``, then prints every
line the compiler made code for and no test executed, one per line as
``path:line: source``, with the path relative to the repository.  pytest's
own report goes to stderr.  It uses only the standard library, so it needs
no coverage package.  Run it from the repository root:

    python3 scripts/untested_lines.py                     # the tier-1 suite
    python3 scripts/untested_lines.py tests/test_loss.py  # one module

Arguments, if any, go to pytest in place of its configured test paths.  The
exit status is pytest's.  The run fixes hypothesis' seed at 0, so the test
inputs it draws, and with them the list, are the same from run to run.

The hook sees this process and the threads it starts, such as the one
``render_scene`` images the noise on.  Lines that run only in a
subprocess, such as ``__main__.py``, the console script, the ``--jobs``
workers and the tests that start a fresh interpreter, are reported as
untested.
"""

import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hybridse"


def executable_lines(path: Path) -> set:
    """The line numbers the compiler attributes code to in ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_traced(pytest_args) -> tuple:
    """``(exit status, reached)``: pytest's exit status for ``pytest_args``
    and the set of ``(filename, line)`` executed in the package meanwhile."""
    import pytest

    prefix = str(PACKAGE) + "/"
    reached = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return trace_lines
        return None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                                  *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main(argv) -> int:
    status, reached = run_traced(argv)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in reached:
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
