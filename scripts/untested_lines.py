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
``render_scene`` images the noise on.  It also sees each fresh interpreter
a test starts with the environment it inherits, such as ``python -m
hybridse``: a ``sitecustomize`` module on the child's ``PYTHONPATH``
installs the same hook there, and at exit the child writes the lines it
reached to a file that this process merges.  Lines that run only in a
forked ``--jobs`` worker are still reported as untested, since a worker
leaves without running exit handlers.
"""

import atexit
import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hybridse"

# the sitecustomize a traced test's fresh interpreters import at start-up:
# it loads this script as a module and traces the interpreter
_SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("untested_lines", {script!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.trace_this_process({out_dir!r})
"""


def executable_lines(path: Path) -> set:
    """The line numbers the compiler attributes code to in ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def tracer(reached: set):
    """A ``sys.settrace`` hook that adds each ``(filename, line)`` executed
    in the package to ``reached``."""
    prefix = str(PACKAGE) + "/"

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return trace_lines
        return None

    return trace_calls


def trace_this_process(out_dir: str) -> None:
    """Trace this interpreter and the threads it starts; at exit, write the
    lines reached to a new file in ``out_dir``, one ``line<TAB>filename``
    per line."""
    reached = set()
    hook = tracer(reached)
    threading.settrace(hook)
    sys.settrace(hook)

    def save():
        fd, _ = tempfile.mkstemp(suffix=".lines", dir=out_dir)
        with os.fdopen(fd, "w") as fh:
            fh.writelines(f"{line}\t{name}\n" for name, line in reached)

    atexit.register(save)


def run_traced(pytest_args) -> tuple:
    """``(exit status, reached)``: pytest's exit status for ``pytest_args``
    and the set of ``(filename, line)`` executed in the package meanwhile,
    by this process or by an interpreter a test started."""
    import pytest

    reached = set()
    hook = tracer(reached)
    sys.path.insert(0, str(PACKAGE.parent))
    old_path = os.environ.get("PYTHONPATH")
    with tempfile.TemporaryDirectory() as child_dir:
        Path(child_dir, "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(script=str(Path(__file__).resolve()), out_dir=child_dir))
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [child_dir, old_path]))
        threading.settrace(hook)
        sys.settrace(hook)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                                      *pytest_args])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            if old_path is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = old_path
        for path in Path(child_dir).glob("*.lines"):
            for record in path.read_text().splitlines():
                line, name = record.split("\t", 1)
                reached.add((name, int(line)))
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
