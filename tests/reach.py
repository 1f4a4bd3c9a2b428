"""List the library lines that no test runs.

    python tests/reach.py                      # all of tests/
    python tests/reach.py tests/test_gap.py    # any pytest arguments

Runs pytest in this process under a sys.settrace line tracer limited to
src/dcquartic/, then prints each function-body line that no test ran,
as path:line, its function and its source, and exits with pytest's
status.  Besides pytest it needs the standard library only.  Tests
that run the library in a subprocess (tests/test_bench_selftest.py
runs bench/selftest.py, tests/test_blas_kernels.py its own children)
are not traced, so a line that only they reach is listed.  Not
collected by pytest: the file has no test_ prefix.
"""

import inspect
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dcquartic"


def _body_lines(code):
    """{line: qualname} of every function-body line under a module's
    code object; a def (or decorator) line is not a body line."""
    lines = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines.update(_body_lines(const))
    if code.co_flags & inspect.CO_NEWLOCALS:   # a function, not a class body
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                lines.setdefault(line, name)
    return lines


def main(args):
    ran = set()
    traced = {}    # co_filename -> its path under PACKAGE, or None

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            path = Path(os.path.realpath(name))
            traced[name] = path if PACKAGE in path.parents else None
        return local if traced[name] is not None else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran = {(traced[name], line) for name, line in ran}
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = _body_lines(compile(source, str(path), "exec"))
        for line in sorted(set(lines) - {l for p, l in ran if p == path}):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line]}: "
                  f"{text[line - 1].strip()}")
    print(f"{missed} function-body lines in {PACKAGE.relative_to(ROOT)} "
          f"not run; tests that run the library in a subprocess "
          f"(test_bench_selftest.py, test_blas_kernels.py) are not traced")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
