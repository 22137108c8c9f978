"""Run the test suite under a line tracer and list every ``raise`` statement
in ``src/blochsig/`` that no test runs.

    PYTHONPATH=src python tests/raise_lines.py [PYTEST_ARGS...]

Every ``raise`` is found with ``ast`` and counts as run when a line it spans
ran.  Only frames of ``src/blochsig/`` files are traced, with the standard
library's ``sys.settrace``; code that a test runs in another thread or
process is not seen.  The exit code is pytest's when a test fails,
else 1 when a ``raise`` never ran (each is listed as ``file:line``), else 0.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "blochsig"


def main(args: list[str]) -> int:
    spans = {  # the first and last line of each raise statement, per file
        str(path): [(n.lineno, n.end_lineno) for n in ast.walk(ast.parse(path.read_text()))
                    if isinstance(n, ast.Raise)]
        for path in sorted(SRC.glob("*.py"))
    }
    wanted = {path: {line for first, last in s for line in range(first, last + 1)}
              for path, s in spans.items()}
    ran = {path: set() for path in spans}
    files = {}  # code filename -> its real path, or None outside src/blochsig

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = path if path in wanted else None
        path = files[name]
        if path is None:
            return None
        lines, hit = wanted[path], ran[path]

        def lines_of(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                hit.add(frame.f_lineno)
            return lines_of

        return lines_of

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    if code != 0:
        return code
    missed = [f"{os.path.relpath(path)}:{first}" for path, s in spans.items()
              for first, last in s if ran[path].isdisjoint(range(first, last + 1))]
    total = sum(map(len, spans.values()))
    if missed:
        print(f"{len(missed)} of {total} raise statements in src/blochsig/ never ran:")
        print("\n".join(missed))
        return 1
    print(f"all {total} raise statements in src/blochsig/ ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
