"""List the lines of ``src/nctrace`` that no tier-1 test runs.

    python tests/line_coverage.py [pytest arguments]

Runs the tier-1 suite (``tests/``, or the pytest arguments given) in this
process under a line tracer, set with ``sys.settrace`` and
``threading.settrace`` before anything of ``nctrace`` is imported, that
records only frames of code in ``src/nctrace``.  Every executable line of
the package is a line number of some code object's ``co_lines()``, nested
code objects included; each one the tracer never saw is printed.  Exits 1
when the suite fails, or when a line no test ran is not in ``ALLOWED``,
which gives the reason each of its lines cannot run in-process.  The lines
a module compiles to differ between Python versions, so CI runs this on
one.  Tracing makes the suite two to three times slower.  pytest does not
collect this file (its name does not start with ``test``).
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nctrace"

# (file, stripped source line) -> why no in-process test can run the line.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): (
        "the module's __main__ call; only the subprocess tests run it"
    ),
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from path."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on args, and the lines run in each file of SRC."""
    prefix = str(SRC) + os.sep
    wanted: dict[str, str | None] = {}  # co_filename -> its real path, if in SRC
    seen: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            real = os.path.realpath(name)
            wanted[name] = real if real.startswith(prefix) else None
        real = wanted[name]
        if real is None:
            return None
        hits = seen.setdefault(real, set())
        hits.add(frame.f_lineno)  # the call event's line

        def local(frame, event, arg):
            hits.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = argv or ["--continue-on-collection-errors", str(ROOT / "tests")]
    code, seen = traced_run(["-q", *args])
    unexplained = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - seen.get(str(path), set()))
        for line in missed:
            text = source[line - 1].strip()
            reason = ALLOWED.get((path.name, text))
            unexplained += reason is None
            note = f"allowed: {reason}" if reason else "NOT RUN"
            print(f"src/nctrace/{path.name}:{line}: {text}  [{note}]")
    print(f"pytest exit code {code}; {unexplained} line(s) run by no test and not allowed")
    return 1 if code or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
