"""Shared plumbing for the benchmark scripts in this directory.

Importing this module pins BLAS to one thread unless the environment already
says otherwise.  It is set before numpy loads, so it takes effect, and it
keeps all the program's work on the main thread, whose CPU time the
benchmark measures.  :func:`import_nctrace` puts the checkout's ``src``
first on ``sys.path`` and imports ``nctrace`` from there and nowhere else.
A checkout without ``src/nctrace`` makes it fail, so no benchmark result is
ever printed for code that is not there.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no importable ``nctrace`` under ``src``."""


def import_nctrace():
    """Import ``nctrace`` from this checkout's ``src`` only."""
    if not (SRC / "nctrace" / "__init__.py").is_file():
        raise MissingProgram(f"no nctrace package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nctrace

    origin = Path(nctrace.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"nctrace was imported from {origin}, not {SRC}")
    return nctrace


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "machine": platform.machine(),
    }


@dataclass
class Call:
    """One in-process CLI invocation: exit code (None if it raised), output,
    elapsed clock time and the CPU time of the main thread."""

    code: int | None
    stdout: str
    stderr: str
    elapsed: float
    cpu: float
    error: str | None = None
    marks: tuple = (0, 0)  # calibrator marks at the start and the end


def call_cli(cli, argv: list[str], mark=None) -> Call:
    """Run ``cli.main(argv)`` in this process; time it by clock and by CPU.

    ``cli.main`` is looked up on every call, so tracing wrappers installed on
    the module are used.  An exception or an argparse exit is recorded, not
    raised: the benchmark must keep running and count it as a failed op.
    ``mark``, when given, is called as the timing starts and ends (see
    ``speed.Calibrator.mark``).
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    first = mark() if mark else 0
    cpu_start = time.thread_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = None
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # counted as a failed op, with its message
            code = None
            error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    cpu = time.thread_time() - cpu_start
    last = mark() if mark else 0
    return Call(code, out.getvalue(), err.getvalue(), elapsed, cpu, error, (first, last))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]
