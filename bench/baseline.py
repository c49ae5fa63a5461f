"""Reproduce the ROADMAP baseline cells: certify and witness at three sizes.

    python3 bench/baseline.py

The input is the commutator square ``Y1^2 Y2^2 + Y2^2 Y1^2 - Y1 Y2 Y1 Y2 -
Y2 Y1 Y2 Y1`` (``+ Y3^2`` at n = 3), certified at (n, d) = (2, 2), (3, 2)
and (2, 3); ``witness`` runs on its negation at the same cells (exact
optimum -4, and -5 at n = 3).  Each cell goes through the in-process CLI
with program defaults; certify cells report the median of three calls, and
witness cells one call (its iteration count is fixed), each by the clock,
in CPU time and in CPU time at the reference speed (``speed.py``).  Prints
one JSON object with the environment and a row per cell.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import harness  # first: pins BLAS threads before numpy loads

import speed
import workloads

SQUARE = {(1, 1, 2, 2): 1.0, (2, 2, 1, 1): 1.0, (1, 2, 1, 2): -1.0, (2, 1, 2, 1): -1.0}
CELLS = ((2, 2), (3, 2), (2, 3))
CERTIFY_REPS = 3


def main() -> int:
    try:
        nct = harness.import_nctrace()
    except (harness.MissingProgram, ImportError) as exc:
        print(f"baseline: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import nctrace.cli  # noqa: F401

    harness.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="baseline-", dir=harness.OUT_DIR))
    rows = []
    calibrator = speed.Calibrator()
    try:
        for n, d in CELLS:
            terms = dict(SQUARE)
            if n == 3:
                terms[(3, 3)] = 1.0
            for command, sign, reps, expect in (("certify", 1, CERTIFY_REPS, 0),
                                                 ("witness", -1, 1, 2)):
                path = work / f"{command}-n{n}d{d}.poly"
                path.write_text(workloads.format_terms({w: sign * c for w, c in terms.items()}) + "\n")
                argv = [command, str(path), "--degree", str(d)]
                with calibrator:
                    calls = [harness.call_cli(nct.cli, argv, calibrator.mark) for _ in range(reps)]
                timed = [calibrator.measure(*c.marks, c.cpu, c.elapsed) for c in calls]
                payload = json.loads(calls[-1].stdout) if calls[-1].stdout else {}
                rows.append({
                    "command": command, "n": n, "d": d,
                    "seconds": statistics.median(t[1] for t in timed),
                    "cpu_seconds": statistics.median(t[0] for t in timed),
                    "cpu_ref_seconds": statistics.median(t[2] for t in timed),
                    "exit": [c.code for c in calls],
                    "expected_exit": expect,
                    "residual_l1": payload.get("residual_l1"),
                    "value": payload.get("value"),
                    "exact": (-4.0 - (n == 3)) if command == "witness" else None,
                })
    finally:
        shutil.rmtree(work)
    print(json.dumps({"environment": harness.environment(), "cells": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
