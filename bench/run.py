"""Run one nctrace benchmark workload and print its metrics.

    python3 bench/run.py --workload certify-grid --seed 1 --seconds 15 --trace 0

Inputs are generated from ``--seed`` (see ``workloads.py``) and fed to the
in-process CLI, ``nctrace.cli.main(argv)``, with program defaults only.  One
pass runs the workload's op list once, in order; passes repeat while the
next one is expected to finish within ``--seconds``, and at least one pass
always runs.  Every op's output is checked independently (``checks.py``).

``wall_s`` is the median over passes of the clock time the program spent on
a pass and ``cpu_s`` of its process CPU time; the program runs
single-threaded here (BLAS is pinned to one thread) and barely waits on I/O,
so the two agree on an idle machine.  On a shared virtual machine neither is
steady, so the gated ``cpu_ref_s`` and ``setup_s``, and the per-command
percentiles, are CPU times converted to a reference machine speed that
``speed.py`` measures with calibration ticks run during the passes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one plain
pass and then one pass with spans around every public nctrace function
(``tracing.py``) and reports the per-layer metrics, the traced pass's wall
time and the tracing overhead.  Both print a readable report first and, as
the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record, with the
environment and every op's time and verdict, goes to ``bench/out/``, and a
traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import harness  # first: pins BLAS threads before numpy loads

import checks
import speed
import tracing
import workloads

SETUP_REPS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import nctrace.cli; print(time.process_time() - t)"
)
# End-to-end metrics reported on every workload (the ones BENCHMARK.json gates).
GATED = ("cpu_ref_s", "setup_s")


@dataclass
class Record:
    op: workloads.Op
    elapsed: float
    cpu: float
    cpu_ref: float | None  # CPU seconds at the reference speed (speed.py)
    verdict: checks.Verdict


def import_seconds() -> float:
    """CPU time to import the CLI in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(harness.SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def set_up(name: str, seed: int, calibrator):
    """CPU time of the import plus input generation, repeated.

    Returns the median at the reference speed, with the inputs and the
    directory they were written to.
    """
    harness.OUT_DIR.mkdir(exist_ok=True)
    times, work, workload = [], None, None
    for _ in range(SETUP_REPS):
        first, start = calibrator.mark(), time.thread_time()
        imported = import_seconds()
        built = workloads.build(name, seed)
        fresh = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=harness.OUT_DIR))
        built.write(fresh)
        cpu = imported + time.thread_time() - start
        times.append(calibrator.measure(first, calibrator.mark(), cpu, 0.0)[2])
        if workload is not None and built.files != workload.files:
            raise RuntimeError("input generation is not deterministic")
        if work is not None:
            shutil.rmtree(work)
        work, workload = fresh, built
    return statistics.median(times), workload, work


def run_pass(wl, work, nct, calibrator=None, tracer=None, first_op=0) -> list[Record]:
    """Run the op list once; with a calibrator, ticks are taken out of op times."""
    records = []
    for k, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = first_op + k
        call = harness.call_cli(nct.cli, op.argv(work), calibrator and calibrator.mark)
        cpu, elapsed, cpu_ref = call.cpu, call.elapsed, None
        if calibrator is not None:
            cpu, elapsed, cpu_ref = calibrator.measure(*call.marks, call.cpu, call.elapsed)
        if op.output:
            (work / op.output).write_text(call.stdout, encoding="utf-8")
        verdict = checks.judge(op, call, wl, work, nct)
        records.append(Record(op, elapsed, cpu, cpu_ref, verdict))
    return records


def pass_wall(records) -> float:
    """Time the program spent on one pass, without the benchmark's checks."""
    return sum(r.elapsed for r in records)


def command_metrics(records, passes, setup_s) -> dict:
    """Every end-to-end metric that applies: name -> (value, unit, samples)."""
    failed = sum(r.verdict.kind is not None for r in records)
    out = {
        "setup_s": (setup_s, "s", SETUP_REPS),
        "cpu_ref_s": (statistics.median(sum(r.cpu_ref for r in p) for p in passes), "s", len(passes)),
        "cpu_s": (statistics.median(sum(r.cpu for r in p) for p in passes), "s", len(passes)),
        "wall_s": (statistics.median(pass_wall(p) for p in passes), "s", len(passes)),
        "ops_failed_frac": (failed / len(records), "1", len(records)),
    }
    for command, quantiles in (
        ("certify", (0.5, 0.9)),
        ("witness", (0.5,)),
        ("gns-check", (0.5, 0.9)),
        ("falsify", (0.5,)),
        ("moments", (0.5,)),
    ):
        times = [r.cpu_ref for r in records if r.op.command == command]
        if times:
            for q in quantiles:
                key = f"{command.replace('-', '_')}_p{round(q * 100)}_ms"
                out[key] = (1e3 * harness.percentile(times, q), "ms", len(times))
    for key, measure in (("cert_residual_max", "residual"), ("witness_err_max", "witness_err")):
        values = [r.verdict.measures[measure] for r in records if measure in r.verdict.measures]
        if values:
            out[key] = (max(values), "1", len(values))
    return out


def failure_lines(records) -> list[str]:
    kinds = Counter(
        (r.op.command, r.verdict.kind, (r.verdict.detail.splitlines() or [""])[0][:100])
        for r in records if r.verdict.kind is not None
    )
    return [f"  failed {n:4d} x {cmd} [{kind}] {detail}" for (cmd, kind, detail), n in sorted(kinds.items())]


def report(args, env, named, records, layer=None):
    print(f"nctrace benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for key, (value, unit, samples) in named.items():
        note = ""
        if key.endswith("_p90_ms") and samples < 100:
            note = "  (fewer than ten samples beyond p90)"
        print(f"  {key:<20} {value:>14.6g} {unit:<3} n={samples}{note}")
    for line in failure_lines(records):
        print(line)
    if layer:
        print("per-layer self time of the traced pass:")
        for name in tracing.LAYERS:
            print(f"  {name:<10} calls={layer[name + '.calls']:<9d} self_s={layer[name + '.self_s']:.4f}")
        print(f"  traced pass {layer['trace.wall_s']:.3f} s, "
              f"overhead {layer['trace.overhead_s']:+.3f} s over the plain pass")


def layer_unit(name: str) -> str:
    return "s" if name.endswith((".s", "_s")) else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        nct = harness.import_nctrace()
    except (harness.MissingProgram, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import nctrace.cli  # noqa: F401  (makes nct.cli and every layer importable)

    env = harness.environment()
    calibrator = speed.Calibrator()
    with calibrator:
        setup_s, wl, work = set_up(args.workload, args.seed, calibrator)
    try:
        passes, layer, traced = [], None, []
        started = time.perf_counter()
        with calibrator:
            while True:
                pass_started = time.perf_counter()
                passes.append(run_pass(wl, work, nct, calibrator))
                now = time.perf_counter()
                if args.trace or now - started + (now - pass_started) > args.seconds:
                    break
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(wl, work, nct, tracer=tracer, first_op=len(wl.ops))
            finally:
                tracer.uninstall()
            layer = tracer.summary()
            layer["trace.wall_s"] = pass_wall(traced)
            layer["trace.overhead_s"] = pass_wall(traced) - pass_wall(passes[0])
            tracer.save(harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(work)

    records = [r for p in passes for r in p]
    named = command_metrics(records, passes, setup_s)
    report(args, env, named, records, layer)
    records += traced
    failed = sum(r.verdict.kind is not None for r in records)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": named[k][0], "unit": named[k][1]} for k in GATED}
    result = {
        "correct": not any(r.verdict.kind == "wrong" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "args": vars(args),
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "per_layer": layer,
        "ops": [
            {"command": r.op.command, "input": r.op.input, "elapsed_s": r.elapsed,
             "cpu_s": r.cpu, "cpu_ref_s": r.cpu_ref, "kind": r.verdict.kind, "detail": r.verdict.detail[:500]}
            for r in records
        ],
        "result": result,
    }
    out_file = harness.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
