"""Check that every benchmark op writes the same bytes with cold, warm and
no per-(n, D) caches.

    python tests/op_hashes.py --seed 1
    python tests/op_hashes.py --seed 1 --list

Builds the inputs and op lists of the three benchmark workloads
(``bench/workloads.py``) at one seed, writes the inputs to a temporary
directory and runs every op through the in-process CLI three times in one
process: first after clearing every ``functools`` cache of ``nctrace``,
then again with the caches the first pass left warm, then cleared again
with ``moments.MAX_CACHED_SIZE`` set to 0, so that no per-(n, D) entry is
kept.  Exits 1 naming each op whose exit code, stdout or stderr differs
between the passes.
Otherwise it prints a SHA-256 over each workload's ops' exit codes, stdout
and stderr, with the temporary directory written as ``WORK``, and one over
all three, so two checkouts can be compared by their digests, workload by
workload.  With ``--list`` it also prints, before each workload's digest,
one line per op: its workload, index, command, source and the SHA-256 of
its own outputs, so that diffing two checkouts' output names the ops whose
outputs moved.  It reads ``bench/`` and writes nothing there.  pytest
does not collect it (its name does not start with ``test``).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import harness  # first: pins BLAS threads before numpy loads

import workloads


def run_ops(nct, wl, work: Path) -> list[tuple]:
    """(exit code, stdout, stderr, error) of each op, run in order."""
    results = []
    for op in wl.ops:
        call = harness.call_cli(nct.cli, op.argv(work))
        if op.output:
            (work / op.output).write_text(call.stdout, encoding="utf-8")
        texts = (call.stdout, call.stderr, call.error or "")
        results.append((call.code, *(text.replace(str(work), "WORK") for text in texts)))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--list", action="store_true", help="print one digest per op")
    args = parser.parse_args(argv)
    nct = harness.import_nctrace()
    from helpers import package_caches  # after the checkout's nctrace is imported

    def clear_caches():
        for cache in package_caches().values():
            cache.cache_clear()

    digest, count, differ, lines = hashlib.sha256(), 0, [], []
    for name in workloads.WORKLOADS:
        own = hashlib.sha256()
        wl = workloads.build(name, args.seed)
        with tempfile.TemporaryDirectory(prefix=f"{name}-") as tmp:
            work = Path(tmp)
            wl.write(work)
            clear_caches()
            cold = run_ops(nct, wl, work)
            warm = run_ops(nct, wl, work)
            clear_caches()
            limit = nct.moments.MAX_CACHED_SIZE
            nct.moments.MAX_CACHED_SIZE = 0
            try:
                unkept = run_ops(nct, wl, work)
            finally:
                nct.moments.MAX_CACHED_SIZE = limit
        for k, (op, first, *others) in enumerate(zip(wl.ops, cold, warm, unkept)):
            for other, label in zip(others, ("warm", "limit-0")):
                if other != first:
                    differ.append(
                        f"{name} op {k} ({op.command} {op.input}): cold and {label} outputs differ"
                    )
            entry = repr((name, k, *first)).encode("utf-8")
            digest.update(entry)
            own.update(entry)
            if args.list:
                each = hashlib.sha256(entry).hexdigest()
                lines.append(f"{name} {k} {op.command} {op.source} {each}")
        count += len(wl.ops)
        lines.append(f"{name}: {len(wl.ops)} ops, sha256 {own.hexdigest()}")
    for line in differ:
        print(line)
    if differ:
        return 1
    print("\n".join(lines))
    alike = "cold, warm and limit-0 alike"
    print(f"seed {args.seed}: {count} ops, {alike}, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
