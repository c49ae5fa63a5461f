"""Check the README's worst-case sizes of the ``certify.cyclic_classes`` cache.

    python tests/cache_sizes.py

Reads the ``certify.cyclic_classes`` row of the README's process-cache
table: its "C + A MiB at (n, d)" figures, the classes and the anchor of a
cell, and its "T MiB in all", what the eight cells (583..590, 1) keep, the
largest at the size limit.  Builds each of those cells under
``tracemalloc``, after clearing every cache of the package, and takes the
memory it holds: first its classes, then, once its anchor is read, the
anchor.  Then builds the eight cells and their anchors into the cache
together and takes what they hold.  Every other cache is cleared before
each reading, so only ``cyclic_classes`` is counted.  A cell at (1, 1) is
built first, so the modules that a build imports are not counted.

Prints each figure next to the README's and exits 1 when one, rounded to
0.1 MiB, exceeds it, or when the README states none.  pytest does not
collect it (its name does not start with ``test``).
"""

from __future__ import annotations

import gc
import re
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import harness  # first: pins BLAS threads before numpy loads

NEIGHBOURS = [(n, 1) for n in range(583, 591)]
MIB = 2**20


def readme_figures() -> tuple[dict, float | None]:
    """The row's {(n, d): (classes MiB, anchor MiB)} and its total."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line.startswith("| `certify.cyclic_classes` |")]
    row = rows[0] if rows else ""
    cells = {
        (int(n), int(d)): (float(c), float(a))
        for c, a, n, d in re.findall(r"([\d.]+) \+ ([\d.]+) MiB at \((\d+), (\d+)\)", row)
    }
    total = re.search(r"([\d.]+) MiB in all", row)
    return cells, total and float(total.group(1))


def main() -> int:
    harness.import_nctrace()
    from nctrace import certify
    from helpers import package_caches  # after the checkout's nctrace is imported

    def traced() -> float:
        """MiB traced now, with every cache but cyclic_classes cleared."""
        for cache in package_caches().values():
            if cache is not certify.cyclic_classes:
                cache.cache_clear()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / MIB

    def start() -> None:
        for cache in package_caches().values():
            cache.cache_clear()
        gc.collect()
        tracemalloc.start()

    certify.cyclic_classes(1, 1).anchor
    cells, total = readme_figures()
    over = 0

    def report(name: str, got: float, stated: float | None) -> None:
        nonlocal over
        fails = stated is None or round(got, 1) > stated
        over += fails
        print(f"{name}: {got:.1f} MiB (README {stated}){'  EXCEEDS' if fails else ''}")

    for (n, d), (classes_mib, anchor_mib) in cells.items():
        start()
        cell = certify.cyclic_classes(n, d)
        classes = traced()
        cell.anchor
        anchor = traced() - classes
        tracemalloc.stop()
        report(f"({n}, {d}) classes", classes, classes_mib)
        report(f"({n}, {d}) anchor", anchor, anchor_mib)
        del cell
    start()
    for n, d in NEIGHBOURS:
        certify.cyclic_classes(n, d).anchor
    report("eight cells (583..590, 1)", traced(), total)
    tracemalloc.stop()
    if not cells:
        print("the README's cyclic_classes row states no cell")
        over += 1
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
