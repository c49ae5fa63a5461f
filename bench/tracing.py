"""Spans around the public functions of every nctrace module.

The tracer replaces each public module-level function of the layers below
with a wrapper, under every name by which any nctrace module holds it: a
function imported into another module (``cli.certify_sos``,
``certify.feasibility_solve``, ``moments.cyclic_canonical``) is a separate
global there and would otherwise be missed, and so would a call through the
defining module's own globals (``sdp.project_psd`` inside
``feasibility_solve``).  Methods are not wrapped.

A span is (name, start, end, parent span, op id).  Spans stay in memory in
flat arrays and are written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "nctrace"
LAYERS = ("cli", "parsing", "algebra", "sdp", "certify", "moments", "gns", "sampling")

# The functions whose calls, total and self time the benchmark reports.
REPORTED = (
    "cli.main",
    "parsing.parse_poly",
    "parsing.format_poly",
    "algebra.cyclic_canonical",
    "algebra.star_product",
    "algebra.evaluate",
    "sdp.project_affine",
    "sdp.project_psd",
    "sdp.feasibility_solve",
    "sdp.minimize_linear",
    "certify.certify_sos",
    "certify.build_gram_problem",
    "certify.extract_factors",
    "certify.witness_search",
    "certify.falsify",
    "certify.verify_certificate",
    "certify.validate_witness",
    "moments.moment_sequence",
    "moments.check_w_membership",
    "moments.moment_matrix",
    "moments.psd_check",
    "gns.gns_build",
    "gns.verify_moments",
    "gns.verify_trace_property",
    "gns.norm_bound_check",
    "sampling.random_tuple",
    "sampling.structured_library",
)
COUNTERS = ("sdp.feasibility_solve.iterations", "sdp.affine_rows")
# Spans count toward the program's metrics when they run under ``cli.main``.
# The benchmark's checks call the library directly; of their spans only
# these entry points are reported, so a check's re-parsing or polynomial
# arithmetic never inflates the numbers of the program's own path.
PROGRAM_ROOT = "cli.main"
CHECK_ENTRIES = ("certify.verify_certificate", "certify.validate_witness")


def _rows(constraints) -> int:
    try:
        return len(constraints)
    except TypeError:
        return 0


def _feasibility_counts(args, kwargs, result) -> dict:
    constraints = args[0] if args else kwargs.get("constraints")
    return {
        "sdp.feasibility_solve.iterations": int(getattr(result, "iterations", 0)),
        "sdp.affine_rows": _rows(constraints),
    }


def _minimize_counts(args, kwargs, result) -> dict:
    constraints = args[1] if len(args) > 1 else kwargs.get("constraints")
    return {"sdp.affine_rows": _rows(constraints)}


# Counts read off a call's arguments and result: solver iterations from the
# returned report, and the length of each affine constraint system solved.
_OBSERVERS = {
    "sdp.feasibility_solve": _feasibility_counts,
    "sdp.minimize_linear": _minimize_counts,
}


class Tracer:
    """Installs span-recording wrappers; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("q")
        self.op_of: array = array("q")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        observe = _OBSERVERS.get(qualname)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # The originals stay referenced by their modules, so ids stay unique.
        for name, module in sorted(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_of, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per function and per layer: calls, total time and self time.

        Only spans under ``cli.main`` count, plus the check entry points'
        own spans.  A function's total time counts only spans whose direct
        parent is not the same function, so direct recursion is not counted
        twice.
        """
        a = self.arrays()
        count = len(self.names)
        name = a["name"]
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        parents = a["parent"][has_parent]
        child_time = np.bincount(parents, weights=duration[has_parent], minlength=len(duration))
        self_time = duration - child_time
        # Pointer jumping: a root is its own parent, so this converges on it.
        root = np.where(has_parent, a["parent"], np.arange(len(duration)))
        while not np.array_equal(root[root], root):
            root = root[root]
        ids = {n: i for i, n in enumerate(self.names)}
        counted = np.isin(name[root], [ids.get(PROGRAM_ROOT, -1)])
        counted |= np.isin(name, [ids[n] for n in CHECK_ENTRIES if n in ids])
        outer = np.ones(len(duration), dtype=bool)
        outer[has_parent] = name[parents] != name[has_parent]
        calls = np.bincount(name[counted], minlength=count)
        total = np.bincount(name[counted & outer], weights=duration[counted & outer], minlength=count)
        own = np.bincount(name[counted], weights=self_time[counted], minlength=count)

        out = {}
        for qualname in REPORTED:
            out[f"{qualname}.calls"] = 0
            out[f"{qualname}.s"] = 0.0
            out[f"{qualname}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for i, qualname in enumerate(self.names):
            layer = qualname.split(".", 1)[0]
            if qualname not in CHECK_ENTRIES:
                out[f"{layer}.calls"] += int(calls[i])
                out[f"{layer}.self_s"] += float(own[i])
            if qualname in REPORTED:
                out[f"{qualname}.calls"] = int(calls[i])
                out[f"{qualname}.s"] = float(total[i])
                out[f"{qualname}.self_s"] = float(own[i])
        out.update(self.counters)
        return out
