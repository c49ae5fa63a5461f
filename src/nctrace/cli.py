"""Command-line interface.

Commands::

    nctrace certify   POLYFILE   [--degree D] [--tol T]
    nctrace witness   POLYFILE   [--degree D] [--radius R] [--tol T]
    nctrace falsify   POLYFILE   [--trials K] [--size N] [--radius R] [--seed S]
    nctrace moments   MATRIXJSON --degree D [--tol T]
    nctrace gns-check INPUTJSON  [--degree D] [--radius R] [--tol T]
    nctrace norm      POLYFILE   [--radius R]

Exit codes: 0 for the affirmative or neutral outcome, 2 for a well-formed
negative finding (infeasible, witness found, falsified, checks failed),
1 for usage or input errors.  Output is JSON on stdout (or ``--out``);
identical invocations produce byte-identical output.

Polynomial files use the text grammar of :mod:`nctrace.parsing`; the
variable count is inferred as the largest index appearing in the file.
Matrix tuples are JSON objects ``{"n": ..., "N": ..., "matrices": [...]}``
with each matrix a row-major N x N array of ``[re, im]`` pairs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .algebra import NCPoly
from .certify import (
    Certificate,
    SolverStalled,
    certify_sos,
    checked_witness,
    falsify,
    witness_search,
)
from .gns import gns_build, norm_bound_check, verify_moments, verify_trace_property
from .moments import (
    MatrixTuple,
    MomentSequence,
    as_matrix_tuple,
    check_w_membership,
    moment_sequence,
)
from .parsing import PolyParseError, format_poly, parse_poly, strip_comments
from .sdp import InconsistentConstraints, NoFeasiblePoint


class InputError(Exception):
    """Bad file, bad JSON, bad polynomial: exit code 1 territory."""


def _emit(payload: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InputError(f"result is not finite, not written: {exc}") from exc
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_poly(path: str) -> NCPoly:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = strip_comments(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    indices = [int(m) for m in re.findall(r"Y(\d+)", text)]
    nvars = max(indices, default=1)
    try:
        return parse_poly(text, nvars)
    except PolyParseError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _matrix_tuple_from_json(data: dict, path: str) -> MatrixTuple:
    for key in ("n", "N", "matrices"):
        if key not in data:
            raise InputError(f"{path}: missing key {key!r}")
    n, size = data["n"], data["N"]
    mats = data["matrices"]
    if len(mats) != n:
        raise InputError(f"{path}: expected {n} matrices, found {len(mats)}")
    arrays = []
    for j, rows in enumerate(mats):
        try:
            arr = np.array(
                [[complex(c[0], c[1]) for c in row] for row in rows], dtype=complex
            )
        except (TypeError, IndexError, ValueError) as exc:
            raise InputError(f"{path}: matrix {j + 1} malformed: {exc}") from exc
        if arr.shape != (size, size):
            raise InputError(
                f"{path}: matrix {j + 1} has shape {arr.shape}, expected "
                f"({size}, {size})"
            )
        arrays.append(arr)
    try:
        return as_matrix_tuple(arrays)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _matrix_tuple_to_json(X: MatrixTuple) -> dict:
    return {
        "n": X.n,
        "N": X.N,
        "matrices": [
            [[[float(v.real), float(v.imag)] for v in row] for row in mat]
            for mat in X.matrices
        ],
    }


def _theta_to_json(theta: MomentSequence) -> list:
    return [
        {"word": list(w), "re": float(v.real), "im": float(v.imag)}
        for w, v in sorted(theta.values.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


def _theta_from_json(data: dict, path: str) -> MomentSequence:
    entries = data.get("theta")
    if not isinstance(entries, list):
        raise InputError(f"{path}: missing or malformed 'theta' list")
    values = {}
    nvars = 1
    degree = 0
    for item in entries:
        try:
            word = tuple(int(x) for x in item["word"])
            values[word] = complex(item["re"], item["im"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed theta entry: {exc}") from exc
        nvars = max(nvars, max(word, default=1))
        degree = max(degree, len(word))
    declared = data.get("degree", degree)
    try:
        return MomentSequence(nvars, int(declared), values)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _certificate_json(cert: Certificate) -> dict:
    return {
        "degree": cert.degree,
        "factors": [format_poly(b) for b in cert.factors],
        "residual_l1": cert.residual_l1,
    }


def _witness_json(theta: MomentSequence, value: float, radius: float) -> dict:
    return {
        "degree": theta.max_degree,
        "R": radius,
        "value": value,
        "theta": _theta_to_json(theta),
    }


# -- commands ----------------------------------------------------------------


def cmd_certify(args) -> int:
    p = _load_poly(args.polyfile)
    try:
        result = certify_sos(p, d=args.degree, tol=args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except (SolverStalled, InconsistentConstraints, NoFeasiblePoint) as exc:
        raise InputError(f"solver failed: {exc}") from exc
    if isinstance(result, Certificate):
        _emit(_certificate_json(result), args.out)
        return 0
    _emit(
        {
            "status": result.status,
            "degree": result.degree,
            "gap": result.gap,
            "iterations": result.iterations,
        },
        args.out,
    )
    return 2


def cmd_witness(args) -> int:
    p = _load_poly(args.polyfile)
    try:
        theta, value = witness_search(p, d=args.degree, R=args.radius, tol=args.tol)
        witness = None
        if value < -args.tol:
            witness = checked_witness(theta, value, args.radius, args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except NoFeasiblePoint as exc:
        raise InputError(f"solver failed: {exc}") from exc
    if witness is not None:
        _emit(_witness_json(witness.theta, witness.value, witness.radius), args.out)
        return 2
    _emit(
        {"witness_found": False, "optimum": value, "R": args.radius},
        args.out,
    )
    return 0


def cmd_falsify(args) -> int:
    p = _load_poly(args.polyfile)
    try:
        result = falsify(
            p, trials=args.trials, N=args.size, R=args.radius, seed=args.seed
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if result is None:
        _emit(
            {"falsified": False, "trials": args.trials, "size": args.size},
            args.out,
        )
        return 0
    _emit(
        {
            "falsified": True,
            "trace": result.trace,
            "source": result.source,
            "index": result.index,
            "tuple": _matrix_tuple_to_json(result.tuple),
        },
        args.out,
    )
    return 2


def cmd_moments(args) -> int:
    X = _matrix_tuple_from_json(_load_json(args.matrixfile), args.matrixfile)
    try:
        theta = moment_sequence(X, args.degree)
        report = check_w_membership(theta, tol=args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(
        {
            "n": X.n,
            "N": X.N,
            "degree": args.degree,
            "values": _theta_to_json(theta),
            "membership": report.as_dict(),
        },
        args.out,
    )
    return 0 if report.passed else 2


def cmd_gns_check(args) -> int:
    data = _load_json(args.inputfile)
    if "matrices" in data:
        X = _matrix_tuple_from_json(data, args.inputfile)
        theta = None
        d = args.degree if args.degree is not None else 2
    elif "theta" in data:
        theta = _theta_from_json(data, args.inputfile)
        d = args.degree if args.degree is not None else theta.max_degree // 2
    else:
        raise InputError(
            f"{args.inputfile}: expected a matrix tuple ('matrices') or a "
            "moment sequence ('theta')"
        )
    if d < 1:
        raise InputError(f"model half-degree must be at least 1, got {d}")
    if not (0 < args.radius < np.inf):
        raise InputError(f"radius R must be positive and finite, got {args.radius}")
    if theta is None:
        theta = moment_sequence(X, 2 * d)
    try:
        model = gns_build(theta, d)
    except ValueError as exc:
        _emit({"status": "rejected", "reason": str(exc)}, args.out)
        return 2
    moment_error = verify_moments(model, theta, d)
    trace_error = verify_trace_property(model, theta, 2 * d)
    bound = norm_bound_check(model, theta, args.radius)
    payload = model.as_dict()
    payload["checks"] = {
        "moment_error": moment_error,
        "trace_error": trace_error,
        "norm_bound": bound.as_dict(),
    }
    _emit(payload, args.out)
    return 0 if moment_error <= 1e-8 and trace_error <= 1e-8 else 2


def cmd_norm(args) -> int:
    p = _load_poly(args.polyfile)
    try:
        value = p.r_norm(args.radius)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit({"radius": args.radius, "norm": value}, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctrace",
        description="Trace-positivity certificates for noncommutative polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, degree=False, radius=False, tol=False, trials=False, size=False,
               seed=False, degree_help="relaxation half-degree (default: half the polynomial degree)"):
        if degree:
            sp.add_argument("--degree", type=int, default=None, help=degree_help)
        if radius:
            sp.add_argument("--radius", type=float, default=1.0,
                            help="norm/growth radius R (default 1)")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-9,
                            help="numerical tolerance (default 1e-9)")
        if trials:
            sp.add_argument("--trials", type=int, default=1000,
                            help="random tuples to try (default 1000)")
        if size:
            sp.add_argument("--size", type=int, default=4,
                            help="random matrix size N (default 4)")
        if seed:
            sp.add_argument("--seed", type=int, default=0,
                            help="64-bit seed for all randomness (default 0)")
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")

    sp = sub.add_parser("certify", help="search for a sum-of-squares certificate")
    sp.add_argument("polyfile")
    common(sp, degree=True, tol=True)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("witness", help="search for a negative pseudo-moment witness")
    sp.add_argument("polyfile")
    common(sp, degree=True, radius=True, tol=True)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("falsify", help="search for a matrix tuple with negative trace")
    sp.add_argument("polyfile")
    common(sp, trials=True, size=True, radius=True, seed=True)
    sp.set_defaults(func=cmd_falsify)

    sp = sub.add_parser("moments", help="moment sequence of a matrix tuple")
    sp.add_argument("matrixfile")
    sp.add_argument("--degree", type=int, required=True, help="truncation degree")
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="membership check tolerance (default 1e-9)")
    sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("gns-check", help="reconstruct operators from moments and verify")
    sp.add_argument("inputfile", help="matrix-tuple JSON or witness JSON")
    common(sp, degree=True, radius=True, tol=True,
           degree_help="model half-degree (default: 2 for matrix input, "
                       "half the sequence degree for witness input)")
    sp.set_defaults(func=cmd_gns_check)

    sp = sub.add_parser("norm", help="weighted coefficient norm of a polynomial")
    sp.add_argument("polyfile")
    common(sp, radius=True)
    sp.set_defaults(func=cmd_norm)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"nctrace: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
