"""Command-line interface.

Commands::

    nctrace certify   POLYFILE   [--degree D] [--tol T]
    nctrace witness   POLYFILE   [--degree D] [--radius R] [--tol T]
    nctrace falsify   POLYFILE   [--trials K] [--size N] [--radius R] [--seed S]
    nctrace moments   MATRIXJSON --degree D [--tol T]
    nctrace gns-check INPUTJSON  [--degree D] [--radius R]
    nctrace norm      POLYFILE   [--radius R]

Exit codes: 0 for the affirmative or neutral outcome, 2 for a well-formed
negative finding (infeasible, witness found, falsified, checks failed),
1 for usage or input errors.  Output is JSON on stdout (or ``--out``);
identical invocations produce byte-identical output.

Each command handler returns its payload and exit code and catches no
library error but one: gns-check writes a
:class:`~nctrace.gns.ModelRejected` refusal as its exit-2 ``"rejected"``
payload.  :func:`main` alone writes the payload and maps errors to exit
code 1: a stalled or failed solve prints ``nctrace: solver failed:
<msg>``, any other ValueError (input errors included) ``nctrace: <msg>``,
and nothing is written to stdout or ``--out``.  Any other exception
propagates.

The commands, their inputs and their options come from one table
(:func:`_commands`).  The parser of all six commands is built from it on
the first :func:`main` call and serves every later call in the process;
importing the module builds none.  The parser holds no handler: ``main``
looks the command's handler up in the table when the command runs, so a
wrapper or patch installed on this module after the first call applies.

The output bytes are exactly those of ``json.dumps(payload, indent=2,
sort_keys=True, allow_nan=False)`` plus a newline.  The stdlib encodes an
indented payload in pure Python, node by node, so :func:`_render` writes
the same layout itself, with ``float.__repr__``, json's own float format.
A float array (operators, matrix tuples) fills one nested template with
one text per float.  A moment sequence fills its entry-list template, which
holds every word's text and a slot for each real and imaginary part; the
process keeps the templates of its last 8 (variables, degree, depth)
triples up to 4 MiB each (:func:`_theta_template`), and builds a longer
one for the call alone.  The fill costs one ``float.__repr__`` per distinct
magnitude among all the parts, the sign being read from the sign bit.
The tests pin the bytes against the stdlib encoder, with the templates
warm and cleared.

Polynomial files are read by :func:`nctrace.parsing.load_poly_file`.
Matrix tuples are JSON objects ``{"n": ..., "N": ..., "matrices": [...]}``
with integers n, N >= 1 and each matrix a row-major N x N array of
``[re, im]`` pairs of numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, lru_cache
from operator import itemgetter

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
from .gns import (
    GnsModel,
    ModelRejected,
    gns_build,
    norm_bound_check,
    verify_moments,
    verify_trace_property,
)
from .moments import (
    MatrixTuple,
    MomentSequence,
    as_matrix_tuple,
    check_radius,
    check_w_membership,
    moment_sequence,
    real_pairs,
)
from .parsing import PolyParseError, format_polys, load_poly_file
from .sdp import NoFeasiblePoint


class InputError(ValueError):
    """Bad file, bad JSON, bad polynomial: exit code 1 territory."""


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as for any other input error; argparse's
    own exit code 2 is this CLI's negative finding."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, out_path: str | None) -> None:
    try:
        text = _render(payload, 0) + "\n"
    except ValueError as exc:
        raise InputError(f"result is not finite, not written: {exc}") from exc
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# -- JSON writer ---------------------------------------------------------------

_INDENT = "  "
# The longest moment-sequence template kept for the process, in characters
# (1 byte each): n = 3 to D = 8 takes 1.4 MiB, n = 2 to D = 13 3.1 MiB.
_MAX_CACHED_TEMPLATE = 4 * 2**20
_INFINITY = float("inf")
_encode_str = json.encoder.encode_basestring_ascii


def _render(value, level: int) -> str:
    """JSON text of value, as ``json.dumps(indent=2, sort_keys=True,
    allow_nan=False)`` lays it out ``level`` containers deep.

    Beyond the json types it takes float arrays, rendered as the nested
    lists of ``tolist()``, and moment sequences, rendered as their list of
    ``{"word", "re", "im"}`` entries.  A NaN or infinity raises ValueError.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not -_INFINITY < value < _INFINITY:
            raise ValueError(f"non-finite float {value!r}")
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return _wrap([_render(v, level + 1) for v in value], level)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            _encode_str(k) + ": " + _render(v, level + 1)
            for k, v in sorted(value.items())
        ]
        return _wrap(items, level, "{}")
    if isinstance(value, np.ndarray):
        return _render_array(value, level)
    if isinstance(value, MomentSequence):
        return _render_theta(value, level)
    if isinstance(value, _Words):
        return _wrap(_word_texts(value.n, value.D, level + 1), level)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _wrap(items: list, level: int, brackets: str = "[]") -> str:
    """Non-empty items as one json container ``level`` containers deep."""
    inner = "\n" + _INDENT * (level + 1)
    return (
        brackets[0] + inner + ("," + inner).join(items)
        + "\n" + _INDENT * level + brackets[1]
    )


def _float_texts(a: np.ndarray) -> list:
    """json's text of every float of an array, in C order."""
    if not np.isfinite(a).all():
        raise ValueError("non-finite float in an array")
    return list(map(float.__repr__, a.ravel().tolist()))


def _signed_texts(part: np.ndarray) -> tuple:
    """json's text of every float of a real vector of at least two, with one
    ``float.__repr__`` per distinct magnitude.

    ``repr(-x)`` is ``"-" + repr(x)`` for every finite x, so each entry is
    read from one table, the magnitude's text or its negation by the sign
    bit, which also tells -0.0 from 0.0.  (``itemgetter`` of one index
    returns the item, not a tuple, hence the two.)
    """
    if not np.isfinite(part).all():
        raise ValueError("non-finite float in an array")
    magnitudes, inverse = np.unique(np.abs(part), return_inverse=True)
    texts = list(map(float.__repr__, magnitudes.tolist()))
    slots = inverse.ravel() + len(texts) * np.signbit(part)
    return itemgetter(*slots.tolist())(texts + ["-" + t for t in texts])


def _render_array(a: np.ndarray, level: int) -> str:
    """A float array as nested json lists through one template, built
    innermost axis first and filled once."""
    if not a.size:
        return _render(a.tolist(), level)
    template = "%s"
    for axis in range(a.ndim - 1, -1, -1):
        template = _wrap([template] * a.shape[axis], level + axis)
    return template % tuple(_float_texts(a))


def _word_texts(n: int, D: int, level: int) -> list:
    """The words of ``words_up_to(n, D)`` as json lists of their letters
    ``level`` containers deep; each word's text is built from its prefix's."""
    letters = [str(j) for j in range(1, n + 1)]
    close = "\n" + _INDENT * level + "]"
    texts, opened, glue = ["[]"], ["[\n" + _INDENT * (level + 1)], ""
    for _ in range(D):
        opened = [w + glue + c for w in opened for c in letters]
        texts += [w + close for w in opened]
        glue = ",\n" + _INDENT * (level + 1)
    return texts


class _Words:
    """The words of ``words_up_to(n, D)``, written as a list of letter lists."""

    __slots__ = ("n", "D")

    def __init__(self, n: int, D: int):
        self.n = n
        self.D = D


def _render_theta(theta: MomentSequence, level: int) -> str:
    """The ``{"word", "re", "im"}`` entries of a sequence, in ``words_up_to``
    order: its :func:`_theta_template` filled with the texts of each value's
    imaginary and real parts.  The template of a sequence longer than
    ``_MAX_CACHED_TEMPLATE`` characters is built for the call and not kept."""
    n, D = theta.n, theta.max_degree
    template = _theta_template
    if _theta_template_size(n, D, level) > _MAX_CACHED_TEMPLATE:
        template = _theta_template.__wrapped__
    # (im, re) of each value, in the order the entries name them.
    parts = theta.as_array().view(float).reshape(-1, 2)[:, ::-1].ravel()
    return template(n, D, level) % _signed_texts(parts)


@lru_cache(maxsize=8)
def _theta_template(n: int, D: int, level: int) -> str:
    """The entry list of a sequence of n letters up to degree D, ``level``
    containers deep, with each word's text in place and a ``%s`` for each
    imaginary and real part.  The last 8 (n, D, level) kept are at most
    ``_MAX_CACHED_TEMPLATE`` characters each."""
    inner = "\n" + _INDENT * (level + 1)
    close = inner + "}"
    head = _wrap(['"im": %s', '"re": %s', '"word": '], level + 1, "{}").removesuffix(close)
    # The first and last words carry the list's brackets, so one join
    # builds the only text of the template's size.
    words = _word_texts(n, D, level + 2)
    words[0] = "[" + inner + head + words[0]
    words[-1] += close + "\n" + _INDENT * level + "]"
    return (close + "," + inner + head).join(words)


def _theta_template_size(n: int, D: int, level: int) -> int:
    """``len(_theta_template(n, D, level))``, from the three integers.

    Each word's entry, with its separator, takes ``10 level + 50``
    characters besides the word's text; the text of a word of L >= 1
    letters takes ``L (2 level + 8) + 2 level + 6`` besides its digits.
    ``test_theta_template_size_is_its_length`` checks it.
    """
    # The digits of the letters 1..n: each j >= 10^k has a (k + 1)-th one.
    digits = sum(n - 10**k + 1 for k in range(len(str(n))))
    size = 2 * level + 4  # the list's brackets and last newline, the empty word's []
    for L in range(D + 1):
        size += n**L * (10 * level + 50)
        if L:
            size += n**L * (L * (2 * level + 8) + 2 * level + 6) + L * n ** (L - 1) * digits
    return size


def _load_poly(path: str) -> NCPoly:
    try:
        return load_poly_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except PolyParseError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # json's decoder recurses once per nested array or object.
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, found {type(data).__name__}")
    return data


def _integer(value, what: str) -> int:
    """An integral JSON number as an int.

    Raises ValueError naming ``what`` for a bool or a fraction, and int()'s
    own TypeError, ValueError or OverflowError for anything else.
    """
    number = int(value)
    if isinstance(value, bool) or number != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return number


def _complex(pair) -> complex:
    """An ``[re, im]`` pair of JSON numbers (not bools) as a complex number;
    OverflowError for an integer beyond the float range."""
    if type(pair) is not list or len(pair) != 2 or not {*map(type, pair)} <= {int, float}:
        raise ValueError("[re, im] must be a pair of numbers")
    return complex(*pair)


def _matrix_tuple_from_json(data: dict, path: str) -> MatrixTuple:
    for key in ("n", "N", "matrices"):
        if key not in data:
            raise InputError(f"{path}: missing key {key!r}")
    try:
        n, size = _integer(data["n"], "'n'"), _integer(data["N"], "'N'")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if min(n, size) < 1:
        raise InputError(f"{path}: 'n' and 'N' must be at least 1, got {n} and {size}")
    mats = data["matrices"]
    if not isinstance(mats, list):
        raise InputError(f"{path}: 'matrices' must be a list")
    if len(mats) != n:
        raise InputError(f"{path}: expected {n} matrices, found {len(mats)}")
    arrays = []
    for j, rows in enumerate(mats):
        try:
            arr = np.array([[_complex(c) for c in row] for row in rows], dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
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


def _matrix_tuple_json(X: MatrixTuple) -> dict:
    return {"n": X.n, "N": X.N, "matrices": real_pairs(np.stack(X.matrices))}


def _theta_from_json(data: dict, path: str) -> MomentSequence:
    """The sequence of a witness file: one ``{"word", "re", "im"}`` entry
    per word, in any order, up to ``degree`` (default: the longest word)."""
    entries = data.get("theta")
    if not isinstance(entries, list):
        raise InputError(f"{path}: missing or malformed 'theta' list")
    values, repeat = {}, None
    for k, item in enumerate(entries):
        try:
            word = tuple(_integer(x, "a letter") for x in item["word"])
            value = _complex([item["re"], item["im"]])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}: theta entry {k} is malformed: {exc}") from exc
        if min(word, default=1) < 1:
            raise InputError(f"{path}: theta entry {k} has a letter below 1: {list(word)}")
        if word in values and repeat is None:
            repeat = f"theta entry {k} repeats the word {list(word)}"
        values[word] = value
    if repeat:
        raise InputError(f"{path}: {repeat}")
    # Words and entries correspond one to one, in file order.
    k, longest = max(enumerate(values), key=lambda kw: len(kw[1]), default=(0, ()))
    nvars = max((max(w) for w in values if w), default=1)
    try:
        degree = _integer(data.get("degree", len(longest)), "degree")
        theta = MomentSequence(nvars, degree, values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if len(longest) > theta.max_degree:
        raise InputError(
            f"{path}: theta entry {k} is on {list(longest)}, longer than the "
            f"degree {theta.max_degree}"
        )
    return theta


def _certificate_json(cert: Certificate) -> dict:
    return {
        "degree": cert.degree,
        "factors": format_polys(cert.factors),
        "residual_l1": cert.residual_l1,
    }


def _witness_json(theta: MomentSequence, value: float, radius: float) -> dict:
    return {
        "degree": theta.max_degree,
        "R": radius,
        "value": value,
        "theta": theta,
    }


def _model_json(model: GnsModel, checks: dict) -> dict:
    """The JSON of a GNS model, its one writer: degree, rank, basis words,
    operators and vacuum as ``[re, im]`` arrays, the build diagnostics, and
    the verification results under ``checks``."""
    return {
        "degree": model.degree,
        "rank": model.rank,
        # gns_build's basis is words_up_to(n, degree), with one operator per
        # variable.
        "basis": _Words(len(model.operators), model.degree),
        "operators": real_pairs(np.stack(model.operators)),
        "vacuum": real_pairs(model.vacuum),
        "diagnostics": {
            "reconstruction_error": model.reconstruction_error,
            "shift_residual": model.shift_residual,
            "hermiticity_defects": list(model.hermiticity_defects),
        },
        "checks": checks,
    }


# -- commands ----------------------------------------------------------------


def cmd_certify(args) -> tuple:
    result = certify_sos(_load_poly(args.polyfile), d=args.degree, tol=args.tol)
    if isinstance(result, Certificate):
        return _certificate_json(result), 0
    return {
        "status": result.status,
        "degree": result.degree,
        "gap": result.gap,
        "iterations": result.iterations,
    }, 2


def cmd_witness(args) -> tuple:
    p = _load_poly(args.polyfile)
    theta, value = witness_search(p, d=args.degree, R=args.radius, tol=args.tol)
    if value < -args.tol:
        witness = checked_witness(theta, value, args.radius, args.tol)
        return _witness_json(witness.theta, witness.value, witness.radius), 2
    return {"witness_found": False, "optimum": value, "R": args.radius}, 0


def cmd_falsify(args) -> tuple:
    p = _load_poly(args.polyfile)
    result = falsify(p, trials=args.trials, N=args.size, R=args.radius, seed=args.seed)
    if result is None:
        return {"falsified": False, "trials": args.trials, "size": args.size}, 0
    return {
        "falsified": True,
        "trace": result.trace,
        "source": result.source,
        "index": result.index,
        "tuple": _matrix_tuple_json(result.tuple),
    }, 2


def cmd_moments(args) -> tuple:
    X = _matrix_tuple_from_json(_load_json(args.matrixfile), args.matrixfile)
    theta = moment_sequence(X, args.degree)
    report = check_w_membership(theta, tol=args.tol)
    return {
        "n": X.n,
        "N": X.N,
        "degree": args.degree,
        "values": theta,
        "membership": report.as_dict(),
    }, 0 if report.passed else 2


def cmd_gns_check(args) -> tuple:
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
    # The norm bound compares the even moments up to the sequence's degree
    # with powers of R.
    degree = 2 * d if theta is None else theta.max_degree
    check_radius(args.radius, 2 * (degree // 2))
    if theta is None:
        theta = moment_sequence(X, 2 * d)
    try:
        model = gns_build(theta, d)
    except ModelRejected as exc:
        return {"status": "rejected", "reason": str(exc)}, 2
    moment_error = verify_moments(model, theta, d)
    trace_error = verify_trace_property(model, theta, 2 * d)
    bound = norm_bound_check(model, theta, args.radius)
    checks = {
        "moment_error": moment_error,
        "trace_error": trace_error,
        "norm_bound": bound.as_dict(),
    }
    return _model_json(model, checks), 0 if moment_error <= 1e-8 and trace_error <= 1e-8 else 2


def cmd_norm(args) -> tuple:
    return {"radius": args.radius, "norm": _load_poly(args.polyfile).r_norm(args.radius)}, 0


# Options by name, as argparse keyword arguments.
_OPTIONS = {
    "degree": {
        "type": int,
        "default": None,
        "help": "relaxation half-degree (default: half the polynomial degree)",
    },
    "radius": {"type": float, "default": 1.0, "help": "norm/growth radius R (default 1)"},
    "tol": {"type": float, "default": 1e-9, "help": "numerical tolerance (default 1e-9)"},
    "trials": {"type": int, "default": 1000, "help": "random tuples to try (default 1000)"},
    "size": {"type": int, "default": 4, "help": "random matrix size N (default 4)"},
    "seed": {"type": int, "default": 0, "help": "64-bit seed for all randomness (default 0)"},
    "out": {"default": None, "help": "write JSON here instead of stdout"},
}


def _commands() -> dict:
    """The command table: name -> (handler, help, input, options).

    A handler takes the parsed arguments and returns ``(payload, exit
    code)``; :func:`main` writes the payload and maps errors to exit 1.
    ``input`` is the positional argument's (name, help).  ``options`` are
    names in ``_OPTIONS``, in order, or (name, overrides) where a command
    words one differently; every command ends with ``--out``.  Each call
    reads the handlers from the module's globals, so :func:`main`, which
    calls it as a command runs, gets whatever wrapper or patch is
    installed there at that moment.
    """
    return {
        "certify": (
            cmd_certify, "search for a sum-of-squares certificate",
            ("polyfile", None), ("degree", "tol"),
        ),
        "witness": (
            cmd_witness, "search for a negative pseudo-moment witness",
            ("polyfile", None), ("degree", "radius", "tol"),
        ),
        "falsify": (
            cmd_falsify, "search for a matrix tuple with negative trace",
            ("polyfile", None), ("radius", "trials", "size", "seed"),
        ),
        "moments": (
            cmd_moments, "moment sequence of a matrix tuple",
            ("matrixfile", None),
            (
                ("degree", {"required": True, "help": "truncation degree"}),
                ("tol", {"help": "membership check tolerance (default 1e-9)"}),
            ),
        ),
        "gns-check": (
            cmd_gns_check, "reconstruct operators from moments and verify",
            ("inputfile", "matrix-tuple JSON or witness JSON"),
            (
                ("degree", {"help": "model half-degree (default: 2 for matrix input, "
                                    "half the sequence degree for witness input)"}),
                "radius",
            ),
        ),
        "norm": (
            cmd_norm, "weighted coefficient norm of a polynomial",
            ("polyfile", None), ("radius",),
        ),
    }


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command in :func:`_commands`, built on first use
    and kept for the process."""
    parser = _Parser(
        prog="nctrace",
        description="Trace-positivity certificates for noncommutative polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, (input_name, input_help), options) in _commands().items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(input_name, help=input_help)
        for option in options + ("out",):
            key, overrides = (option, {}) if isinstance(option, str) else option
            sp.add_argument(f"--{key}", **{**_OPTIONS[key], **overrides})
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        payload, code = _commands()[args.command][0](args)
        _emit(payload, args.out)
    except (SolverStalled, NoFeasiblePoint) as exc:
        print(f"nctrace: solver failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"nctrace: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
