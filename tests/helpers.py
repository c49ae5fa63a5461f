"""Shared generators for the test suite; all randomness is seed-driven."""

import argparse
import cmath
import importlib.util
import json
import os
import pathlib
import re
import sys
from itertools import product

import numpy as np

from nctrace import cli
from nctrace.algebra import (
    NCPoly,
    Word,
    cyclic_canonical,
    involute_word,
    star_product,
    words_up_to,
)
from nctrace.certify import FALSIFY_TRACE_TOL, _real_trace
from nctrace.moments import MomentSequence, as_matrix_tuple
from nctrace.parsing import MAX_DIGITS, MAX_WORD_LENGTH, PolyParseError
from nctrace.sampling import structured_library
from nctrace.sdp import AffineConstraints


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"


def checkout_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_poly(rng, nvars, max_degree, n_terms=6, complex_coeffs=True) -> NCPoly:
    """Random sparse polynomial with coefficients of order one."""
    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(int(x) for x in rng.integers(1, nvars + 1, size=length))
        coeff = rng.normal()
        if complex_coeffs:
            coeff = coeff + 1j * rng.normal()
        terms[word] = terms.get(word, 0.0) + coeff
    return NCPoly(nvars, terms)


def random_hermitian(rng, size: int) -> np.ndarray:
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return (a + a.conj().T) / 2


def random_hermitian_tuple(rng, nvars: int, size: int, radius: float = 1.0):
    """Hermitian matrices rescaled to spectral norm exactly radius."""
    mats = []
    for _ in range(nvars):
        h = random_hermitian(rng, size)
        norm = np.linalg.norm(h, 2)
        if norm > 0:
            h = h * (radius / norm)
        mats.append(h)
    return mats


def pauli_pair():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return [sx, sz]


def commutator_square_poly() -> NCPoly:
    """(1/2)(Y1^2 Y2^2 + Y2^2 Y1^2) - (1/2)(Y1Y2Y1Y2 + Y2Y1Y2Y1)."""
    return NCPoly(
        2,
        {
            (1, 1, 2, 2): 0.5,
            (2, 2, 1, 1): 0.5,
            (1, 2, 1, 2): -0.5,
            (2, 1, 2, 1): -0.5,
        },
    )


# -- word-by-word references for the cyclic classes and the square sum ---------
#
# The loops ``nctrace.certify`` ran before its class labels came from
# word-index arithmetic and its square sum from one pass: the class labels
# must equal these exactly, the square sum to rounding.


def reference_class_positions(nvars: int, d: int):
    """Group basis-word pairs (J, K) by the cyclic class of reverse(J)+K.

    Every pair lands in exactly one class; every word of length <= 2d is
    reachable (split it in the middle), so the classes cover all of them.
    """
    basis = words_up_to(nvars, d)
    classes: dict = {}
    for (row, J), (col, K) in product(enumerate(basis), repeat=2):
        rep = cyclic_canonical(involute_word(J) + K)
        classes.setdefault(rep, []).append((row, col))
    return basis, classes


def reference_class_labels(classes, m: int):
    """Class representatives by (length, word), and each entry's index there."""
    reps = sorted(classes, key=lambda w: (len(w), w))
    labels = np.empty((m, m), dtype=np.intp)
    for label, rep in enumerate(reps):
        rows, cols = zip(*classes[rep])
        labels[rows, cols] = label
    return reps, labels


def reference_extract_moments(M, classes, nvars: int, degree: int, R: float) -> MomentSequence:
    """Class means of the Hermitian part of M, summed entry by entry, then
    normalized, clamped to ``R**length`` and spread over every word."""
    M = (M + M.conj().T) / 2
    per_class = {}
    for rep, positions in classes.items():
        per_class[rep] = sum(M[row, col] for row, col in positions) / len(positions)
    norm = per_class[()].real
    values = {}
    for word in words_up_to(nvars, degree):
        v = per_class[cyclic_canonical(word)] / norm
        bound = R ** len(word)
        if abs(v) > bound:
            v = v * (bound / abs(v))
        values[word] = v
    return MomentSequence(nvars, degree, values)


def reference_sum_of_squares(factors, nvars: int) -> NCPoly:
    """Sum of b* b, one ``star_product`` and one addition per factor."""
    total = NCPoly.zero(nvars)
    for b in factors:
        total = total + star_product(b.adjoint(), b)
    return total


# -- references for the polynomial arithmetic around the solver ----------------
#
# What ``nctrace`` computed before its symmetry check read terms directly,
# its factors came from whole eigenvector columns and its arithmetic skipped
# the per-letter check: decisions and coefficients must be the same.


def reference_is_symmetric(p: NCPoly, tol: float) -> bool:
    """The symmetry test as four polynomials and one norm."""
    return (p - p.adjoint()).r_norm(1.0) <= tol


def reference_extract_factors(G, basis, nvars: int, rank_cutoff: float = 1e-8):
    """Factors read entry by entry from the eigenvectors, through the checked
    constructor."""
    G = (G + G.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(G)
    top = float(eigvals[-1]) if len(eigvals) else 0.0
    factors = []
    if top <= 0:
        return factors
    for s in range(len(eigvals) - 1, -1, -1):
        lam = float(eigvals[s])
        if lam <= rank_cutoff * top:
            break
        weight = np.sqrt(lam)
        coeffs = {
            word: weight * np.conj(eigvecs[k, s])
            for k, word in enumerate(basis)
            if abs(eigvecs[k, s]) > 1e-14
        }
        factors.append(NCPoly(nvars, coeffs))
    return factors


def term_bits(p: NCPoly) -> list:
    """p's terms in storage order, each coefficient as its type and the
    exact bits of its parts."""
    return [(w, type(c), c.real.hex(), c.imag.hex()) for w, c in p.terms.items()]


def workload_polys(name: str, seed: int) -> list:
    """(text, nvars) of every polynomial file of a benchmark workload."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    wl = workloads.build(name, seed)
    return [(wl.files[f"{source}.poly"], nvars) for source, (nvars, _) in wl.polys.items()]


# -- the parser's reference ----------------------------------------------------
#
# The character-by-character scanner ``nctrace.parsing.parse_poly`` ran
# before it read one compiled pattern per term.  The new parser must return
# the same polynomial, bit for bit, and raise PolyParseError exactly where
# this one does.  (This one expands a power before checking the word
# length, so keep powers small here.)  It has since gained the grammar's
# later rules: at most MAX_DIGITS digits in an index or a power, and a finite
# total coefficient on every word.

_REFERENCE_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_REFERENCE_INDEX = re.compile(r"\d+")


class _ReferenceScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        if self.peek() != char:
            raise PolyParseError(f"expected '{char}'", self.pos)
        self.pos += 1

    def number(self) -> float:
        sign = 1.0
        if self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -1.0
            self.pos += 1
            self.skip_ws()
        m = _REFERENCE_NUMBER.match(self.text, self.pos)
        if not m:
            raise PolyParseError("malformed coefficient", self.pos)
        self.pos = m.end()
        return sign * float(m.group(0))


def reference_parse_poly(text: str, nvars: int) -> NCPoly:
    """The character-by-character scanner ``parse_poly`` replaced."""
    if nvars < 1:
        raise ValueError(f"nvars must be positive, got {nvars}")
    sc = _ReferenceScanner(text)
    sc.skip_ws()
    if sc.pos == len(text):
        raise PolyParseError("empty input", 0)
    terms: dict[Word, complex] = {}
    sign = 1.0
    if sc.peek() in ("+", "-"):
        if sc.peek() == "-":
            sign = -1.0
        sc.pos += 1
        sc.skip_ws()
    while True:
        start = sc.pos
        word, coeff = _reference_term(sc, nvars)
        coeff = sign * coeff
        terms[word] = terms.get(word, 0.0) + coeff
        if not cmath.isfinite(terms[word]):
            raise PolyParseError("coefficient is not finite", start)
        sc.skip_ws()
        if sc.pos == len(text):
            break
        ch = sc.peek()
        if ch == "+":
            sign = 1.0
        elif ch == "-":
            sign = -1.0
        else:
            raise PolyParseError(f"expected '+' or '-', found {ch!r}", sc.pos)
        sc.pos += 1
        sc.skip_ws()
        if sc.pos == len(text):
            raise PolyParseError("dangling sign", sc.pos - 1)
    return NCPoly(nvars, terms)


def _reference_term(sc: _ReferenceScanner, nvars: int) -> tuple[Word, complex]:
    ch = sc.peek()
    if ch == "(":
        coeff = _reference_complex(sc)
    elif ch.isdigit() or ch == ".":
        start = sc.pos
        value = sc.number()
        # A bare '1' immediately followed by a term boundary is the empty word.
        if value == 1.0 and sc.text[start : sc.pos] == "1":
            sc.skip_ws()
            if sc.peek() != "*":
                return (), 1.0
        coeff = complex(value)
    elif ch == "Y":
        return _reference_word(sc, nvars), 1.0
    else:
        raise PolyParseError(f"expected coefficient or word, found {ch!r}", sc.pos)
    sc.skip_ws()
    if sc.peek() == "*":
        sc.pos += 1
        sc.skip_ws()
        return _reference_word(sc, nvars), coeff
    return (), coeff


def _reference_complex(sc: _ReferenceScanner) -> complex:
    sc.expect("(")
    sc.skip_ws()
    re_part = sc.number()
    sc.skip_ws()
    sc.expect(",")
    sc.skip_ws()
    im_part = sc.number()
    sc.skip_ws()
    sc.expect(")")
    return complex(re_part, im_part)


def _reference_word(sc: _ReferenceScanner, nvars: int) -> Word:
    if sc.peek() == "1":
        sc.pos += 1
        return ()
    letters: list[int] = []
    while True:
        if sc.peek() != "Y":
            if not letters:
                raise PolyParseError("expected word", sc.pos)
            break
        y_pos = sc.pos
        sc.pos += 1
        m = _REFERENCE_INDEX.match(sc.text, sc.pos)
        if not m:
            raise PolyParseError("expected variable index after 'Y'", sc.pos)
        if len(m.group(0)) > MAX_DIGITS:
            raise PolyParseError(f"index longer than {MAX_DIGITS} digits", sc.pos)
        index = int(m.group(0))
        sc.pos = m.end()
        if index < 1 or index > nvars:
            raise PolyParseError(f"index {index} exceeds nvars", y_pos)
        power = 1
        if sc.peek() == "^":
            sc.pos += 1
            m = _REFERENCE_INDEX.match(sc.text, sc.pos)
            if not m:
                raise PolyParseError("expected power after '^'", sc.pos)
            if len(m.group(0)) > MAX_DIGITS:
                raise PolyParseError(f"power longer than {MAX_DIGITS} digits", sc.pos)
            power = int(m.group(0))
            sc.pos = m.end()
        letters.extend([index] * power)
        if len(letters) > MAX_WORD_LENGTH:
            raise PolyParseError(
                f"word longer than {MAX_WORD_LENGTH} letters", y_pos
            )
        here = sc.pos
        sc.skip_ws()
        if sc.peek() != "Y":
            sc.pos = here
            break
    return tuple(letters)


# -- the CLI's reference parser ------------------------------------------------
#
# The full argparse tree ``nctrace.cli.main`` built on every call before it
# built only the invoked command's subparser.  Help, usage errors and the
# unknown-command message must read the same.


def reference_build_parser() -> argparse.ArgumentParser:
    """The full parser ``nctrace.cli`` built on every call before its
    command table."""
    parser = cli._Parser(
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
    sp.set_defaults(func=cli.cmd_certify)

    sp = sub.add_parser("witness", help="search for a negative pseudo-moment witness")
    sp.add_argument("polyfile")
    common(sp, degree=True, radius=True, tol=True)
    sp.set_defaults(func=cli.cmd_witness)

    sp = sub.add_parser("falsify", help="search for a matrix tuple with negative trace")
    sp.add_argument("polyfile")
    common(sp, trials=True, size=True, radius=True, seed=True)
    sp.set_defaults(func=cli.cmd_falsify)

    sp = sub.add_parser("moments", help="moment sequence of a matrix tuple")
    sp.add_argument("matrixfile")
    sp.add_argument("--degree", type=int, required=True, help="truncation degree")
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="membership check tolerance (default 1e-9)")
    sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
    sp.set_defaults(func=cli.cmd_moments)

    sp = sub.add_parser("gns-check", help="reconstruct operators from moments and verify")
    sp.add_argument("inputfile", help="matrix-tuple JSON or witness JSON")
    common(sp, degree=True, radius=True,
           degree_help="model half-degree (default: 2 for matrix input, "
                       "half the sequence degree for witness input)")
    sp.set_defaults(func=cli.cmd_gns_check)

    sp = sub.add_parser("norm", help="weighted coefficient norm of a polynomial")
    sp.add_argument("polyfile")
    common(sp, radius=True)
    sp.set_defaults(func=cli.cmd_norm)

    return parser


# -- dense references for the class-labelled affine sets -----------------------
#
# The Gram and witness problems assembled as generic dense equation systems,
# one Hermitian coefficient matrix per real equation.  The class-labelled
# projections in ``nctrace.sdp`` must agree with these.


def dense_gram_constraints(p: NCPoly, d: int) -> AffineConstraints:
    """Class sums equal p's cyclic coefficients: one real equation per
    reversal-closed class, a real and an imaginary one per reversal pair."""
    basis, classes = reference_class_positions(p.nvars, d)
    m = len(basis)
    reduced = p.cyclic_reduce()
    constraints = AffineConstraints(m)
    seen = set()
    for rep in sorted(classes, key=lambda w: (len(w), w)):
        if rep in seen:
            continue
        seen.add(rep)
        A = np.zeros((m, m))
        for row, col in classes[rep]:
            A[row, col] += 1.0
        value = reduced.coeff(rep)
        rep_op = cyclic_canonical(involute_word(rep))
        if rep_op == rep:
            constraints.add(A, value.real)
        else:
            seen.add(rep_op)
            constraints.add((A + A.T) / 2, value.real)
            constraints.add(0.5j * (A - A.T), value.imag)
    return constraints


def _re_entry(pos, m):
    row, col = pos
    A = np.zeros((m, m), dtype=complex)
    A[row, col] += 0.5
    A[col, row] += 0.5
    return A


def _im_entry(pos, m):
    row, col = pos
    A = np.zeros((m, m), dtype=complex)
    if row != col:
        A[row, col] += 0.5j
        A[col, row] -= 0.5j
    return A


def dense_witness_constraints(nvars: int, d: int) -> AffineConstraints:
    """Entries equal on each cyclic class, real and imaginary parts
    separately against the class's first entry, and the empty word at 1."""
    basis, classes = reference_class_positions(nvars, d)
    m = len(basis)
    constraints = AffineConstraints(m)
    unit = np.zeros((m, m))
    unit[0, 0] = 1.0
    constraints.add(unit, 1.0)
    for rep in sorted(classes, key=lambda w: (len(w), w)):
        ref, rest = classes[rep][0], classes[rep][1:]
        for pos in rest:
            re_part = _re_entry(ref, m) - _re_entry(pos, m)
            if np.any(re_part):
                constraints.add(re_part, 0.0)
            im_part = _im_entry(ref, m) - _im_entry(pos, m)
            if np.any(im_part):
                constraints.add(im_part, 0.0)
    return constraints


# -- word-by-word references for the level-batched moment and GNS code ---------
#
# The loops ``nctrace.moments``, ``nctrace.gns`` and ``certify.falsify`` ran
# before they were batched by word length.  The batched code must agree with
# them: bit for bit where the arithmetic is the same (moment values, moment
# matrices, falsify), to rounding where the summation order changed.


def reference_moment_sequence(X, D: int) -> MomentSequence:
    """Normalized traces of all products of length <= D, one word at a time."""
    X = as_matrix_tuple(X)
    products = {(): np.eye(X.N, dtype=complex)}
    values = {(): 1.0 + 0.0j}
    for word in words_up_to(X.n, D):
        if word == ():
            continue
        mat = products[word[:-1]] @ X.matrices[word[-1] - 1]
        products[word] = mat
        values[word] = complex(np.trace(mat) / X.N)
    return MomentSequence(X.n, D, values)


def reference_membership(t: MomentSequence):
    """(worst cyclic gap, its canonical word, worst conjugate gap, its word),
    first maximum in (word, shift) order."""
    worst_cyc = 0.0
    worst_cyc_word = None
    worst_conj = 0.0
    worst_conj_word = None
    for word, value in t.values.items():
        for s in range(1, len(word)):
            rot = word[s:] + word[:s]
            gap = abs(value - t.values[rot])
            if gap > worst_cyc:
                worst_cyc, worst_cyc_word = gap, cyclic_canonical(word)
        gap = abs(value - np.conj(t.values[involute_word(word)]))
        if gap > worst_conj:
            worst_conj, worst_conj_word = gap, word
    return worst_cyc, worst_cyc_word, worst_conj, worst_conj_word


def reference_moment_matrix(t: MomentSequence, d: int) -> np.ndarray:
    basis = words_up_to(t.n, d)
    entries = np.empty((len(basis), len(basis)), dtype=complex)
    for row, J in enumerate(basis):
        for col, K in enumerate(basis):
            entries[row, col] = t.values[involute_word(J) + K]
    return entries


def reference_vacuum_values(model, degree: int) -> dict:
    """<vacuum, Y_w vacuum> for every word up to degree, one word at a time."""
    nvars = len(model.operators)
    vecs = {(): model.vacuum}
    values = {(): complex(np.vdot(model.vacuum, model.vacuum))}
    for word in words_up_to(nvars, degree):
        if word == ():
            continue
        vec = model.operators[word[0] - 1] @ vecs[word[1:]]
        vecs[word] = vec
        values[word] = complex(np.vdot(model.vacuum, vec))
    return values


def reference_real_traces(p: NCPoly, stack: np.ndarray) -> np.ndarray:
    """Real normalized trace of p on each tuple of a ``(K, n, N, N)`` stack,
    from the product of every prefix of every word of p, as the falsify
    screen formed them before it split words in half."""
    K, _, size, _ = stack.shape
    products = {(): np.broadcast_to(np.eye(size, dtype=complex), (K, size, size))}
    total = np.zeros(K, dtype=complex)
    for word, coeff in p.terms.items():
        for length in range(1, len(word) + 1):
            if word[:length] not in products:
                products[word[:length]] = (
                    products[word[: length - 1]] @ stack[:, word[length - 1] - 1]
                )
        total += coeff * np.trace(products[word], axis1=1, axis2=2)
    return total.real / size


def reference_falsify(p: NCPoly, trials: int, N: int, R: float, seed: int):
    """(source, index, trace, matrices) of the first tuple with trace below
    -FALSIFY_TRACE_TOL, library first, then one random tuple per trial."""
    for index, candidate in enumerate(structured_library(p.nvars, N)):
        value = _real_trace(p, candidate)
        if value < -FALSIFY_TRACE_TOL:
            return "library", index, value, candidate.matrices
    rng = make_rng(seed)
    for index in range(trials):
        candidate = as_matrix_tuple(random_hermitian_tuple(rng, p.nvars, N, R))
        value = _real_trace(p, candidate)
        if value < -FALSIFY_TRACE_TOL:
            return "random", index, value, candidate.matrices
    return None


# The list builders the CLI and ``GnsModel.as_dict`` used before the CLI
# wrote arrays itself: the JSON of a moment sequence, a matrix tuple and a
# complex matrix as nested Python lists.  ``json.dumps(..., indent=2,
# sort_keys=True, allow_nan=False)`` of a payload made with them is the byte
# reference for the CLI's writer.


def reference_theta_json(theta: MomentSequence) -> list:
    return [
        {"word": list(w), "re": float(v.real), "im": float(v.imag)}
        for w, v in sorted(theta.values.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


def reference_matrix_pairs(M) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in M]


def reference_matrix_tuple_json(X) -> dict:
    return {
        "n": X.n,
        "N": X.N,
        "matrices": [reference_matrix_pairs(mat) for mat in X.matrices],
    }


def reference_model_json(model) -> dict:
    """``GnsModel.as_dict()`` as it was written before, from lists."""
    return {
        "degree": model.degree,
        "rank": model.rank,
        "basis": [list(w) for w in model.basis],
        "operators": [reference_matrix_pairs(y) for y in model.operators],
        "vacuum": [[float(v.real), float(v.imag)] for v in model.vacuum],
        "diagnostics": {
            "reconstruction_error": model.reconstruction_error,
            "shift_residual": model.shift_residual,
            "hermiticity_defects": list(model.hermiticity_defects),
        },
    }


def stdlib_json(payload) -> str:
    """The CLI's output contract: the stdlib encoder's indented, sorted,
    strict layout plus a newline."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def assert_same_text(got: str, expected: str) -> None:
    """Equality of two long texts, reporting only the first difference;
    pytest's own diff of megabyte strings takes minutes."""
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        window = slice(max(at - 40, 0), at + 40)
        raise AssertionError(
            f"texts differ at offset {at} (lengths {len(got)} and "
            f"{len(expected)}): {got[window]!r} != {expected[window]!r}"
        )
