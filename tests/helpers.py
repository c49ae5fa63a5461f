"""Shared generators for the test suite; all randomness is seed-driven."""

import argparse
import cmath
import functools
import importlib.util
import json
import math
import os
import pathlib
import pkgutil
import re
import sys
from functools import lru_cache
from itertools import product

import numpy as np

import nctrace
from nctrace import certify, cli
from nctrace.algebra import (
    COEFF_PRUNE,
    NCPoly,
    Word,
    coefficient_matrix,
    cyclic_canonical,
    involute_word,
    star_product,
    unpruned,
    words_up_to,
)
from nctrace.certify import FALSIFY_TRACE_TOL, Certificate, _real_trace, certify_sos
from nctrace.moments import MomentSequence, WordIndex, as_matrix_tuple
from nctrace.parsing import (
    MAX_DIGITS,
    MAX_WORD_LENGTH,
    PolyParseError,
    _format_word,
    parse_poly,
    strip_comments,
)
from nctrace.sampling import structured_library
from nctrace.sdp import (
    CONSISTENCY_TOL,
    SolveReport,
    _check_hermitian,
    _require_consistent,
    project_affine,
    project_psd,
)


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"


def checkout_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def package_caches() -> dict:
    """Every ``functools`` cache wrapper in an nctrace module or in a class
    of one, by its qualified name."""
    found = {}
    for info in pkgutil.iter_modules(nctrace.__path__):
        module = importlib.import_module(f"nctrace.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                member = getattr(member, "__func__", member)  # static/class methods
                if isinstance(member, functools._lru_cache_wrapper):
                    found[f"{member.__module__}.{member.__qualname__}"] = member
    return found


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
    """Hermitian matrices rescaled to spectral norm exactly radius; one whose
    norm is so small that radius / norm overflows is divided by its norm
    first."""
    mats = []
    for _ in range(nvars):
        h = random_hermitian(rng, size)
        norm = np.linalg.norm(h, 2)
        if norm > 0:
            with np.errstate(over="ignore"):
                scale = radius / norm
            h = (h / norm) * radius if np.isinf(scale) else h * scale
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


def reference_gram_sum_of_squares(factors, nvars: int) -> NCPoly:
    """Sum of b* b by one Gram product, term by term: one addition per
    nonzero entry of ``B^H B``, in row-major order, onto the word
    reverse(J) + K, the order ``nctrace.certify._square_sum`` sums in."""
    columns: dict[Word, int] = {}
    for b in factors:
        for word in b.terms:
            columns.setdefault(word, len(columns))
    B = np.zeros((len(factors), len(columns)), dtype=complex)
    for row, b in zip(B, factors):
        row[[columns[word] for word in b.terms]] = list(b.terms.values())
    gram = B.conj().T @ B
    J, K = np.nonzero(gram)
    lefts = [word[::-1] for word in columns]
    words = list(columns)
    total: dict[Word, complex] = {}
    for j, k, value in zip(J.tolist(), K.tolist(), gram[J, K].tolist()):
        word = lefts[j] + words[k]
        total[word] = total.get(word, 0.0) + value
    return NCPoly._from_valid(nvars, total)


def square_sum(factors, nvars: int) -> NCPoly:
    """``nctrace.certify._square_sum`` of a factor list as a polynomial: the
    words of its entries' positions in the order first met, with their
    totals, which it has pruned itself (a pruned total is 0)."""
    columns, B = coefficient_matrix(factors)
    index = WordIndex(nvars, 2 * max(map(len, columns), default=0))
    words, sums = certify._square_sum(columns, B, nvars, len(index))
    assert (unpruned(sums) | (sums == 0)).all()
    words = [k for k in dict.fromkeys(words.tolist()) if sums[k] != 0]
    return NCPoly._from_array(nvars, [index.word(k) for k in words], sums[words])


def reference_residual(p: NCPoly, factors) -> float:
    """The certificate residual of a plain list of factors as the
    polynomial arithmetic computed it term by term: the square sum of
    :func:`reference_gram_sum_of_squares`, subtracted from p, reduced onto
    least rotations and measured in l1, each step one dict update per term
    with the results' coefficients cleared and pruned as ``_from_valid``
    does."""
    def cleared(terms: dict) -> dict:
        return {w: 0.0 + complex(c) for w, c in terms.items() if abs(c) > COEFF_PRUNE}

    difference = dict(p.terms)
    for word, coeff in reference_gram_sum_of_squares(factors, p.nvars).terms.items():
        difference[word] = difference.get(word, 0.0) - coeff
    reduced: dict = {}
    for word, coeff in cleared(difference).items():
        rep = cyclic_canonical(word)
        reduced[rep] = reduced.get(rep, 0.0) + coeff
    return float(sum(abs(c) * 1.0 ** len(w) for w, c in cleared(reduced).items()))


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


@lru_cache(maxsize=8)
def workload(name: str, seed: int):
    """A benchmark workload: its ops, files, polynomials and tuples.

    Built once per (name, seed) for the session; callers read it and must
    not change it.
    """
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads.build(name, seed)


def workload_polys(name: str, seed: int) -> list:
    """(text, nvars) of every polynomial file of a benchmark workload."""
    wl = workload(name, seed)
    return [(wl.files[f"{source}.poly"], nvars) for source, (nvars, _) in wl.polys.items()]


def workload_poly(name: str, seed: int, source: str) -> NCPoly:
    """One polynomial of a benchmark workload, by its source name."""
    nvars, terms = workload(name, seed).polys[source]
    return NCPoly(nvars, terms)


def workload_certificates(seed: int) -> list:
    """(p, certificate) for every op of the certify-grid workload that must
    certify: its file's polynomial, as the bulk reader reads it, and the
    certificate that ``nctrace certify`` prints for it at the op's degree."""
    wl = workload("certify-grid", seed)
    certs = []
    for op in wl.ops:
        if op.expect == (0,):
            nvars = wl.polys[op.source][0]
            p = parse_poly(strip_comments(wl.files[op.input]), nvars)
            cert = certify_sos(p, op.cell[1])
            assert isinstance(cert, Certificate)
            certs.append((p, cert))
    return certs


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


# -- the polynomial writer's reference ----------------------------------------
#
# The term-by-term writer ``nctrace.parsing.format_polys`` ran before it
# wrote all of its polynomials' terms in one array pass.  The new writer
# must return the same text, byte for byte, and refuse a non-finite
# coefficient with the same message.


def reference_format_poly(p: NCPoly) -> str:
    """One polynomial's text, one term at a time."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        coeff = p.terms[word]
        if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
            # The grammar refuses a non-finite total coefficient on a word.
            raise ValueError(f"coefficient {coeff} of word {word} is not finite")
        negative = coeff.real < 0 or (coeff.real == 0 and coeff.imag < 0)
        if negative:
            coeff = -coeff
        body = _format_term(_format_word(word), coeff)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def _fmt_real(x: float) -> str:
    # Integral values print without a trailing ".0"; both forms re-parse exactly.
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _format_term(word_str: str, coeff: complex) -> str:
    if coeff.imag == 0:
        coeff_str = _fmt_real(coeff.real)
        unit = coeff.real == 1.0
    else:
        coeff_str = f"({_fmt_real(coeff.real)},{_fmt_real(coeff.imag)})"
        unit = False
    if not word_str:
        return coeff_str if not unit else "1"
    if unit:
        return word_str
    return f"{coeff_str}*{word_str}"


# -- the CLI's reference parser ------------------------------------------------
#
# The full argparse tree ``nctrace.cli`` built by hand before its command
# table.  Help, usage errors, the unknown-command message and every parse
# must read the same.


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
# ``AffineConstraints`` holds general real equations ``Re<A_k, G> = b_k``
# with Hermitian coefficient matrices, projected through the pseudo-inverse
# of their dense system: the reference that the class projections of
# ``nctrace.sdp.ClassConstraints`` must match.  It has the attributes the
# solver reads (see the ``nctrace.sdp`` docstring), so it also serves as
# general input to ``feasibility_solve``.  Below it, the Gram and witness
# problems assembled as such dense systems, one Hermitian coefficient matrix
# per real equation.


def _embed(M: np.ndarray) -> np.ndarray:
    """Matrix as a real vector; an exact isometry for the Frobenius norm,
    and Re<A, M> becomes the plain dot product of the embeddings."""
    return np.concatenate([M.real.ravel(), M.imag.ravel()])


def _unembed(v: np.ndarray, dim: int) -> np.ndarray:
    k = dim * dim
    return v[:k].reshape(dim, dim) + 1j * v[k:].reshape(dim, dim)


class AffineConstraints:
    """Equations ``Re<A_k, G> = b_k`` over Hermitian G, A_k Hermitian.

    Duplicate or linearly dependent rows are allowed; they are detected when
    the constraint system is first used and surfaced via ``n_redundant``.
    """

    radii = None  # affine: no magnitude box
    dtype = complex  # its projection is complex, so every solve on it is

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self._matrices: list[np.ndarray] = []
        self._rhs: list[float] = []
        self._prepared: _Prepared | None = None

    def add(self, A: np.ndarray, b: float) -> None:
        A = _check_hermitian(A)
        if A.shape != (self.dim, self.dim):
            raise ValueError(
                f"constraint matrix shape {A.shape} does not match dim {self.dim}"
            )
        self._matrices.append(A)
        self._rhs.append(float(b))
        self._prepared = None

    def __len__(self) -> int:
        return len(self._matrices)

    @property
    def matrices(self) -> list[np.ndarray]:
        return list(self._matrices)

    @property
    def rhs(self) -> np.ndarray:
        return np.array(self._rhs)

    @property
    def rank(self) -> int:
        return self._prepare().rank

    @property
    def n_redundant(self) -> int:
        """Number of linearly dependent rows among the constraints."""
        return len(self) - self._prepare().rank

    @property
    def defect(self) -> float:
        """Least-squares residual of the equations; zero when solvable."""
        return self._prepare().lstsq_residual

    @property
    def consistent(self) -> bool:
        return self._prepare().consistent

    @property
    def start_scale(self) -> float:
        """Identity multiple matching the pure-trace part of the equations."""
        traces = np.array([float(np.trace(A).real) for A in self._matrices])
        denom = float(np.sum(traces**2))
        return float(np.dot(traces, self.rhs) / denom) if denom > 1e-30 else 0.0

    def _prepare(self) -> "_Prepared":
        if self._prepared is None:
            self._prepared = _Prepared(self)
        return self._prepared

    def project(self, G: np.ndarray) -> np.ndarray:
        return _unembed(self._prepare().project_vec(_embed(G)), self.dim)

    def distance(self, G: np.ndarray) -> float:
        prep = self._prepare()
        if prep.C.shape[0] == 0:
            return 0.0
        v = _embed(G)
        return float(np.linalg.norm(prep.project_vec(v) - v))

    def residuals(self, G: np.ndarray) -> np.ndarray:
        """Signed violation of each equation at G."""
        if not self._matrices:
            return np.zeros(0)
        prep = self._prepare()
        return prep.C @ _embed(np.asarray(G, dtype=complex)) - prep.b


class _Prepared:
    """Vectorized constraint system with a cached pseudo-inverse."""

    def __init__(self, constraints: AffineConstraints):
        dim = constraints.dim
        k = len(constraints)
        self.dim = dim
        self.b = constraints.rhs
        if k == 0:
            self.C = np.zeros((0, 2 * dim * dim))
            self.pinv = np.zeros((2 * dim * dim, 0))
            self.rank = 0
            self.consistent = True
            self.lstsq_residual = 0.0
            return
        self.C = np.stack([_embed(A) for A in constraints.matrices])
        u, s, vt = np.linalg.svd(self.C, full_matrices=False)
        cutoff = max(s[0], 1.0) * 1e-12 if s.size else 0.0
        keep = s > cutoff
        self.rank = int(np.count_nonzero(keep))
        s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        self.pinv = (vt.T * s_inv) @ u.T
        # Min-norm solution residual reveals mutually contradictory equations.
        nearest = self.C @ (self.pinv @ self.b)
        self.lstsq_residual = float(np.linalg.norm(nearest - self.b))
        self.consistent = self.lstsq_residual <= CONSISTENCY_TOL

    def project_vec(self, v: np.ndarray) -> np.ndarray:
        if self.C.shape[0] == 0:
            return v
        return v - self.pinv @ (self.C @ v - self.b)


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


# -- the checked ADMM loop -------------------------------------------------------
#
# ``sdp.minimize_linear`` as it was when every iteration called the checked
# public projections, in the dtype the solver takes: real when the objective
# and the set's targets are, with the anchor's real part.  The loop that
# checks its inputs once and then calls the unchecked kernels must return
# the same report, bit for bit.


def reference_minimize_linear(objective, constraints, tol=1e-9, max_iter=10_000, anchor=None):
    if not (0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    c = _check_hermitian(objective)
    dim = constraints.dim
    if c.shape != (dim, dim):
        raise ValueError(f"objective shape {c.shape} does not match dim {dim}")
    _require_consistent(constraints)
    affine = getattr(constraints, "radii", None) is None
    dtype = np.result_type(c, constraints.dtype)
    c = c.astype(dtype)

    rho = max(float(np.linalg.norm(c)), 1.0)
    start = constraints.start_scale * np.eye(dim, dtype=dtype)
    x = z = project_affine(start, constraints)
    u = np.zeros_like(z)
    normal = separator = None
    primal = dual = float("inf")
    status = "max-iterations"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x = project_affine(z - u - c / rho, constraints)
        z_next = project_psd(x + u)
        primal = float(np.linalg.norm(x - z_next))
        dual = rho * float(np.linalg.norm(z_next - z))
        u = u + x - z_next
        z = z_next
        if primal <= tol and dual <= tol:
            status = "feasible"
            break
        if iterations % 20 == 0:
            if primal > 10 * dual:
                rho, u = 2 * rho, u / 2
            elif dual > 10 * primal:
                rho, u = rho / 2, 2 * u
        if not affine or iterations % 10:
            continue
        Y = z - project_affine(z, constraints)
        low = float(np.linalg.eigvalsh(Y)[0])
        if low < 0:
            if normal is None:
                A = _check_hermitian(np.eye(dim) if anchor is None else anchor())
                A = np.array(A if dtype == complex else A.real, dtype=dtype)
                A += project_affine(0 * A, constraints) - project_affine(A, constraints)
                normal = A, float(np.linalg.eigvalsh(A)[0])
            A, delta = normal
            if not delta > 0:
                continue
            Y = Y - (low / delta) * A
        if np.real(np.vdot(Y, x)) < -tol * np.linalg.norm(Y) and (
            low >= 0 or np.linalg.eigvalsh(Y)[0] >= 0
        ):
            status, separator = "infeasible-at-tolerance", Y
            break

    value = float(np.real(np.vdot(c, x)))
    return SolveReport(status, iterations, x, value, primal, dual, separator)


# -- word-by-word references for the level-batched moment and GNS code ---------
#
# The loops ``nctrace.moments``, ``nctrace.gns`` and ``certify.falsify`` ran
# before they were batched by word length.  The batched code must agree with
# them: bit for bit where the arithmetic is the same (moment matrices,
# falsify, and moment values by class and word length), to rounding where
# the summation order changed (moment values against the trace of each
# word's own product).


def reference_moment_sequence(X, D: int) -> MomentSequence:
    """Normalized traces of all products of length <= D, one word at a time:
    ``np.trace`` of each word's own product."""
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


def matmul_block(lefts: list, rights: list) -> np.ndarray:
    """``sum_ab left_ab right_ba`` for every pair of a list of left and a
    list of right N x N matrices, as ``moment_sequence`` forms the traces
    of one word length: one matmul of the C-order rows of the lefts with
    the transposed C-order rows of the rights' transposes."""
    N = len(lefts[0])
    rows = np.stack(lefts).reshape(len(lefts), N * N)
    columns = np.stack(rights).swapaxes(1, 2).reshape(len(rights), N * N).T
    return rows @ columns


def einsum_block(lefts: list, rights: list) -> np.ndarray:
    """``sum_ab left_ab right_ba`` for every pair, one ``np.einsum`` each:
    the class values this gives are as exactly class-constant as
    ``moment_sequence``'s, and other in their last bits."""
    return np.array([[np.einsum("ab,ba->", J, K) for K in rights] for J in lefts])


def reference_class_moment_sequence(X, D: int, block=matmul_block) -> MomentSequence:
    """Normalized traces of all products of length <= D, one word at a time
    and one trace per dihedral class.

    Products are formed word by word, the last letter last.  The traces of
    the words of length L are ``block`` of the products of the words J of
    length floor(L/2) and those of the words K of length ceil(L/2), in
    ``words_up_to`` order, read at word J + K and divided by N.  A word's
    class is its rotations and their reversals, as tuples; its least word
    carries its trace, with the imaginary part 0.0 when it is a rotation of
    its reversal.  Every word of the class reads the value, conjugated when
    the least word is not one of its rotations.
    """
    X = as_matrix_tuple(X)
    products = {(): np.eye(X.N, dtype=complex)}
    for word in words_up_to(X.n, (D + 1) // 2)[1:]:
        products[word] = products[word[:-1]] @ X.matrices[word[-1] - 1]
    traces = {}
    for L in range(D + 1):
        lefts = [J for J in products if len(J) == L // 2]
        rights = [K for K in products if len(K) == L - L // 2]
        entries = block([products[J] for J in lefts], [products[K] for K in rights]) / X.N
        for a, J in enumerate(lefts):
            for b, K in enumerate(rights):
                traces[J + K] = entries[a, b]
    classes = {}
    values = {}
    for word in words_up_to(X.n, D):
        rotations = [word[s:] + word[:s] for s in range(len(word))] or [()]
        reversals = [involute_word(r) for r in rotations]
        least = min(rotations + reversals)
        if least not in classes:
            own_reversal = least in rotations and least in reversals
            value = traces[least]
            classes[least] = complex(value.real, 0.0 if own_reversal else value.imag)
        value = classes[least]
        values[word] = value if least in rotations else value.conjugate()
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


def reference_chunk_traces(p: NCPoly, stack: np.ndarray) -> np.ndarray:
    """The falsify screen's traces as it computed them when it made its
    word plan (halves, prefixes, numbering, coefficient matrix) from p anew
    for every chunk."""
    K, _, size, _ = stack.shape
    splits = [(w[: len(w) // 2], w[len(w) // 2 :]) for w in p.terms]
    halves = {h for split in splits for h in split}
    prefixes = sorted({()} | {h[:k] for h in halves for k in range(1, len(h) + 1)}, key=len)
    position = {w: i for i, w in enumerate(prefixes)}
    products = np.empty((K, len(prefixes), size, size), dtype=complex)
    products[:, 0] = np.eye(size)
    stops = np.cumsum(np.bincount([len(w) for w in prefixes]))
    for start, stop in zip(stops[:-1], stops[1:]):
        level = prefixes[start:stop]
        parents = [position[w[:-1]] for w in level]
        letters = [w[-1] - 1 for w in level]
        np.matmul(products[:, parents], stack[:, letters], out=products[:, start:stop])
    lefts = {J: a for a, J in enumerate(dict.fromkeys(J for J, _ in splits))}
    rights = {L: b for b, L in enumerate(dict.fromkeys(L for _, L in splits))}
    coeffs = np.zeros((len(lefts), len(rights)), dtype=complex)
    for (J, L), c in zip(splits, p.terms.values()):
        coeffs[lefts[J], rights[L]] = c
    rows = products[:, [position[J] for J in lefts]].reshape(K, len(lefts), size * size)
    columns = products[:, [position[L] for L in rights]].swapaxes(2, 3)
    columns = columns.reshape(K, len(rights), size * size).swapaxes(1, 2)
    return ((rows @ columns).reshape(K, -1) @ coeffs.ravel()).real / size


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


def theta_text_size(n: int, D: int, level: int) -> int:
    """The characters of the literal text of ``cli._theta_pieces(n, D,
    level)``, from the three integers.

    Each word's entry, with its separator, takes ``10 level + 46``
    characters besides the word's text; the text of a word of L >= 1
    letters takes ``L (2 level + 8) + 2 level + 6`` besides its digits.
    """
    # The digits of the letters 1..n: each j >= 10^k has a (k + 1)-th one.
    digits = sum(n - 10**k + 1 for k in range(len(str(n))))
    size = 2 * level + 4  # the list's brackets and last newline, the empty word's []
    for L in range(D + 1):
        size += n**L * (10 * level + 46)
        if L:
            size += n**L * (L * (2 * level + 8) + 2 * level + 6) + L * n ** (L - 1) * digits
    return size


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
        "basis": [list(w) for w in words_up_to(len(model.operators), model.degree)],
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
