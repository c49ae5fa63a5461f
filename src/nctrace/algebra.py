"""Sparse noncommutative polynomials over words in letters 1..n.

A word is a tuple of integer letters and indexes the monomial
``Y_I = Y_{i1} Y_{i2} ... Y_{ip}``; the empty tuple is the unit monomial.
Polynomials are finite complex linear combinations of monomials, stored as
a dict from word to coefficient.  A word's position in ``words_up_to``
order is the word read as a numeral (:func:`word_positions`); a polynomial
also gives its terms as a (position, coefficient) array pair
(:meth:`NCPoly.term_arrays`), read off the terms on first use and kept.
The adjoint reverses words and conjugates coefficients, so the symmetric
(self-adjoint) polynomials are exactly the ones fixed by
:meth:`NCPoly.adjoint`.

Two polynomials are cyclically equivalent when they differ by a linear
combination of monomials ``Y_I - Y_J`` with J a rotation of I; under any
tracial evaluation such differences vanish.  :meth:`NCPoly.cyclic_reduce`
projects onto canonical rotation representatives and is the workhorse for
everything trace-related.  A word's representative is its least rotation
(:func:`cyclic_canonical`), found in time quadratic in the word's length;
parsed words have at most 64 letters.  Each process keeps the least
rotations of the last ``WORD_CACHE_SIZE`` words it reduced.
"""

from __future__ import annotations

import cmath
import operator
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, compress, product, repeat
from numbers import Integral
from typing import Iterable, Mapping

import numpy as np

Word = tuple[int, ...]

# Coefficients with magnitude at or below this are dropped on normalization.
COEFF_PRUNE = 1e-15
# Entries of each process-wide cache keyed by one word: least rotations
# here, and the parser's word texts (``parsing``).
WORD_CACHE_SIZE = 1024


def unpruned(values: np.ndarray) -> np.ndarray:
    """Which complex values are above ``COEFF_PRUNE`` in magnitude, the one
    pruning rule: ``hypot`` of their parts, which is Python's ``abs()`` (NaN
    is not above it)."""
    return np.hypot(values.real, values.imag) > COEFF_PRUNE


def is_integer(value) -> bool:
    """Whether value is an integer: an ``Integral`` (NumPy integers too)
    that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_integer(value, name: str) -> None:
    """Raise ValueError naming the argument unless :func:`is_integer`."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_nvars(nvars) -> None:
    """Raise ValueError unless the variable count is an integer
    (:func:`check_integer`) of at least 1."""
    check_integer(nvars, "nvars")
    if nvars < 1:
        raise ValueError(f"nvars must be positive, got {nvars}")


def involute_word(word: Word) -> Word:
    """Reverse a word; the monomial-level adjoint."""
    return word[::-1]


def concat(left: Word, right: Word) -> Word:
    """Concatenate two words, left letters first."""
    return left + right


def cyclic_canonical(word: Iterable[int]) -> Word:
    """Lexicographically least rotation of a word, as a tuple.

    Any sequence of letters is accepted.  The least of the word's
    rotations, read as slices of ``word + word``, is a deterministic key
    for the cyclic class of the word.  The cost is quadratic in the length,
    which the parser caps at ``parsing.MAX_WORD_LENGTH`` letters, and is
    paid once per word while the word stays among the last
    ``WORD_CACHE_SIZE`` this process reduced.
    """
    return _least_rotation(tuple(word))


@lru_cache(maxsize=WORD_CACHE_SIZE)
def _least_rotation(word: Word) -> Word:
    n = len(word)
    if n <= 1:
        return word
    doubled = word + word
    return min([doubled[k : k + n] for k in range(n)])


def word_positions(words, nvars: int) -> list:
    """Each word's position in ``words_up_to(nvars, D)`` order, for every D
    at least its length: the word read as a numeral in bijective base
    nvars, whose digits are its letters, ``sum_j i_j nvars^(L-1-j)``."""
    out = []
    for word in words:
        k = 0
        for letter in word:
            k = k * nvars + letter
        out.append(k)
    return out


def words_up_to(nvars: int, degree: int) -> list[Word]:
    """All words of length <= degree in degree-then-lexicographic order.

    This ordering is shared by every matrix indexed by words (moment
    matrices, Gram matrices, GNS bases); do not reorder.  nvars must pass
    :func:`check_nvars` and degree :func:`check_integer`.
    """
    check_nvars(nvars)
    check_integer(degree, "degree")
    out: list[Word] = []
    for length in range(degree + 1):
        out.extend(product(range(1, nvars + 1), repeat=length))
    return out


class NCPoly:
    """A finitely supported noncommutative polynomial in nvars variables.

    ``terms`` maps words to complex coefficients; zero coefficients are never
    stored.  Instances behave as immutable values: all arithmetic returns new
    objects and never mutates operands, so they are safe to share and to use
    concurrently.

    The constructor refuses a variable count that fails
    :func:`check_nvars`, a letter that is not an integer
    (:func:`check_integer`), a letter outside 1..nvars and a
    coefficient that is not finite; :meth:`scale` refuses a factor that is
    not finite.  Arithmetic whose words come from already-valid words (sums,
    negation, scaling, adjoint, cyclic reduction, products) builds its
    result with the internal :meth:`_from_valid` instead, which skips those
    checks but prunes and converts coefficients exactly as the constructor
    does (:meth:`_from_array`).
    """

    __slots__ = ("nvars", "terms", "_arrays")

    def __init__(self, nvars: int, terms: Mapping[Word, complex] | None = None):
        check_nvars(nvars)
        clean: dict[Word, complex] = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                for letter in word:
                    if not (is_integer(letter) and 1 <= letter <= nvars):
                        check_integer(letter, f"letter in word {word}")
                        raise ValueError(
                            f"letter {letter} in word {word} outside 1..{nvars}"
                        )
                c = complex(coeff)
                if not cmath.isfinite(c):
                    raise ValueError(f"coefficient {c} of word {word} is not finite")
                if abs(c) > COEFF_PRUNE:
                    clean[word] = clean.get(word, 0.0) + c
                    if abs(clean[word]) <= COEFF_PRUNE:
                        del clean[word]
        self.nvars = nvars
        self.terms = clean
        self._arrays = None

    @classmethod
    def _from_valid(cls, nvars: int, terms: Mapping[Word, complex]) -> "NCPoly":
        """:meth:`_from_array` of a dict's words and coefficients."""
        values = np.fromiter(terms.values(), dtype=complex, count=len(terms))
        return cls._from_array(nvars, terms, values)

    @classmethod
    def _from_array(cls, nvars: int, words, values: np.ndarray) -> "NCPoly":
        """A polynomial from distinct word tuples whose letters are in
        1..nvars, and their coefficients as a complex array.

        For finite coefficients this equals ``NCPoly(nvars, dict(zip(words,
        values)))`` without the constructor's checks: each coefficient
        becomes the Python complex ``0.0 + c``, as the constructor's
        accumulation makes it (negative zeros cleared), and is dropped
        unless :func:`unpruned`.
        """
        values = values + 0.0
        kept = unpruned(values)
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = dict(zip(compress(words, kept), compress(values.tolist(), kept)))
        poly._arrays = None
        return poly

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "NCPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "NCPoly":
        return cls(nvars, {(): 1.0})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "NCPoly":
        return cls(nvars, {(index,): 1.0})

    # -- basic queries ---------------------------------------------------

    def coeff(self, word: Iterable[int]) -> complex:
        return self.terms.get(tuple(word), 0.0)

    def degree(self) -> int:
        """Largest stored word length; 0 for the zero polynomial."""
        return max(map(len, self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def term_arrays(self) -> tuple:
        """(positions, coefficients): each term's word position
        (:func:`word_positions`) as an int64 array and its coefficient as a
        complex array, in term order, both read-only.  They are read off the
        terms on the first call and kept.  Raises OverflowError for a
        position past int64."""
        if self._arrays is None:
            positions = np.array(word_positions(self.terms, self.nvars), dtype=np.int64)
            values = np.fromiter(self.terms.values(), dtype=complex, count=len(self.terms))
            positions.flags.writeable = values.flags.writeable = False
            self._arrays = positions, values
        return self._arrays

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        items = ", ".join(f"{w}: {c}" for w, c in sorted(self.terms.items(), key=_word_key))
        return f"NCPoly({self.nvars}, {{{items}}})"

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return self._merge(other, operator.add)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        # a - c is a + (-c) exactly, so this is self + (-other) in one pass.
        return self._merge(other, operator.sub)

    def _merge(self, other: "NCPoly", op) -> "NCPoly":
        """``op(self_w, other_w)`` on each word of other (``op(0.0,
        other_w)`` where self has none), after self's words in order."""
        self._check_compatible(other)
        merged = dict(self.terms)
        theirs = other.terms
        merged.update(zip(theirs, map(op, map(merged.get, theirs, repeat(0.0)), theirs.values())))
        return NCPoly._from_valid(self.nvars, merged)

    def __neg__(self) -> "NCPoly":
        return NCPoly._from_valid(self.nvars, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar: complex) -> "NCPoly":
        if not cmath.isfinite(scalar):
            raise ValueError(f"scale factor {scalar} is not finite")
        return NCPoly._from_valid(
            self.nvars, {w: scalar * c for w, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return star_product(self, other)
        return self.scale(other)

    def __rmul__(self, scalar: complex) -> "NCPoly":
        return self.scale(scalar)

    # -- involution and norms ----------------------------------------------

    def adjoint(self) -> "NCPoly":
        """Conjugate coefficients and reverse every word."""
        return NCPoly._from_valid(
            self.nvars, {w[::-1]: c.conjugate() for w, c in self.terms.items()}
        )

    def r_norm(self, radius: float) -> float:
        """Weighted l1 norm: sum of |coeff| * radius**len(word).

        The radius must be positive and finite; a norm beyond the float
        range is ``inf``.
        """
        if not (0 < radius < np.inf):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        try:
            weights = map(pow, repeat(radius), map(len, self.terms))
            return float(sum(map(operator.mul, map(abs, self.terms.values()), weights)))
        except OverflowError:
            return np.inf

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        """Whether the polynomial equals its adjoint, up to tol in l1.

        The l1 norm of ``self - self.adjoint()`` is summed straight from
        the terms, in the order that difference would hold them: each word's
        defect ``c_w - conj(c_reverse(w))`` (kept above ``COEFF_PRUNE``),
        then once more each coefficient whose reversed word is missing,
        which stands for the adjoint's term on that missing word.
        """
        if tol < 0:
            raise ValueError(f"tol must be nonnegative, got {tol}")
        terms = self.terms
        defects, unpaired = [], []
        for word, coeff in terms.items():
            partner = terms.get(word[::-1])
            if partner is None:
                defects.append(abs(coeff))
                unpaired.append(abs(coeff))
            else:
                defect = abs(coeff - partner.conjugate())
                if defect > COEFF_PRUNE:
                    defects.append(defect)
        return float(sum(defects + unpaired)) <= tol

    def cyclic_reduce(self) -> "NCPoly":
        """Collapse each cyclic class onto its canonical representative.

        The result carries, on each canonical word, the total coefficient of
        the class; the difference ``self - self.cyclic_reduce()`` is a sum of
        rotation differences and therefore vanishes under every trace.
        Idempotent by construction.
        """
        reduced: dict[Word, complex] = {}
        for rep, coeff in zip(map(_least_rotation, self.terms), self.terms.values()):
            reduced[rep] = reduced.get(rep, 0.0) + coeff
        return NCPoly._from_valid(self.nvars, reduced)

    def _check_compatible(self, other: "NCPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"mismatched variable counts: {self.nvars} vs {other.nvars}"
            )


def _word_key(item):
    word = item[0]
    return (len(word), word)


class Factors(Sequence):
    """Polynomials in nvars variables held as one coefficient matrix.

    Row r of ``matrix``, read-only, holds the r-th polynomial's coefficient
    on each of ``words``, and 0 on a word it lacks.
    ``certify.extract_factors`` returns a certificate's square factors as
    one, over the Gram basis.  The sequence is read-only; its polynomials
    are read off their rows (:meth:`NCPoly._from_array`) when one is first
    asked for, and kept, so a reader of the matrix alone (the residual
    re-check, the writer) never builds them.
    """

    def __init__(self, nvars: int, words: tuple, matrix: np.ndarray):
        matrix.flags.writeable = False
        self.nvars, self.words, self.matrix = nvars, words, matrix
        self._polys = None

    def _read(self) -> tuple:
        if self._polys is None:
            self._polys = tuple(NCPoly._from_array(self.nvars, self.words, row) for row in self.matrix)
        return self._polys

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, k):
        return self._read()[k]

    def __iter__(self):
        return iter(self._read())


def coefficient_matrix(polys) -> tuple:
    """(words, B): the words the polynomials use and, row by row, their
    coefficients on those words.

    :class:`Factors` give their words and matrix.  For any other list the
    words are numbered as first seen, polynomial by polynomial in term
    order.
    """
    if isinstance(polys, Factors):
        return polys.words, polys.matrix
    polys = list(polys)
    words = dict.fromkeys(chain.from_iterable(p.terms for p in polys))
    columns = dict(zip(words, range(len(words))))
    B = np.zeros((len(polys), len(columns)), dtype=complex)
    for row, p in zip(B, polys):
        row[list(map(columns.get, p.terms))] = list(p.terms.values())
    return tuple(columns), B


def star_product(a: NCPoly, b: NCPoly) -> NCPoly:
    """Product of polynomials: coefficients convolve over word splittings.

    The coefficient of I in a*b is the sum of a_J * b_K over all ways of
    writing I as J followed by K.  Degrees add; the operation is bilinear
    and associative, and the adjoint is an anti-homomorphism for it.
    """
    a._check_compatible(b)
    out: dict[Word, complex] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            word = wa + wb
            out[word] = out.get(word, 0.0) + ca * cb
    return NCPoly._from_valid(a.nvars, out)


def pair(a: NCPoly, t) -> complex:
    """Pair a polynomial with a moment-like functional: sum of a_I * t_I.

    ``t`` needs a ``max_degree`` attribute and to return ``t[w]`` for every
    word up to that degree, as a :class:`~nctrace.moments.MomentSequence`
    does from its array.  Linear in ``a``; when the functional is
    cyclically invariant the pairing only sees ``a.cyclic_reduce()``.
    """
    if a.degree() > t.max_degree:
        raise ValueError(
            f"degree overflow: polynomial degree {a.degree()} exceeds "
            f"functional degree {t.max_degree}"
        )
    return complex(sum(c * t[w] for w, c in a.terms.items()))


def evaluate(a: NCPoly, matrices) -> np.ndarray:
    """Substitute square matrices for the variables and sum the terms.

    ``matrices`` is a sequence of n equal-size square arrays (or an object
    exposing them as ``.matrices``); the empty word contributes the identity.
    """
    mats = getattr(matrices, "matrices", matrices)
    mats = [np.asarray(m) for m in mats]
    if len(mats) != a.nvars:
        raise ValueError(
            f"polynomial has {a.nvars} variables but {len(mats)} matrices given"
        )
    size = mats[0].shape[0] if mats[0].ndim else 0
    for j, m in enumerate(mats):
        if m.shape != (size, size):
            raise ValueError(
                f"matrices must share a square shape, got {m.shape} for matrix {j + 1}"
            )
    acc = np.zeros((size, size), dtype=complex)
    cache: dict[Word, np.ndarray] = {(): np.eye(size, dtype=complex)}
    for word in sorted(a.terms, key=lambda w: (len(w), w)):
        acc += a.terms[word] * _word_product(word, mats, cache)
    return acc


def _word_product(word: Word, mats, cache: dict[Word, np.ndarray]) -> np.ndarray:
    if word in cache:
        return cache[word]
    prefix = _word_product(word[:-1], mats, cache)
    result = prefix @ mats[word[-1] - 1]
    cache[word] = result
    return result


def normalized_trace(matrix: np.ndarray) -> complex:
    """Trace divided by the matrix size."""
    matrix = np.asarray(matrix)
    return complex(np.trace(matrix) / matrix.shape[0])
