"""Sparse noncommutative polynomials over words in letters 1..n.

A word is a tuple of integer letters and indexes the monomial
``Y_I = Y_{i1} Y_{i2} ... Y_{ip}``; the empty tuple is the unit monomial.
Polynomials are finite complex linear combinations of monomials, stored as
a dict from word to coefficient.  The adjoint reverses words and conjugates
coefficients, so the symmetric (self-adjoint) polynomials are exactly the
ones fixed by :meth:`NCPoly.adjoint`.

Two polynomials are cyclically equivalent when they differ by a linear
combination of monomials ``Y_I - Y_J`` with J a rotation of I; under any
tracial evaluation such differences vanish.  :meth:`NCPoly.cyclic_reduce`
projects onto canonical rotation representatives and is the workhorse for
everything trace-related.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping

import numpy as np

Word = tuple[int, ...]

# Coefficients with magnitude at or below this are dropped on normalization.
COEFF_PRUNE = 1e-15


def involute_word(word: Word) -> Word:
    """Reverse a word; the monomial-level adjoint."""
    return word[::-1]


def concat(left: Word, right: Word) -> Word:
    """Concatenate two words, left letters first."""
    return left + right


def cyclic_canonical(word: Word) -> Word:
    """Lexicographically least rotation of a word.

    Uses Booth's least-rotation algorithm (linear time), so the result is a
    deterministic key for the cyclic class of the word.
    """
    if len(word) <= 1:
        return word
    doubled = word + word
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        sj = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return word[k:] + word[:k]


def words_up_to(nvars: int, degree: int) -> list[Word]:
    """All words of length <= degree in degree-then-lexicographic order.

    This ordering is shared by every matrix indexed by words (moment
    matrices, Gram matrices, GNS bases); do not reorder.
    """
    if nvars < 1:
        raise ValueError(f"nvars must be positive, got {nvars}")
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

    The constructor checks every letter of every word.  Arithmetic whose
    words come from already-valid words (sums, negation, scaling, adjoint,
    cyclic reduction, products) builds its result with the internal
    :meth:`_from_valid` instead, which skips that check but prunes and
    converts coefficients exactly as the constructor does.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Word, complex] | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        clean: dict[Word, complex] = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                for letter in word:
                    if not 1 <= letter <= nvars:
                        raise ValueError(
                            f"letter {letter} in word {word} outside 1..{nvars}"
                        )
                c = complex(coeff)
                if abs(c) > COEFF_PRUNE:
                    clean[word] = clean.get(word, 0.0) + c
                    if abs(clean[word]) <= COEFF_PRUNE:
                        del clean[word]
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _from_valid(cls, nvars: int, terms: Mapping[Word, complex]) -> "NCPoly":
        """A polynomial from distinct word tuples whose letters are in 1..nvars.

        For such terms this equals ``NCPoly(nvars, terms)`` without the
        per-letter check: each coefficient becomes the Python complex
        ``0.0 + complex(c)``, as the constructor's accumulation makes it
        (negative zeros cleared), and is dropped at magnitude
        ``<= COEFF_PRUNE``.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = {
            w: 0.0 + complex(c) for w, c in terms.items() if abs(c) > COEFF_PRUNE
        }
        return poly

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "NCPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "NCPoly":
        return cls(nvars, {(): 1.0})

    @classmethod
    def monomial(cls, nvars: int, word: Iterable[int], coeff: complex = 1.0) -> "NCPoly":
        return cls(nvars, {tuple(word): coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "NCPoly":
        return cls(nvars, {(index,): 1.0})

    # -- basic queries ---------------------------------------------------

    def coeff(self, word: Iterable[int]) -> complex:
        return self.terms.get(tuple(word), 0.0)

    def degree(self) -> int:
        """Largest stored word length; 0 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

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
        self._check_compatible(other)
        merged = dict(self.terms)
        for word, coeff in other.terms.items():
            merged[word] = merged.get(word, 0.0) + coeff
        return NCPoly._from_valid(self.nvars, merged)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly._from_valid(self.nvars, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar: complex) -> "NCPoly":
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
            return float(sum(abs(c) * radius ** len(w) for w, c in self.terms.items()))
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
        for word, coeff in self.terms.items():
            rep = cyclic_canonical(word)
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
    if not mats:
        raise ValueError("need at least one matrix")
    size = mats[0].shape[0]
    for m in mats:
        if m.shape != (size, size):
            raise ValueError(f"matrices must share a square shape, got {m.shape}")
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
