"""Certify or refute trace positivity of self-adjoint polynomials.

A self-adjoint polynomial whose trace is nonnegative on all Hermitian
matrix tuples is the target of three complementary procedures:

* :func:`certify_sos` searches, at a chosen half-degree d, for a Gram
  matrix presenting the polynomial as cyclically equivalent to a sum of
  hermitian squares.  Success is constructive: explicit square factors
  with an independently recomputable residual.
* :func:`dual_witness` searches the other side of the duality for a
  pseudo-moment sequence that is structurally admissible (cyclic,
  conjugate symmetric, positive on squares, geometrically bounded) yet
  pairs negatively with the polynomial.
* :func:`falsify` hunts for a concrete matrix tuple with negative
  normalized trace, which is itself a witness through its moments.

Both searches label each entry (J, K) of their matrix over the words of
length <= d with the cyclic class of ``reverse(J) + K``.  The labels come
from :class:`~nctrace.moments.WordIndex` positions (see
:func:`cyclic_classes`): a word's least rotation is the least position
among its rotations, and ranking those positions numbers the classes.
A certificate is one factor matrix: :func:`extract_factors` writes the
factors ``sqrt(lambda) conj(v)`` of the Gram matrix's eigenpairs as the
rows of a matrix B over the Gram basis, and returns B as
:class:`~nctrace.algebra.Factors`, whose polynomials are read off its rows
only when asked for.  The residual re-check and the writer
(:func:`~nctrace.parsing.format_polys`) read B; a plain list of
polynomials is turned into its B once
(:func:`~nctrace.algebra.coefficient_matrix`).  :func:`certify_sos` first
solves on the words of the basis that the tracial Newton polytope of p
keeps (:func:`_newton_kept`), unless that keeps them all.  Both searches and the
re-check read p as its (word position, coefficient) arrays
(:meth:`~nctrace.algebra.NCPoly.term_arrays`), which p reads off its
words once and keeps.  The residual is recomputed from p and the factors
alone: the entries (J, K) of ``B^H B`` are summed onto the positions of
their words ``reverse(J) + K``, taken by numeral arithmetic from the
factors' own words, subtracted from p's, and summed onto least rotations
from a table of the re-check's own (:func:`_rotation_table`).  It never
reads the class labels, a :class:`~nctrace.moments.WordIndex` or any
solver state.  Problems larger than :data:`MAX_GRAM_SIZE` are refused
before anything is allocated.

Failure of the primal search is only ever "infeasible at tolerance at
level d": raising d enlarges the search space, and no claim of
completeness is made at any finite level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    Factors,
    NCPoly,
    check_integer,
    coefficient_matrix,
    evaluate,
    is_integer,
    normalized_trace,
    pair,
    unpruned,
    word_positions,
    words_up_to,
)
from .moments import (
    HALF_MAX,
    MAX_MOMENT_SIZE,
    MomentSequence,
    WordIndex,
    as_matrix_tuple,
    cacheable,
    check_radius,
    check_w_membership,
    moment_matrix,
    moment_size,
    psd_check,
    unchecked_moment_sequence,
    word_count,
)
from .sampling import (
    _draw_hermitians,
    _library,
    _scale_to_radius,
    make_rng,
    random_tuple,
)
from .sdp import (
    DEFAULT_MAX_ITER,
    ClassConstraints,
    ClassLabels,
    NoFeasiblePoint,
    SolveReport,
    feasibility_solve,
    minimize_linear,
    project_affine,
)

SYMMETRY_TOL = 1e-10
RANK_CUTOFF = 1e-8
RESIDUAL_TOL = 1e-6  # certificate residual allowed, relative to max(1, ||p||_1)
FALSIFY_TRACE_TOL = 1e-10
FALSIFY_CHUNK = 64  # random falsify trials drawn and screened together
FALSIFY_SCREEN = 1e-8  # screen slack for batched traces, relative to ||p||_R


class SolverStalled(RuntimeError):
    """Feasibility solve hit its iteration cap without deciding."""

    def __init__(self, report: SolveReport):
        super().__init__(
            f"solver undecided after {report.iterations} iterations "
            f"(gap {report.gap:.3e})"
        )
        self.report = report


def _require_symmetric(p: NCPoly) -> None:
    """Refuse a coefficient that is not finite, by word, then a polynomial
    that is not self-adjoint: one whose l1 distance from its adjoint is
    above ``SYMMETRY_TOL * max(1, ||p||_1)``, relative as the residual gate
    is, so that a multiple of p is refused exactly when p is (an l1 norm
    past the largest float counts as the largest float).  Arithmetic on
    finite coefficients can overflow, and the symmetry test reads a NaN
    defect as no defect."""
    for word, coeff in p.terms.items():
        if not cmath.isfinite(coeff):
            raise ValueError(f"coefficient {coeff} of word {word} is not finite")
    norm = min(p.r_norm(1.0), np.finfo(float).max)
    if not p.is_symmetric(SYMMETRY_TOL * max(1.0, norm)):
        raise ValueError("polynomial is not self-adjoint")


# Size limit of the Gram and witness problems at half-degree d, in the units
# of ``moment_size(nvars, 2d)``: the words of length <= 2d times 2d + 1, as
# for the degree-2d sequence a witness emits.  The class labels are read off
# every word of length <= 2d, each compared with its up to 2d rotations, and
# the m x m solver matrices over the m words of length <= d hold no more
# entries than that.  2**20 allows n = 2 up to d = 7, n = 3 up to d = 5, and
# a single variable up to d = 511; m is at most 591, at (590, 1), where a
# solver matrix takes 2.7 MiB real and 5.3 MiB complex.  A solve that runs
# past iteration 20 holds about 39 of them at its peak, 24 of them the
# Anderson history, allocated at its first recorded step.  certify_sos of
# b* b at d = 1, b = Y1 + ... + Y590, whose class sums are real, is decided
# before that and peaks at 68 MiB traced with its cell built (87 MiB
# building it).
MAX_GRAM_SIZE = 2**20


def check_gram_size(nvars: int, d: int) -> None:
    """Raise ValueError when the problems at half-degree d exceed MAX_GRAM_SIZE.

    Computed from the two integers alone, so a huge d costs nothing.
    """
    if moment_size(nvars, 2 * d) > MAX_GRAM_SIZE:
        raise ValueError(
            f"Gram problem too large: half-degree {d} in {nvars} variables "
            f"exceeds the size limit {MAX_GRAM_SIZE} (words of length <= 2d "
            "times 2d + 1)"
        )


def _check_degree(p: NCPoly, d: int) -> None:
    """Refuse a half-degree that is not an integer, is negative, is below
    half of p's degree or is past the size limit."""
    check_integer(d, "half-degree d")
    if d < 0:
        raise ValueError(f"half-degree d must be nonnegative, got {d}")
    if p.degree() > 2 * d:
        raise ValueError(f"polynomial degree {p.degree()} exceeds 2*d = {2 * d}")
    check_gram_size(p.nvars, d)


@dataclass(frozen=True)
class CyclicClasses:
    """The cyclic classes of the words of length <= 2d, by word-index arithmetic.

    ``index`` is ``WordIndex(nvars, 2d)``.  A class is labelled by the rank,
    in ``words_up_to`` order, of its least word; ``word_labels`` holds the
    label of every word up to 2d and ``reps`` the position of each class's
    least word, so class c's least word is ``index.word(reps[c])``.
    ``checked.labels[J, K]`` is the label of ``reverse(J) + K`` over the m
    basis words of length <= d, whose tuples ``basis`` holds: every word up
    to 2d is such a pair (split it in the middle), so every class labels
    some entry.  ``checked`` holds those labels checked once for the
    solver's constraint sets (:class:`~nctrace.sdp.ClassLabels`).
    ``corners`` holds the labels of the empty word and of each letter's
    power Y_i^(2d), the classes whose sums decide whether the Newton cut
    keeps every basis word (:func:`_cut_problem`).  A cell keeps arrays,
    its index and ``basis``, and no object per class.  ``anchor`` is the
    cell's tracial anchor (:func:`_tracial_anchor`), built on first read
    and kept with the cell.
    """

    index: WordIndex
    word_labels: np.ndarray
    reps: np.ndarray
    checked: ClassLabels
    basis: tuple
    corners: np.ndarray

    def coefficients(self, p: NCPoly) -> np.ndarray:
        """p's total coefficient on each class, by label.

        p's coefficients are summed onto the labels of its word positions
        (:meth:`~nctrace.algebra.NCPoly.term_arrays`) in the order of p's
        terms, and totals not above ``COEFF_PRUNE`` in magnitude
        (:func:`~nctrace.algebra.unpruned`) are dropped (:func:`_sums`), so the
        totals are those of :meth:`NCPoly.cyclic_reduce`, to the bit.
        p's words must have length at most 2d.
        """
        positions, coeffs = p.term_arrays()
        return _sums(self.word_labels[positions], coeffs, len(self.reps))

    @cached_property
    def anchor(self) -> np.ndarray:
        return _tracial_anchor(self.index.n, self.index.D // 2)


@lru_cache(maxsize=8)
def cyclic_classes(nvars: int, d: int) -> CyclicClasses:
    """The classes of the Gram and witness problems at half-degree d.

    Each word's least rotation is the least position among its rotations
    (:meth:`~nctrace.moments.WordIndex.least_rotations`); ranking the least
    positions gives the labels.  Classes come out in (length, word) order
    of their least words.

    The classes of the last 8 cells (nvars, d) a process asked for are
    kept in an ``lru_cache``, so every array of the result, its index's
    and its checked labels' included, is read-only, and so is its anchor
    once read.  At the size limit (:func:`check_gram_size`) the classes of
    a cell hold 1.1 MiB at (2, 7), 2.5 MiB at (3, 5), 3.1 MiB at (1, 511),
    5.6 MiB at (21, 2) and 10.7 MiB at (590, 1), whose 174,936 classes are
    the most; an anchor, m^2 complex entries over the m basis words, adds
    1.0, 2.0, 4.0, 3.3 and 5.3 MiB there (``tracemalloc``, as
    ``tests/cache_sizes.py`` measures them).
    """
    index = WordIndex(nvars, 2 * d)
    positions = np.arange(len(index))
    least = index.least_rotations()
    is_rep = least == positions
    word_labels = (np.cumsum(is_rep) - 1)[least]
    reps = np.flatnonzero(is_rep)
    basis = positions[: index.offsets[d + 1]]
    labels = word_labels[index.concat(index.reversed(basis)[:, None], basis)]
    # Y_i^L sits at offset(L) + (i - 1)(1 + n + ... + n^(L-1)) = i offset(L).
    corners = word_labels[np.arange(nvars + 1) * index.offsets[2 * d]]
    for array in (index.offsets, index.lengths, word_labels, reps, labels, corners):
        array.flags.writeable = False
    checked = ClassLabels.of(labels, len(reps))
    words = tuple(words_up_to(nvars, d))
    return CyclicClasses(index, word_labels, reps, checked, words, corners)


@dataclass
class GramProblem:
    """Linear side of the square-decomposition search at half-degree d.

    For each cyclic class of words of length <= 2d, the entries of the Gram
    matrix lying over that class must sum to the polynomial's total
    coefficient on the class.  Solutions G that are also PSD factor into
    square terms reproducing the polynomial up to cyclic equivalence.
    ``rhs`` is the array of those totals by class label
    (:meth:`CyclicClasses.coefficients`), before the constraint set pairs
    transposed classes; with ``classes = cyclic_classes(nvars, d)``, class
    c's least word is ``classes.index.word(classes.reps[c])``.
    """

    degree: int
    basis: list = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    constraints: ClassConstraints = field(repr=False)

    @property
    def n_classes(self) -> int:
        return len(self.rhs)


def build_gram_problem(p: NCPoly, d: int, scale: float = 1.0) -> GramProblem:
    """The Gram problem of p / scale at half-degree d.

    ``scale`` is a power of 2, so p's class totals divided by it, part by
    part, are exact; :func:`certify_sos` passes :func:`_scale` of p.
    """
    _require_symmetric(p)
    _check_degree(p, d)
    classes = cyclic_classes(p.nvars, d)
    rhs = classes.coefficients(p)
    if scale != 1.0:
        rhs = (rhs.view(float) / scale).view(complex)
    constraints = ClassConstraints(classes.checked, rhs=rhs)
    return GramProblem(degree=d, basis=list(classes.basis), rhs=rhs, constraints=constraints)


def _scale(norm: float) -> float:
    """2^round(log2 max(1, norm)) for a polynomial's l1 norm, the power of 2
    nearest to it (at most 2^1023); 1 for a norm that is not finite."""
    return 2.0 ** round(min(math.log2(norm), 1023)) if 1.0 < norm < math.inf else 1.0


def _letters(index: WordIndex, positions: np.ndarray):
    """(rows, letters, counts): each distinct letter (0-based) of each word
    at ``positions`` and how often it occurs there, sorted by row then
    letter.  The letters are the digits of each word's in-level index, the
    word as a base-n numeral whose digit s is its (s+1)-th letter from the
    end."""
    n, lengths = index.n, index.lengths[positions]
    slots = np.arange(int(lengths.max(initial=0)))
    digits = (positions - index.offsets[lengths])[:, None] // n**slots % n
    keys = (np.arange(len(positions))[:, None] * n + digits)[slots < lengths[:, None]]
    keys, counts = np.unique(keys, return_counts=True)
    return keys // n, keys % n, counts


def _difference_maxima(rows, letters, counts, classes: int, n: int) -> np.ndarray:
    """H[i, j] = max over the classes c of count_i(c) - count_j(c), for the
    letters 0..n-1 and a letter n that no class holds, so that H[i, n] and
    -H[n, i] are the largest and least count of letter i.

    Read off the classes' (row, letter, count) triples (:func:`_letters`),
    with no classes-by-letters array.  A class that holds both letters
    gives its difference; one that holds i a times and not j gives a, found
    by comparing how many classes hold i a times with how many of those
    also hold j; one that holds j b times and not i gives -b, the same way
    round; one that holds neither gives 0.  The largest array is that count
    table, (n + 1)^2 times the largest count, within twice the size limit.
    """
    N, top = n + 1, int(counts.max(initial=1))
    first, second = [np.arange(0)], [np.arange(0)]
    for o in range(1, int(np.bincount(rows).max(initial=1))):  # triples o apart in one class
        k = np.flatnonzero(rows[o:] == rows[:-o])
        first.append(k)
        second.append(k + o)
    u, v = np.concatenate(first + second), np.concatenate(second + first)
    i, j, a = letters[u], letters[v], counts[u]
    highest = np.full((N, N), -np.inf)
    np.maximum.at(highest, (i, j), a - counts[v])
    # single[i, a - 1]: classes holding i a times; joint[i, a - 1, j]: those holding j too.
    single = np.bincount(letters * top + counts - 1, minlength=N * top).reshape(N, top)
    joint = np.bincount((i * top + a - 1) * N + j, minlength=N * top * N).reshape(N, top, N)
    alone = single[:, :, None] > joint
    values = np.arange(1.0, top + 1)[:, None]
    np.maximum(highest, np.where(alone, values, -np.inf).max(axis=1), out=highest)
    np.maximum(highest, -np.where(alone, values, np.inf).min(axis=1).T, out=highest)
    holding = single.sum(axis=1)
    neither = classes - holding[:, None] - holding + joint.sum(axis=1) > 0
    highest[neither] = np.maximum(highest[neither], 0.0)
    np.fill_diagonal(highest, 0.0)
    return highest


def _newton_kept(classes: CyclicClasses, rhs: np.ndarray) -> np.ndarray:
    """The basis words (their positions) that a cyclic square decomposition
    of a polynomial with class sums ``rhs`` can use.

    For each linear functional l on letter counts among +-(length), +-e_i
    and +-(e_i - e_j), a word w is kept only if 2 l(w) <= max l(c) over the
    classes c with a nonzero sum: the tracial Newton polytope (Klep and
    Schweighofer, J. Stat. Phys. 2008; Burgdorf, Cafuta, Klep and Povh,
    Comput. Optim. Appl. 2013), cut by these functionals alone, with no LP.
    Every word of every decomposition is kept.  If t is the largest l over
    the factors' words, the factors' parts h_s of l-value t give sum h_s*
    h_s cyclically equivalent to p's part of l-value 2t, as l adds up
    under concatenation and is kept by reversal and rotation.  Were 2t
    above every such max, that part would be 0, so tr sum h_s* h_s = 0 on
    matrices of every size and every h_s = 0.

    The e_i are the differences with a letter that no word holds
    (:func:`_difference_maxima`).  A word meets every difference when
    2 x_i + max_j (-H[i, j] - 2 x_j) <= 0 for each letter i, x being its
    letter counts.  It holds at most d letters, so one of the d + 1 columns
    of least H in row i has x_j = 0, and that column's term is at least
    that of every column past them: the max runs over those d + 1 alone.
    """
    index, m = classes.index, len(classes.basis)
    reps = classes.reps[np.flatnonzero(rhs)]
    if not len(reps):
        return np.arange(0)
    degrees, lengths = index.lengths[reps], 2 * index.lengths[:m]
    words = np.flatnonzero((lengths <= degrees.max()) & (lengths >= degrees.min()))
    highest = _difference_maxima(*_letters(index, reps), len(reps), index.n)
    rows, letters, counts = _letters(index, words)
    twice = np.zeros((len(words), index.n + 1))
    twice[rows, letters] = 2 * counts
    nearest = np.argsort(highest, axis=1)[:, : int(index.lengths[m - 1]) + 1]
    reach = (-np.take_along_axis(highest, nearest, axis=1) - twice[:, nearest]).max(axis=2)
    return words[(twice + reach).max(axis=1) <= 0]


def _cut_problem(classes: CyclicClasses, rhs: np.ndarray):
    """(kept, constraints): the Gram problem with class sums ``rhs`` on the
    basis words that :func:`_newton_kept` keeps, or None when it keeps
    every word or its set is visibly empty.

    It keeps every word exactly when the empty word's class and each
    Y_i^(2d)'s have nonzero sums (``classes.corners``): the polytope then
    holds 0 and each 2d e_i, and so every word's 2 exp(w).  The kept block's
    classes are relabelled in label order and checked once.  The set is
    visibly empty when no word is kept, when a class with a nonzero sum has
    no entry in the block, or when a class whose entries in the block all
    lie on its diagonal has a sum with negative real part: the diagonal of
    a PSD matrix is nonnegative.
    """
    if rhs[classes.corners].all():
        return None
    kept = _newton_kept(classes, rhs)
    labels = classes.checked.labels[np.ix_(kept, kept)]
    present, block = np.unique(labels, return_inverse=True)
    block = block.reshape(labels.shape)
    sums = rhs[present]
    counts = np.bincount(block.ravel(), minlength=len(present))
    diagonal = np.bincount(np.diagonal(block), minlength=len(present)) == counts
    if (
        not len(kept)
        or np.count_nonzero(sums) < np.count_nonzero(rhs)
        or (sums.real[diagonal] < 0).any()
    ):
        return None
    return kept, ClassConstraints(ClassLabels.of(block, len(present)), rhs=sums)


@dataclass
class Certificate:
    """Square factors presenting p as cyclically equivalent to sum(b*.b)."""

    degree: int
    factors: list = field(repr=False)
    residual_l1: float = 0.0


def _square_sum(columns, B: np.ndarray, nvars: int, size: int) -> tuple:
    """The sum of b* b over the factors b, the rows of B over the words
    ``columns`` (:func:`coefficient_matrix`): the position of the word of
    each nonzero entry of ``B^H B`` in row-major order, and the entries
    summed onto their positions in that order, over the positions below
    ``size``, with totals not above ``COEFF_PRUNE`` zeroed.

    The columns are taken in the order of their words' first use: by the
    first factor with a nonzero coefficient on the word, then by column.
    sum_b conj(b_J) b_K is entry (J, K), on the word reverse(J) + K, whose
    position is ``pos(reverse(J)) n^|K| + pos(K)``
    (:func:`~nctrace.algebra.word_positions`).
    """
    if len(B):  # a word no factor uses has no nonzero entry, wherever it goes
        order = np.argsort(np.argmax(B != 0, axis=0), kind="stable")
        columns, B = [columns[k] for k in order.tolist()], B[:, order]
    lengths = np.fromiter(map(len, columns), dtype=np.int64, count=len(columns))
    positions = word_positions([*(J[::-1] for J in columns), *columns], nvars)
    ahead, behind = np.array(positions, dtype=np.int64).reshape(2, -1)
    gram = (B.conj().T @ B).ravel()
    nonzero = np.flatnonzero(gram)
    words = (ahead[:, None] * nvars**lengths + behind).ravel()[nonzero]
    return words, _sums(words, gram[nonzero], size)


def _sums(positions: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The complex values summed onto their positions, all below ``size``,
    in array order from 0, by one ``bincount`` per part; a total not above
    ``COEFF_PRUNE`` in magnitude (:func:`~nctrace.algebra.unpruned`) is
    zeroed, as polynomial arithmetic drops it."""
    sums = np.empty(size, dtype=complex)
    sums.real = np.bincount(positions, values.real, size)
    sums.imag = np.bincount(positions, values.imag, size)
    sums[~unpruned(sums)] = 0
    return sums


@lru_cache(maxsize=8)
def _rotation_table(nvars: int, D: int) -> np.ndarray:
    """The position of each word's least rotation, for the words of length
    <= D in ``words_up_to`` order, by numeral arithmetic alone.

    The word of length L at position ``start + k``, k < n^L, rotated left
    by s letters is at ``start + (k mod n^(L-s)) n^s + k // n^(L-s)``, and
    its least rotation is the least of those; with one letter every word
    is its own rotation.  The tables of the last 8
    :func:`~nctrace.moments.cacheable` (nvars, D) a process asked for are
    kept, read-only; any other is built for the call.  A cached table
    holds ``word_count(nvars, D)`` int64 entries, at most 0.5 MiB by the
    size rule.
    """
    table = np.arange(word_count(nvars, D))
    for L in range(2, D + 1) if nvars > 1 else ():
        start, k = (nvars**L - 1) // (nvars - 1), np.arange(nvars**L)
        level = table[start : start + nvars**L]
        for s in range(1, L):  # high digits k // n^(L-s) move to the low end
            high = nvars ** (L - s)
            np.minimum(level, k % high * nvars**s + k // high + start, out=level)
    table.flags.writeable = False
    return table


@dataclass
class InfeasibilityReport:
    """Negative outcome of the square-decomposition search at level d."""

    degree: int
    gap: float
    iterations: int
    status: str = "infeasible-at-tolerance"
    separator: np.ndarray | None = field(default=None, repr=False)


def extract_factors(G: np.ndarray, basis, nvars: int) -> Factors:
    """Spectral square factors of a Gram matrix over a word basis.

    Eigenvalues at or below ``RANK_CUTOFF`` times the largest are numerical
    dust and are dropped rather than turned into spurious factors.  Factor
    s is ``sqrt(lambda_s) conj(v_s)`` over the basis, largest eigenvalue
    first, without the entries where ``|v_s| <= 1e-14`` or the product is
    at most ``COEFF_PRUNE`` in magnitude.  The factors come as
    :class:`~nctrace.algebra.Factors`, whose matrix holds them all over the
    basis: it is what the residual re-check and the writer read, and no
    factor's terms are built until a caller asks for that factor.
    """
    G = (G + G.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(G)
    top = float(eigvals[-1]) if len(eigvals) else 0.0
    descending = eigvals[::-1]
    dust = np.flatnonzero(descending <= RANK_CUTOFF * top)
    rank = 0 if top <= 0 else int(dust[0]) if len(dust) else len(descending)
    V = eigvecs[:, ::-1][:, :rank].T
    # weight * conj(v) part by part, as Python multiplies a float and a
    # complex but for the sign of a zero part, which adding 0.0 clears.
    weights = np.sqrt(descending[:rank])[:, None]
    B = np.empty(V.shape, dtype=complex)
    B.real, B.imag = weights * V.real, weights * -V.imag
    # |v| is hypot, as Python's abs() takes it; B is pruned by the one rule.
    dropped = ~((np.hypot(V.real, V.imag) > 1e-14) & unpruned(B))
    B[dropped] = 0
    B += 0.0
    return Factors(nvars, tuple(basis), B)


def certify_sos(
    p: NCPoly,
    d: int | None = None,
    tol: float = 1e-9,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Search for a square decomposition of p up to cyclic equivalence.

    Returns a :class:`Certificate` on success and an
    :class:`InfeasibilityReport` with the solver's separating matrix (its
    anchor is the cell's ``anchor``) when the Gram problem is infeasible
    at tolerance; raises :class:`SolverStalled` when the solve is undecided
    at its iteration cap.  The certificate's residual is recomputed from the
    extracted factors by plain polynomial arithmetic; one above
    ``RESIDUAL_TOL * max(1, ||p||_1)`` raises :class:`NoFeasiblePoint`.

    The solves are those of p / s, s = 2^round(log2 max(1, ||p||_1))
    (:func:`_scale`), so ``tol`` bounds residuals relative to s; their
    Gram matrix, gap and separator are multiplied back by s, which is exact.
    The problem is built once.  Unless its Newton cut keeps every basis
    word or is visibly empty (:func:`_cut_problem`), p is first solved on
    the kept words with the cell's anchor restricted to them; a certificate
    from that solve that passes the residual gate is returned, over the
    kept words.  Anything else (infeasible, stalled, or over the gate) is
    decided by the solve on the whole basis, so a negative answer always
    carries a separator over the whole basis.  ``max_iter`` caps each of
    the two solves, so an input that stalls on both costs up to twice it;
    a stall report and an infeasibility report count the iterations of
    both.
    """
    if d is None:
        d = (p.degree() + 1) // 2
    norm = p.r_norm(1.0)
    scale = _scale(norm)
    limit = RESIDUAL_TOL * max(1.0, norm)
    problem = build_gram_problem(p, d, scale)
    classes = cyclic_classes(p.nvars, d)
    cut, spent = _cut_problem(classes, problem.rhs), 0
    if cut is not None:
        kept, constraints = cut
        restricted = np.ix_(kept, kept)
        report = feasibility_solve(constraints, tol, max_iter, lambda: classes.anchor[restricted])
        if report.status == "feasible":
            words = [problem.basis[k] for k in kept.tolist()]
            cert = _certificate(p, d, scale * report.solution, words)
            if cert.residual_l1 <= limit:
                return cert
        spent = report.iterations
    report = feasibility_solve(problem.constraints, tol, max_iter, lambda: classes.anchor)
    iterations = spent + report.iterations
    if report.status == "max-iterations":
        raise SolverStalled(
            replace(report, iterations=iterations, solution=scale * report.solution,
                    gap=scale * report.gap, dual=scale * report.dual)
        )
    if report.status != "feasible":
        gap, separator = scale * report.gap, scale * report.separator
        return InfeasibilityReport(d, gap, iterations, separator=separator)
    cert = _certificate(p, d, scale * report.solution, problem.basis)
    if not (cert.residual_l1 <= limit):
        raise NoFeasiblePoint(f"certificate residual {cert.residual_l1:.3e} exceeds {limit:.3e}")
    return cert


def _certificate(p: NCPoly, d: int, G: np.ndarray, basis) -> Certificate:
    """The certificate of Gram matrix G over the basis words, with its
    residual recomputed (:func:`verify_certificate`)."""
    cert = Certificate(d, extract_factors(G, basis, p.nvars))
    cert.residual_l1 = verify_certificate(p, cert)
    return cert


def verify_certificate(p: NCPoly, cert: Certificate) -> float:
    """Recompute the certificate residual from scratch.

    The residual is ``(p - sum_b b* b).cyclic_reduce().r_norm(1.0)``, to
    the bit, by array passes over word positions in the orders that
    polynomial arithmetic sums in: the square sum of the factors
    (:func:`_square_sum`) is subtracted from p's coefficients over p's
    words in term order, then from 0 over the sum's other words in the
    order first met; the differences above ``COEFF_PRUNE`` are summed onto
    their words' least rotations (:func:`_rotation_table`) in that order,
    and the magnitudes of the totals above ``COEFF_PRUNE`` are summed by
    Python's ``sum`` in the order the rotations are first met.  It reads
    p's positions and coefficients and the factors' words and
    coefficients, never a class label, a
    :class:`~nctrace.moments.WordIndex` or any solver state, so it
    independently audits what :func:`certify_sos` produced;
    ``cert.factors`` may be a plain list of polynomials, in p's variables.
    Factors in another number of variables, and words that need a
    half-degree d past the size limit (:func:`check_gram_size`), raise
    ValueError; the rotation table is that of the words up to 2d.
    """
    n = p.nvars
    # Factors carry their polynomials' variable count themselves.
    for b in [cert.factors] if isinstance(cert.factors, Factors) else cert.factors:
        p._check_compatible(b)
    columns, B = coefficient_matrix(cert.factors)
    d = max(-(-p.degree() // 2), max(map(len, columns), default=0))
    check_gram_size(n, d)
    table = (_rotation_table if cacheable(n, 2 * d) else _rotation_table.__wrapped__)(n, 2 * d)
    words, square = _square_sum(columns, B, n, len(table))
    ours, coeffs = p.term_arrays()
    # p's words in term order, then the sum's other words as first met.
    merged = np.array([*dict.fromkeys([*ours.tolist(), *words.tolist()])], dtype=np.int64)
    differences = np.concatenate([coeffs, np.zeros(len(merged) - len(coeffs))]) - square[merged]
    kept = unpruned(differences)
    least = table[merged[kept]]
    totals = _sums(least, differences[kept], len(table))[list(dict.fromkeys(least.tolist()))]
    # A zeroed total adds 0.0, which leaves Python's running sum as it is.
    return float(sum(np.hypot(totals.real, totals.imag).tolist()))


@dataclass
class DualWitness:
    """Admissible pseudo-moments pairing negatively with the polynomial."""

    theta: MomentSequence
    value: float
    radius: float

    @property
    def degree(self) -> int:
        return self.theta.max_degree


def witness_search(
    p: NCPoly,
    d: int | None = None,
    R: float = 1.0,
    tol: float = 1e-9,
    max_iter: int = 20_000,
):
    """Minimize the pairing of p against structured pseudo-moments.

    The free variable is a Hermitian matrix over the half-degree word
    basis, constrained to be PSD, normalized at the empty word, constant on
    each cyclic class, and entrywise bounded by ``R**word_length``;
    :func:`minimize_linear` solves for it, on real symmetric matrices when
    every objective entry is real, as on every class closed under reversal
    and every real-coefficient p.  A solution the iteration cap
    left below ``-tol`` in eigenvalue is moved onto the cone (see
    :func:`_mix_anchor`).  Returns the extracted sequence together with the
    achieved pairing value, whatever its sign.
    """
    _require_symmetric(p)
    if not (R >= 1):
        raise ValueError(f"witness box radius must be at least 1, got {R}")
    if not (0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if d is None:
        d = (p.degree() + 1) // 2
    _check_degree(p, d)
    check_radius(R, 2 * d)
    classes = cyclic_classes(p.nvars, d)
    labels = classes.checked.labels
    radii = float(R) ** classes.index.lengths[classes.reps].astype(float)
    # The empty word is the least word of its class, and the first of all.
    constraints = ClassConstraints(classes.checked, pinned=0, radii=radii)

    shares = classes.coefficients(p)
    weights = (shares / constraints.counts)[labels]
    objective = (np.conj(weights) + weights.T) / 2
    if not objective.imag.any():
        objective = objective.real

    solution = minimize_linear(objective, constraints, tol=tol, max_iter=max_iter).solution
    low = float(np.linalg.eigvalsh(solution)[0])
    if low < -tol:
        solution = _mix_anchor(solution, low, constraints, classes, R, tol)
    theta = _extract_moments(solution, constraints, classes)
    value = pair(p, theta)
    # The pairing sums terms up to |c_w| R^|w| in size, so its rounding error
    # scales with p's R-norm.
    if abs(value.imag) > 1e-8 * max(1.0, p.r_norm(R)):
        raise NoFeasiblePoint(f"pairing unexpectedly complex: {value}")
    return theta, value.real


def _mix_anchor(x, low, constraints, classes: CyclicClasses, R: float, tol: float) -> np.ndarray:
    """Move x, feasible but for eigenvalue ``low < 0``, just onto the PSD cone.

    The anchor A is the class-projected moment matrix of the cell's
    ``anchor`` tuple (:func:`_tracial_anchor`) scaled to norm R, so it
    satisfies every constraint.  With delta = lambda_min(A) > 0 the mix
    (1-t)x + tA, t = -low / (delta - low), stays feasible and has smallest
    eigenvalue at least zero, by concavity of lambda_min.  At a large R the
    scaled anchor's delta is below ``eigvalsh``'s resolution, about
    1e-16 R^(2d); A is then the unscaled anchor, of norm 1, which is
    feasible for every R >= 1.  So is it when the scaled anchor's mix has
    a plain least eigenvalue below ``-10 tol``, the bound that
    :func:`validate_witness` reads, as a delta that is positive only by
    rounding can give.  Raises :class:`NoFeasiblePoint` if the unscaled
    anchor's delta is not positive either.  A real x is mixed with the anchor's real part, which is
    still PSD, class-constant, pinned and inside the box.

    ``low`` is itself only known to ``eigvalsh``'s resolution on x, so
    where x is large the mix can come out indefinite.  t is then moved
    halfway to 1 until the mix's least eigenvalue is resolved
    (:func:`_resolved`); at t = 1 the mix is A.  The mix is tested divided
    entrywise by the anchor's scaling R^(|J| + |K|).  That is a congruence,
    which keeps the mix's inertia, and it takes the scaled anchor's mix,
    whose entries grow as R^(|J| + |K|) within the box, to entries of about
    1, where its resolution is fine.
    """
    # Scaling the tuple by R scales entry (J, K) by R^(|J| + |K|); no trace
    # of a tuple of norm R is taken, so none overflows.  The anchor is
    # exactly Hermitian and the weight is symmetric in J and K, so the
    # scaled anchor stays exactly Hermitian.
    scale = float(R) ** classes.index.lengths[: len(classes.basis)]
    anchor = classes.anchor if np.iscomplexobj(x) else classes.anchor.real
    weights = (np.multiply.outer(scale, scale), 1.0)
    for weight in weights:
        A = project_affine(anchor * weight, constraints)
        delta = float(np.linalg.eigvalsh(A)[0])
        if delta > 0:
            t = -low / (delta - low)
            mixed = (1 - t) * x + t * A
            while t < 1 and not _resolved(np.linalg.eigvalsh(mixed / weight)):
                t = (1 + t) / 2
                mixed = (1 - t) * x + t * A
            if weight is weights[-1] or np.linalg.eigvalsh(mixed)[0] >= -10 * tol:
                return mixed
    raise NoFeasiblePoint(
        f"solver stopped at eigenvalue {low:.3e} and the anchor is not "
        f"positive definite (eigenvalue {delta:.3e})"
    )


def _resolved(eigs: np.ndarray) -> bool:
    """Whether the least of an m x m Hermitian matrix M's eigenvalues, in
    ``eigvalsh``'s ascending order, is positive beyond their rounding,
    about m eps ||M||_2."""
    return bool(eigs[0] > len(eigs) * np.finfo(float).eps * max(-eigs[0], eigs[-1]))


def _tracial_anchor(nvars: int, d: int) -> np.ndarray:
    """Read-only half-degree d moment matrix of a fixed tuple of norm at most 1.

    Its entries are normalized traces, one value per class
    (:func:`~nctrace.moments.moment_sequence`): exactly constant on cyclic
    classes, exactly conjugate on reversed ones, 1 at the empty word,
    bounded by 1 in magnitude.  For n >= 2 letters the tuple is random:
    N x N matrices with N^2 >= 4m for m basis words make it positive
    definite for a generic tuple.  The sequence is built unchecked: the
    moment size limit counts N^2 entries for each word up to 2d, but only
    the products of the m words up to d are made, m N^2 complex entries, at
    most about 1.4 million (at (590, 1)).  One letter's words span at most
    N dimensions, so for n = 1 the matrix is diagonal with the m Chebyshev
    nodes cos((2k + 1) pi / 2m), which are distinct: its moment matrix is
    the Hankel matrix of their power means, positive definite, and takes
    m (2d + 1) powers.
    """
    m = word_count(nvars, d)
    if nvars == 1:
        nodes = np.cos((2 * np.arange(m) + 1) * np.pi / (2 * m))
        means = (nodes[:, None] ** np.arange(2 * d + 1)).mean(axis=0)
        moments = means[np.add.outer(np.arange(m), np.arange(m))].astype(complex)
    else:
        size = max(4, int(np.ceil(2 * np.sqrt(m))))
        X = random_tuple(make_rng(0), nvars, size)
        moments = moment_matrix(unchecked_moment_sequence(X, 2 * d), d)
    moments.flags.writeable = False
    return moments


def dual_witness(
    p: NCPoly,
    d: int | None = None,
    R: float = 1.0,
    tol: float = 1e-9,
    max_iter: int = 20_000,
):
    """Run :func:`witness_search`; keep the result only if decisively negative.

    Returns a :class:`DualWitness` when the minimized pairing falls below
    ``-tol``, None otherwise.  A returned witness satisfies the structural
    invariants (see :func:`validate_witness`) at ten times the tolerance;
    one that does not raises :class:`NoFeasiblePoint`.
    """
    theta, value = witness_search(p, d=d, R=R, tol=tol, max_iter=max_iter)
    if value < -tol:
        return checked_witness(theta, value, R, tol)
    return None


def checked_witness(theta: MomentSequence, value: float, R: float, tol: float = 1e-9):
    """The :class:`DualWitness` of theta, once :func:`validate_witness` passes.

    Raises :class:`NoFeasiblePoint` when any structural check fails.
    """
    witness = DualWitness(theta=theta, value=value, radius=float(R))
    check = validate_witness(witness, tol=tol)
    if not check.passed:
        raise NoFeasiblePoint(f"witness failed validation: {check}")
    return witness


def _extract_moments(
    M: np.ndarray, constraints: ClassConstraints, classes: CyclicClasses
) -> MomentSequence:
    """The sequence of class means of M, normalized at the empty word.

    Each word of length <= 2d takes its class's mean over the entries of
    M, divided by the empty word's mean and clamped to its class's radius
    (:meth:`ClassConstraints.clamp`).  M is the solver's solution or its
    mix with the anchor, both exactly Hermitian (real symmetric after a
    real solve), so transposed classes take conjugate means.
    """
    means = constraints.class_means(M)
    # Real and imaginary parts are divided apart, as Python divides a complex
    # by a float; numpy's complex division multiplies by a reciprocal.
    values = (means.view(float) / means[0].real).view(means.dtype)
    theta = constraints.clamp(values)[classes.word_labels]
    return MomentSequence.from_array(classes.index.n, classes.index.D, theta)


@dataclass
class WitnessValidation:
    """Independent re-check of every structural witness property."""

    membership_passed: bool
    psd_passed: bool
    min_eigenvalue: float
    box_passed: bool
    max_box_excess: float
    normalized: bool

    @property
    def passed(self) -> bool:
        return (
            self.membership_passed
            and self.psd_passed
            and self.box_passed
            and self.normalized
        )


def validate_witness(witness: DualWitness, tol: float = 1e-9) -> WitnessValidation:
    theta = witness.theta
    report = check_w_membership(theta, tol=10 * tol)
    d = theta.max_degree // 2
    ok, min_eig = psd_check(moment_matrix(theta, d), tol=10 * tol)
    values = theta.as_array()
    bounds = float(witness.radius) ** theta.index.lengths
    excess = max(0.0, float(np.max(np.abs(values) - bounds)))
    return WitnessValidation(
        membership_passed=report.passed,
        psd_passed=ok,
        min_eigenvalue=min_eig,
        box_passed=excess <= 10 * tol,
        max_box_excess=excess,
        normalized=abs(theta[()] - 1.0) <= 10 * tol,
    )


@dataclass
class Falsification:
    """A matrix tuple on which the polynomial has negative normalized trace."""

    tuple: object
    trace: float
    source: str  # "library" | "random"
    index: int


def falsify(
    p: NCPoly,
    trials: int = 1000,
    N: int = 4,
    R: float = 1.0,
    seed: int = 0,
):
    """Search for a matrix tuple with negative normalized trace.

    A fixed structured library (zero, identities, diagonal sign patterns,
    the Pauli x/z pair padded with identities) is probed first, then
    ``trials`` seeded Gaussian Hermitian tuples rescaled to norm R.  The
    first tuple driving the trace below -1e-10 is returned with its trace;
    the outcome is a deterministic function of the seed.  The library of
    each (n, N) that ``cacheable(n, 2, N)`` admits is built once per
    process and kept, read-only (``sampling._library``), so a library hit
    returns a tuple whose arrays are read-only.

    The random tuples are drawn ``FALSIFY_CHUNK`` trials at a time, from
    the stream of :func:`~nctrace.sampling.random_hermitians`, which
    reproduces drawing them one by one from ``make_rng(seed)``.  Each
    chunk's raw draws are made once and screened rescaled by their largest
    absolute eigenvalue (``eigvalsh``), by their batched traces, which pair
    the two halves of each word (:func:`_real_traces`), planned once for
    the call (:func:`_trace_plan`).  The draws are
    exactly Hermitian, so they are screened as they are, without taking
    their Hermitian parts.  A trial below
    ``-FALSIFY_TRACE_TOL + FALSIFY_SCREEN * ||p||_R`` is rebuilt from its
    raw draws as ``random_hermitians`` builds it, rescaled by the SVD norm,
    evaluated again on its own, and returned only if that trace is below
    -1e-10.  The two norms agree to about 1e-15 relative and the two traces
    differ by rounding only, far inside the screen's slack, so the returned
    index, tuple and trace are those of the trial-by-trial search.

    A seed that is not a nonnegative integer, or a trial count or size N
    that is not an integer, is refused before any probe; bools are not
    integers here.
    A size N whose chunk of products would be too large is refused before
    anything is allocated: a chunk holds the products of up to
    ``moment_size(n, ceil(deg p / 2), N)`` entries per trial, and
    ``FALSIFY_CHUNK`` times that may not exceed ``MAX_MOMENT_SIZE``.  A
    radius at which the traces could overflow is refused before any
    draw: R^deg(p) must be finite, and so must N times the larger of it
    and ``||p||_R``, which bound every partial sum of an unnormalized
    trace on a tuple of norm R.  So is R above ``HALF_MAX``, where an
    entry of a rebuilt trial could be too large for
    :func:`~nctrace.moments.as_matrix_tuple`.
    """
    _require_symmetric(p)
    check_integer(trials, "trials")
    check_integer(N, "matrix size N")
    if not (trials >= 0):
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if not (N >= 1):
        raise ValueError(f"matrix size N must be at least 1, got {N}")
    half = -(-p.degree() // 2)
    if FALSIFY_CHUNK * moment_size(p.nvars, half, N) > MAX_MOMENT_SIZE:
        raise ValueError(
            f"matrix size N = {N} too large: {FALSIFY_CHUNK} tuples of products "
            f"up to degree {half} in {p.nvars} variables exceed the size limit "
            f"{MAX_MOMENT_SIZE} (word count times N^2 + degree, per tuple)"
        )
    check_radius(R, p.degree())
    if not (R <= HALF_MAX):
        raise ValueError(
            f"radius R = {R} is too large: matrices of norm R may have entries "
            "above half the largest float"
        )
    norm = p.r_norm(R)
    if not (N * max(norm, float(R) ** p.degree()) < np.inf):
        raise ValueError(
            f"radius R = {R} is too large: the traces of {N} x {N} matrices "
            "of that norm overflow"
        )
    library = _library if cacheable(p.nvars, 2, N) else _library.__wrapped__
    for index, candidate in enumerate(library(p.nvars, N)):
        value = _real_trace(p, candidate)
        if value < -FALSIFY_TRACE_TOL:
            return Falsification(
                tuple=candidate, trace=value, source="library", index=index
            )
    screen = -FALSIFY_TRACE_TOL + FALSIFY_SCREEN * norm
    plan = _trace_plan(p)
    rng = make_rng(seed)
    for start in range(0, trials, FALSIFY_CHUNK):
        drawn = _draw_hermitians(rng, (min(FALSIFY_CHUNK, trials - start), p.nvars), N)
        norms = np.abs(np.linalg.eigvalsh(drawn)).max(axis=-1)
        traces = _real_traces(p, _scale_to_radius(drawn, norms, R), plan)
        for k in np.flatnonzero(traces < screen):
            exact = np.linalg.norm(drawn[k], 2, axis=(-2, -1))
            candidate = as_matrix_tuple(_scale_to_radius(drawn[k], exact, R))
            value = _real_trace(p, candidate)
            if value < -FALSIFY_TRACE_TOL:
                return Falsification(
                    tuple=candidate, trace=value, source="random", index=start + int(k)
                )
    return None


def _trace_plan(p: NCPoly) -> tuple:
    """What :func:`_real_traces` reads of p, whatever the matrices.

    Each word is split in half, w = J + L with |J| = floor(|w|/2).  Every
    prefix of every half, shortest first, is numbered in that order; each
    length's prefixes come with their parents' numbers and last letters.
    The left and right halves are numbered in first-seen order, and p's
    coefficients form a W_J x W_L matrix over them.  Returns (number of
    prefixes, levels as (start, stop, parents, letters), the left halves'
    prefix numbers, the right halves', the raveled coefficient matrix).
    """
    splits = [(w[: len(w) // 2], w[len(w) // 2 :]) for w in p.terms]
    halves = {h for split in splits for h in split}
    prefixes = sorted({()} | {h[:k] for h in halves for k in range(1, len(h) + 1)}, key=len)
    position = {w: i for i, w in enumerate(prefixes)}
    stops = np.cumsum(np.bincount([len(w) for w in prefixes])).tolist()
    levels = [
        (start, stop, [position[w[:-1]] for w in prefixes[start:stop]],
         [w[-1] - 1 for w in prefixes[start:stop]])
        for start, stop in zip(stops[:-1], stops[1:])
    ]
    lefts = {J: a for a, J in enumerate(dict.fromkeys(J for J, _ in splits))}
    rights = {L: b for b, L in enumerate(dict.fromkeys(L for _, L in splits))}
    coeffs = np.zeros((len(lefts), len(rights)), dtype=complex)
    for (J, L), c in zip(splits, p.terms.values()):
        coeffs[lefts[J], rights[L]] = c
    rows, columns = [position[J] for J in lefts], [position[L] for L in rights]
    return len(prefixes), levels, rows, columns, coeffs.ravel()


def _real_traces(p: NCPoly, stack: np.ndarray, plan: tuple | None = None) -> np.ndarray:
    """Real normalized trace of p on each tuple of a ``(K, n, N, N)`` stack.

    ``tr X_w = sum_ab (X_J)_ab (X_L)_ba`` for the halves w = J + L of
    :func:`_trace_plan`, which is made from p unless ``plan`` is given.
    The products of the halves' prefixes are formed one length at a time,
    each from its parent's.  One batched ``(K, W_J, N^2) @ (K, N^2, W_L)``
    product of the left halves' rows with the right halves' transposed
    columns then gives every tr(X_J X_L), and p's coefficients sum them.
    """
    count, levels, rows, columns, coeffs = _trace_plan(p) if plan is None else plan
    K, _, size, _ = stack.shape
    products = np.empty((K, count, size, size), dtype=complex)
    products[:, 0] = np.eye(size)
    for start, stop, parents, letters in levels:
        np.matmul(products[:, parents], stack[:, letters], out=products[:, start:stop])
    lefts = products[:, rows].reshape(K, len(rows), size * size)
    rights = products[:, columns].swapaxes(2, 3)
    rights = rights.reshape(K, len(columns), size * size).swapaxes(1, 2)
    return ((lefts @ rights).reshape(K, -1) @ coeffs).real / size


def _real_trace(p: NCPoly, X) -> float:
    value = normalized_trace(evaluate(p, X))
    return float(value.real)
