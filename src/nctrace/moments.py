"""Truncated moment sequences of Hermitian matrix tuples.

The moment sequence of a tuple X1..Xn assigns to each word the normalized
trace of the corresponding matrix product, ``t_I = Tr(X_{i1}...X_{ip}) / N``.
Such sequences are cyclically invariant, conjugate symmetric under word
reversal, and geometrically bounded; :func:`check_w_membership` tests exactly
those three structural conditions, which a pseudo-moment candidate must also
satisfy to be taken seriously.

The moment matrix of a sequence collects ``t`` over products of basis words,
``M[J, K] = t_{reverse(J) + K}``.  It is Hermitian whenever the sequence is
conjugate symmetric, and positive semidefinite exactly when the sequence is
nonnegative on hermitian squares.

Moment products and the checks on a sequence work on whole arrays, not
word by word.  A :class:`MomentSequence` is one read-only array of values
in ``words_up_to`` order together with its :class:`WordIndex`.  Rotations
and reversals of the words of one length are reshapes of that length's
level, so each check compares a level with transposed views of itself.

:func:`moment_sequence` computes a sequence as a function on dihedral
classes: a word, its rotations and the reversals of those, with the value
conjugated on the reversals.  The traces of the words of each length L
are one matrix product (:func:`half_products`): the rows ``(X_J)_ab`` of
the words J of length floor(L/2) times the rows ``(X_K)_ba`` of the words
K of length ceil(L/2), transposed, which lists ``sum_ab (X_J)_ab (X_K)_ba``
in ``words_up_to`` order.  Each class takes one value, its least word's
entry of its length's product; every word of the class reads that value,
conjugated when the word is a rotation of the least word's reversal and
not of the least word, and a class that is its own reversal is real.  So
rotations agree exactly, reversals are exact conjugates, and a sequence
of a tuple passes :func:`check_w_membership` with violations of exactly
0.0.  A value is not the bits ``np.trace`` gives its own word's product:
it differs from that by rounding only.  The classes of an (n, D) are
planned once and kept when :func:`cacheable`, the one size rule of every
per-(n, D) cache of the package.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .algebra import Word, check_integer, cyclic_canonical, is_integer, word_positions, words_up_to

HERMITIAN_INPUT_TOL = 1e-12
# Size limit of a moment sequence, in the units of ``moment_size``: per word,
# N x N complex entries, plus up to D letters in its tuple and its JSON
# text.  The products of the words up to ceil(D/2), and the traces of the
# words of one length, then each stay below 2**23 complex entries (128 MiB),
# and a single variable (one word per length, but words of length up to D)
# is allowed up to D = 2,895.  The largest benchmark shape (n = 3, N = 8,
# D = 8) needs 708,552.
MAX_MOMENT_SIZE = 2**23
# The per-(n, D) caches, ``_class_plan`` here and the JSON pieces of a
# sequence in ``cli``, keep an entry exactly when ``moment_size(n, D)`` is
# at most this (:func:`cacheable`).  Every benchmark shape is kept: the
# largest, n = 3 and D = 8, has size 88,569.
MAX_CACHED_SIZE = 2**17
HALF_MAX = np.finfo(float).max / 2  # the sum of two floats up to it is finite


@dataclass(frozen=True)
class MatrixTuple:
    """A tuple of same-size complex Hermitian matrices."""

    matrices: tuple
    n: int
    N: int


def as_matrix_tuple(matrices) -> MatrixTuple:
    """Validate Hermitianity and symmetrize I/O rounding away.

    Each matrix must be finite, at least 1 x 1, and equal its conjugate
    transpose entrywise to ``HERMITIAN_INPUT_TOL``; inputs are then replaced
    by their Hermitian parts so later arithmetic sees exactly Hermitian data.
    """
    if isinstance(matrices, MatrixTuple):
        return matrices
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValueError("a matrix tuple needs at least one matrix")
    size = mats[0].shape[0] if mats[0].ndim else 0
    if not size:
        raise ValueError(
            f"matrix 1 has shape {mats[0].shape}: matrices must be at least 1 x 1"
        )
    for j, m in enumerate(mats):
        if m.ndim != 2 or m.shape != (size, size):
            raise ValueError(
                f"matrix {j + 1} has shape {m.shape}, expected ({size}, {size})"
            )
    out = hermitian_parts(np.stack(mats))
    return MatrixTuple(matrices=tuple(out), n=len(out), N=size)


def hermitian_parts(stack: np.ndarray) -> np.ndarray:
    """Hermitian parts of a stack of tuples, shape ``(..., n, N, N)``.

    Raises :func:`as_matrix_tuple`'s errors, naming the matrix by its place
    in its tuple: first for the first matrix in C order with an entry that
    is not finite or has a real or imaginary part above half the largest
    float, where the sum or difference of two entries could overflow; then
    for the first that is not Hermitian to ``HERMITIAN_INPUT_TOL``.
    """
    parts = np.maximum(np.abs(stack.real), np.abs(stack.imag)).max(axis=(-2, -1))
    failed = np.argwhere(~(parts <= HALF_MAX))  # NaN fails too
    if len(failed):
        first = tuple(failed[0])
        if not np.isfinite(parts[first]):
            raise ValueError(f"matrix {first[-1] + 1} has non-finite entries")
        raise ValueError(
            f"matrix {first[-1] + 1} has entries too large: {parts[first]:.3e} is "
            "above half the largest float"
        )
    adjoint = stack.conj().swapaxes(-1, -2)
    defect = np.abs(stack - adjoint).max(axis=(-2, -1))
    failed = np.argwhere(defect > HERMITIAN_INPUT_TOL)
    if len(failed):
        first = tuple(failed[0])
        raise ValueError(
            f"matrix {first[-1] + 1} is not Hermitian: max asymmetry {defect[first]:.3e}"
        )
    return (stack + adjoint) / 2


class WordIndex:
    """Positions of words in ``words_up_to(n, D)`` order, by base-n arithmetic.

    The word ``(i_1, ..., i_L)`` sits at ``offset(L) + k``, with
    ``offset(L) = n^0 + ... + n^(L-1)`` and in-level index
    ``k = sum_j (i_j - 1) n^(L-j)``, so concatenation J + K is at
    ``offset(|J| + |K|) + k_J n^|K| + k_K``.  Rotations and reversals of
    the words of one length are reshapes of that length's level (see
    :meth:`rotated` and :meth:`reversed`).
    """

    def __init__(self, n: int, D: int):
        self.n = n
        self.D = D
        self.offsets = np.cumsum([0] + [n**L for L in range(D + 1)])
        self.lengths = np.repeat(np.arange(D + 1), np.diff(self.offsets))

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def word(self, index: int) -> Word:
        """The word at a position."""
        L = int(self.lengths[index])
        k = int(index - self.offsets[L])
        return tuple(k // self.n ** (L - 1 - j) % self.n + 1 for j in range(L))

    def concat(self, left, right) -> np.ndarray:
        """Position of left + right, for position arrays that broadcast.

        Their lengths must sum to at most D.
        """
        Lj, Lk = self.lengths[left], self.lengths[right]
        return (
            self.offsets[Lj + Lk]
            + (left - self.offsets[Lj]) * self.n**Lk
            + (right - self.offsets[Lk])
        )

    def levels(self, array: np.ndarray) -> list:
        """``(L, entries of the words of length L)`` for each length whose
        words an array in ``words_up_to`` order holds in full."""
        bounds = zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        return [(L, array[a:b]) for L, (a, b) in enumerate(bounds) if b <= len(array)]

    def reversed(self, array: np.ndarray) -> np.ndarray:
        """``array[reverse(w)]`` for each word w an array in ``words_up_to``
        order holds: the reversed-axes transpose of each level's
        ``(n,) * L`` reshape."""
        if self.n == 1:  # each word its own reversal; numpy caps the axis count
            return array.copy()
        views = [v.reshape((self.n,) * L).transpose() for L, v in self.levels(array)]
        return np.concatenate([view.ravel() for view in views])

    def rotated(self, level: np.ndarray, shift: int) -> np.ndarray:
        """``level[w[s:] + w[:s]]`` at s = shift for the n^L words w of one
        length L >= s, given their entries in order: the transpose of the
        level's ``(n^(L-s), n^s)`` reshape."""
        return level.reshape(-1, self.n**shift).T.ravel()

    def least_rotations(self) -> np.ndarray:
        """The position of each word's least rotation, in ``words_up_to``
        order: the least of the word's rotated views (:meth:`rotated`) of
        its level of positions.  With one letter every word is its own
        rotation, and the positions are returned without the D^2 / 2
        rotated views."""
        positions = np.arange(len(self))
        if self.n == 1:
            return positions
        return np.concatenate([
            np.min([self.rotated(level, s) for s in range(max(L, 1))], axis=0)
            for L, level in self.levels(positions)])

    def rotation_gaps(self, level: np.ndarray, length: int) -> np.ndarray:
        """``|level[w] - level[w[s:] + w[:s]]|`` for each of the n^length
        words w of one length and each shift 1 <= s < length, as an
        ``(n^length, length - 1)`` array: row-major order is (word, shift)
        order."""
        gaps = np.zeros((len(level), max(length - 1, 0)))
        if self.n > 1:  # with one letter every rotation of a word is the word itself
            for s in range(1, length):
                np.abs(level - self.rotated(level, s), out=gaps[:, s - 1])
        return gaps


class MomentSequence:
    """Complex values on words, complete up to ``max_degree``.

    The values must be finite and the empty-word value is the normalization
    and must be 1.  They are held as one read-only array in
    ``words_up_to`` order (:meth:`as_array`), together with the sequence's
    :class:`WordIndex`, which reads positions and word lengths off it by
    arithmetic.  ``t[word]`` reads one value; ``values``, a dict from word
    tuples to values, is built on first access.
    """

    __slots__ = ("n", "max_degree", "index", "_array", "_values")

    def __init__(self, n: int, max_degree: int, values: dict):
        check_moment_size(n, max_degree)
        words = words_up_to(n, max_degree)
        missing = [w for w in words if w not in values]
        if missing:
            raise ValueError(
                f"moment sequence incomplete: {len(missing)} words missing up to "
                f"degree {max_degree}, first {missing[0]}"
            )
        self._store(n, max_degree, [values[w] for w in words])

    @classmethod
    def from_array(cls, n: int, max_degree: int, values) -> "MomentSequence":
        """Sequence from its values in ``words_up_to(n, max_degree)`` order."""
        check_moment_size(n, max_degree)
        seq = cls.__new__(cls)
        seq._store(n, max_degree, values)
        return seq

    def _store(self, n: int, max_degree: int, values) -> None:
        index = WordIndex(n, max_degree)
        array = np.array(values, dtype=complex)
        array.flags.writeable = False
        if array.shape != (len(index),):
            raise ValueError(
                f"moment sequence needs {len(index)} values up to degree "
                f"{max_degree}, got {len(values)}"
            )
        finite = np.isfinite(array)
        if not finite.all():
            raise ValueError(
                "moment sequence has a non-finite value at word "
                f"{index.word(int(np.argmin(finite)))}"
            )
        if abs(array[0] - 1.0) > 1e-9:
            raise ValueError(
                f"moment sequence not normalized: empty-word value {array[0]}"
            )
        self.n = n
        self.max_degree = max_degree
        self.index = index
        self._array = array
        self._values = None

    @property
    def values(self) -> dict:
        """The values by word tuple, in ``words_up_to`` order; built on
        first access and shared, so treat it as read-only."""
        if self._values is None:
            words = words_up_to(self.n, self.max_degree)
            self._values = dict(zip(words, self._array.tolist()))
        return self._values

    def __getitem__(self, word) -> complex:
        word = tuple(word)
        if len(word) > self.max_degree or not all(
            is_integer(j) and 1 <= j <= self.n for j in word
        ):
            raise KeyError(word)
        return self._array[word_positions([word], self.n)[0]].item()

    def as_array(self) -> np.ndarray:
        """The values in ``words_up_to`` order, as a read-only array."""
        return self._array

    def restricted(self, degree: int) -> "MomentSequence":
        if degree > self.max_degree:
            raise ValueError(f"cannot extend degree {self.max_degree} to {degree}")
        count = int(self.index.offsets[degree + 1])
        return MomentSequence.from_array(self.n, degree, self._array[:count])

    def __repr__(self) -> str:
        return f"MomentSequence(n={self.n}, max_degree={self.max_degree})"


def word_count(n: int, D: int) -> int:
    """The number of words of length <= D in n letters.

    The power n^(D+1) is capped at n^64, which for n >= 2 already exceeds
    :data:`MAX_MOMENT_SIZE`, so a huge D costs nothing; the count is exact
    up to D = 63.
    """
    return D + 1 if n == 1 else (n ** min(D + 1, 64) - 1) // (n - 1)


def moment_size(n: int, D: int, N: int = 1) -> int:
    """The number of words of length <= D in n letters (:func:`word_count`),
    times N^2 + D, computed from the three integers alone."""
    return word_count(n, D) * (N * N + D)


def cacheable(n: int, D: int, N: int = 1) -> bool:
    """Whether the per-(n, D) caches keep their entry for n letters up to
    degree D, with N x N matrices: exactly when ``moment_size(n, D, N) <=
    MAX_CACHED_SIZE``."""
    return moment_size(n, D, N) <= MAX_CACHED_SIZE


def check_moment_size(n: int, D: int, N: int = 1) -> None:
    """Raise ValueError when n or D is not an integer, D is negative, or
    :func:`moment_size` exceeds MAX_MOMENT_SIZE."""
    check_integer(n, "variable count n")
    check_integer(D, "degree D")
    if D < 0:
        raise ValueError(f"degree must be nonnegative, got {D}")
    if moment_size(n, D, N) > MAX_MOMENT_SIZE:
        raise ValueError(
            f"moment sequence too large: degree {D} in {n} variables with "
            f"{N} x {N} matrices exceeds the size limit {MAX_MOMENT_SIZE} "
            "(word count times N^2 + D)"
        )


def check_radius(R: float, power: int) -> None:
    """Raise ValueError unless R is positive and finite and so is R**power.

    ``power`` is the longest word length at which R bounds a value: a
    radius whose power there overflows is refused before any work.
    """
    if not (0 < R < np.inf):
        raise ValueError(f"radius R must be positive and finite, got {R}")
    if not _finite_power(R, power):
        raise ValueError(f"radius R = {R} is too large: R^{power} is not finite")


def _finite_power(R: float, power: int, factor: float = 1.0) -> bool:
    """Whether ``factor * R**power`` is finite, for a finite R >= 0."""
    try:
        return factor * float(R) ** power < np.inf
    except OverflowError:
        return False


def real_pairs(z) -> np.ndarray:
    """A complex array as a real one with a trailing ``[re, im]`` axis."""
    z = np.asarray(z)
    return np.stack([z.real, z.imag], axis=-1)


def moment_sequence(X, D: int) -> MomentSequence:
    """Normalized traces of all matrix products of length <= D, by class
    (:func:`unchecked_moment_sequence`).

    Sizes past :data:`MAX_MOMENT_SIZE` are refused before anything is
    allocated, and so are tuples with N R^D not finite, R the largest norm:
    since ``|sum_ab (X_J)_ab (X_K)_ba| <= |X_J|_F |X_K|_F <= N R^|w|``, it
    bounds every partial sum of a trace.
    """
    X = as_matrix_tuple(X)
    check_moment_size(X.n, D, X.N)
    R = float(np.abs(np.linalg.eigvalsh(np.stack(X.matrices))).max())
    if not _finite_power(R, D, X.N):
        raise ValueError(
            f"matrices too large for degree {D}: N R^D is not finite for "
            f"N = {X.N} and the largest norm R = {R:.6e}"
        )
    return unchecked_moment_sequence(X, D)


def unchecked_moment_sequence(X: MatrixTuple, D: int) -> MomentSequence:
    """:func:`moment_sequence` without its size and overflow checks, for a
    caller that bounds both itself.

    The products of the words up to ceil(D/2) (:func:`_products`) give the
    traces of each length's words as one :func:`half_products` block,
    divided by N.  Each class takes its least word's entry of its length's
    block (:func:`_class_plan`), and its words read it (see the module
    docstring).
    """
    n, N = X.n, X.N
    plan = _class_plan if cacheable(n, D) else _class_plan.__wrapped__
    picks, real, first = plan(n, D)
    index = WordIndex(n, D)
    stack = _products(np.stack(X.matrices), (D + 1) // 2)
    # Row J of lefts[j] holds (X_J)_ab in column a N + b, and column K of
    # rights[k] holds (X_K)_ba in row a N + b.
    lefts = [level for _, level in index.levels(stack.reshape(len(stack), N * N))]
    flipped = stack.swapaxes(1, 2).reshape(len(stack), N * N)
    rights = [level.T for _, level in index.levels(flipped)]
    bounds = np.searchsorted(first, index.offsets).tolist()
    values = np.empty(len(first), dtype=complex)
    for L, block in enumerate(half_products(lefts, rights, D)):
        at = slice(bounds[L], bounds[L + 1])
        values[at] = block.ravel()[first[at] - index.offsets[L]]
    values /= N
    values.imag[real] = 0.0
    return MomentSequence.from_array(n, D, np.concatenate([values, values.conj()])[picks])


def half_products(lefts: list, rights: list, D: int):
    """``lefts[L // 2] @ rights[L - L // 2]`` for each word length L = 0..D,
    one at a time.

    When ``lefts[j]`` has a row for each word J of length j and
    ``rights[k]`` a column for each word K of length k, both in
    ``words_up_to`` order, entry (J, K) of length L's product is that of
    the word J + K, |J| = floor(L/2), so the product lists the words of
    length L in ``words_up_to`` order.
    """
    for L in range(D + 1):
        yield lefts[L // 2] @ rights[L - L // 2]


def _products(mats: np.ndarray, length: int) -> np.ndarray:
    """The products of the words of lengths 0 .. length, in ``words_up_to``
    order, so a word's row is its :class:`WordIndex` position: the empty
    word's is the identity, and each length's are the previous length's,
    each times every matrix, one batched ``matmul``."""
    n, N, _ = mats.shape
    stack = np.empty((word_count(n, length), N, N), dtype=complex)
    stack[0] = np.eye(N)
    level, start = stack[:1], 1
    while start < len(stack):
        stop = start + n * len(level)
        np.matmul(level[:, None], mats, out=stack[start:stop].reshape(len(level), n, N, N))
        level, start = stack[start:stop], stop
    return stack


@lru_cache(maxsize=8)
def _class_plan(n: int, D: int) -> tuple:
    """The dihedral classes of the words of length <= D in n letters.

    A word's class is its cyclic class together with its reversal's; the
    class's least word is the lesser of the word's least rotation
    (:meth:`WordIndex.least_rotations`) and its reversal's.  Classes are
    numbered in the order of their least words.  Returns ``picks``, for
    each word its class's number, plus the number of classes when the word
    is not a rotation of its class's least word (so it reads the
    conjugate); ``real``, for each class whether it is its own reversal;
    and ``first``, the position of each class's least word, ascending.
    All arrays are read-only.

    The plans of the last 8 (n, D) that are :func:`cacheable` are kept; any
    other is built for its call.
    """
    index = WordIndex(n, D)
    least = index.least_rotations()
    mirror = index.reversed(least)  # the least rotation of each word's reversal
    reps = np.minimum(least, mirror)
    first = np.flatnonzero(reps == np.arange(len(index)))
    picks = np.searchsorted(first, reps) + len(first) * (least != reps)
    real = mirror[first] == first
    for array in (picks, real, first):
        array.flags.writeable = False
    return picks, real, first


@dataclass
class WMembershipReport:
    """Outcome of the structural checks on a moment-like sequence."""

    cyclic_ok: bool
    conjugate_ok: bool
    max_cyclic_violation: float
    max_conjugate_violation: float
    worst_cyclic_word: Word | None
    worst_conjugate_word: Word | None
    growth_radius: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.cyclic_ok and self.conjugate_ok

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def check_membership_tol(tol: float) -> None:
    """Raise ValueError unless the membership tolerance is nonnegative and
    finite: an infinite one would pass every check, and its report could
    not be written as JSON."""
    if not (0 <= tol < np.inf):
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")


def check_w_membership(t: MomentSequence, tol: float = 1e-10) -> WMembershipReport:
    """Check cyclic invariance and conjugate symmetry, report the growth radius.

    Cyclic invariance compares every word against all of its rotations
    (:meth:`WordIndex.rotation_gaps`, one level at a time); conjugate symmetry
    compares each value against the conjugate of the reversed word's value
    (:meth:`WordIndex.reversed`).  The worst word is the first maximum in
    (word, shift) order.  The growth radius is the empirical geometric
    bound read off the diagonal powers (see :func:`growth_radius`).
    """
    check_membership_tol(tol)
    index = t.index
    values = t.as_array()
    worst_cyc, worst_cyc_word = 0.0, None
    for L, level in index.levels(values)[2:]:
        gap, at = _first_max(index.rotation_gaps(level, L))
        if gap > worst_cyc:
            word = index.word(int(index.offsets[L]) + at // (L - 1))
            worst_cyc, worst_cyc_word = gap, cyclic_canonical(word)
    worst_conj, at = _first_max(np.abs(values - index.reversed(values).conj()))
    worst_conj_word = None if at is None else index.word(at)
    radius = growth_radius(t) if t.max_degree >= 2 else 0.0
    return WMembershipReport(
        cyclic_ok=worst_cyc <= tol,
        conjugate_ok=worst_conj <= tol,
        max_cyclic_violation=worst_cyc,
        max_conjugate_violation=worst_conj,
        worst_cyclic_word=worst_cyc_word,
        worst_conjugate_word=worst_conj_word,
        growth_radius=radius,
        tol=tol,
    )


def _first_max(gaps: np.ndarray) -> tuple[float, int | None]:
    """The largest of nonempty gaps and its first row-major position; (0.0,
    None) if all are 0."""
    at = int(np.argmax(gaps))
    worst = float(gaps.flat[at])
    return (0.0, None) if worst == 0 else (worst, at)


def growth_radius(t: MomentSequence) -> float:
    """Empirical geometric growth bound of a sequence.

    Returns the largest ``t[j^{2k}] ** (1/(2k))`` over variables j, taken at
    the highest even power available.  For genuine matrix moments this is a
    lower bound for the largest operator norm among the variables, and the
    sequence satisfies ``|t_I| <= radius**len(I)`` for even truncation degrees.
    """
    if t.max_degree < 2:
        raise ValueError("growth radius needs moments of degree at least 2")
    k = t.max_degree // 2
    best = 0.0
    for j in range(1, t.n + 1):
        value = max(t[(j,) * (2 * k)].real, 0.0)
        best = max(best, value ** (1.0 / (2 * k)))
    return best


def moment_matrix(t: MomentSequence, d: int) -> np.ndarray:
    """Matrix with entry (J, K) equal to t at reverse(J) followed by K, over
    the words J, K of ``words_up_to(t.n, d)``."""
    if 2 * d > t.max_degree:
        raise ValueError(
            f"insufficient degree: matrix of degree {d} needs moments up to "
            f"{2 * d}, have {t.max_degree}"
        )
    index, words = t.index, np.arange(t.index.offsets[d + 1])
    return t.as_array()[index.concat(index.reversed(words)[:, None], words)]


def check_moment_magnitude(t: MomentSequence) -> None:
    """Raise ValueError unless (2 m a)^2 is finite, a being the largest |t_w|
    and m the size of t's largest moment matrix: 2 m a bounds the Frobenius
    norm of a difference of two such matrices, which sums squares."""
    m = int(t.index.offsets[t.max_degree // 2 + 1])
    a = float(np.abs(t.as_array()).max())
    if not _finite_power(2 * m * a, 2):
        raise ValueError(
            f"moment values too large: arithmetic on the {m} x {m} moment "
            f"matrix with entries up to {a:.6e} could overflow"
        )


def psd_check(M: np.ndarray, tol: float = 1e-9):
    """Least eigenvalue test of a square matrix's Hermitian part:
    (passes, min eigenvalue).  A matrix with no imaginary part is tested
    as a real one."""
    M = np.asarray(M)
    if np.iscomplexobj(M) and not M.imag.any():
        M = M.real
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2)
    min_eig = float(eigs[0]) if len(eigs) else 0.0
    return bool(min_eig >= -tol), min_eig
