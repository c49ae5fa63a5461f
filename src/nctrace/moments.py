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
:func:`moment_sequence` builds the products one word length at a time:
those of length L are those of length L - 1 times each matrix, one 2-D
``matmul`` per letter.  Each trace sums its product's diagonal in the order
numpy's reduce (and so ``np.trace``) sums it, one array operation per
diagonal entry over all products of a level: the sequences, and the bytes
written from them, are those of ``np.trace`` on each word's product, and
``test_pairwise_sum_equals_numpys_row_sum`` pins that order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .algebra import Word, check_integer, cyclic_canonical, words_up_to

HERMITIAN_INPUT_TOL = 1e-12
# Size limit of a moment sequence, in the units of ``moment_size``: per word,
# the N x N complex product that holds it while its level is built, plus up
# to D letters in its tuple and its JSON text.  The product stack of the top
# level then stays below 2**23 complex entries (128 MiB), and a single
# variable (one word per length, but words of length up to D) is allowed up
# to D = 2,895.  The largest benchmark shape (n = 3, N = 8, D = 8) needs
# 708,552.
MAX_MOMENT_SIZE = 2**23
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
    size = mats[0].shape[0]
    if not size:
        raise ValueError("matrices must be at least 1 x 1")
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
        self._starts = tuple(self.offsets.tolist())  # for word-by-word arithmetic

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def word(self, index: int) -> Word:
        """The word at a position."""
        L = int(self.lengths[index])
        k = int(index - self.offsets[L])
        return tuple(k // self.n ** (L - 1 - j) % self.n + 1 for j in range(L))

    def positions(self, words) -> list:
        """The positions of words of length at most D, in order."""
        n, starts, out = self.n, self._starts, []
        for word in words:
            k = 0
            for letter in word:
                k = k * n + letter - 1
            out.append(starts[len(word)] + k)
        return out

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
        if len(word) > self.max_degree or not all(1 <= j <= self.n for j in word):
            raise KeyError(word)
        return self._array[self.index.positions([word])[0]].item()

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


def moment_size(n: int, D: int, N: int = 1) -> int:
    """The number of words of length <= D in n letters, times N^2 + D.

    Computed from the three integers alone.  The power n^(D+1) is capped at
    n^64, which for n >= 2 already exceeds :data:`MAX_MOMENT_SIZE`, so a
    huge D costs nothing; the result is exact up to D = 63.
    """
    words = D + 1 if n == 1 else (n ** min(D + 1, 64) - 1) // (n - 1)
    return words * (N * N + D)


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
    """Normalized traces of all matrix products of length <= D.

    The products of length L - 1, stacked as rows, times each matrix make
    the next stack, one 2-D ``matmul`` per letter into that letter's slot.
    The slots put the last letter slowest, so the traces are read through
    :meth:`WordIndex.reversed`.  The diagonals are summed in numpy's
    pairwise order (:func:`_row_sums`), so each trace has the bits
    ``np.trace`` gives its product and the written sequence the same bytes.
    Sizes past :data:`MAX_MOMENT_SIZE` are refused before anything is
    allocated, and so are tuples with N R^D not finite, R the largest norm:
    it bounds every partial sum of a trace.
    """
    X = as_matrix_tuple(X)
    n, N = X.n, X.N
    check_moment_size(n, D, N)
    index = WordIndex(n, D)
    mats = np.stack(X.matrices)
    R = float(np.abs(np.linalg.eigvalsh(mats)).max())
    if not _finite_power(R, D, N):
        raise ValueError(
            f"matrices too large for degree {D}: N R^D is not finite for "
            f"N = {N} and the largest norm R = {R:.6e}"
        )
    rows = np.eye(N, dtype=complex)
    traces = [np.ones(1, dtype=complex)]
    for _ in range(D):
        stack = np.empty((n, len(rows), N), dtype=complex)
        for j in range(n):
            np.matmul(rows, mats[j], out=stack[j])
        rows = stack.reshape(-1, N)
        # The strided diagonals, summed in the order np.trace sums them.
        traces.append(_row_sums(rows.reshape(-1, N * N)[:, :: N + 1]) / N)
    return MomentSequence.from_array(n, D, index.reversed(np.concatenate(traces)))


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=1)`` of a 2-D complex array, bit for bit, one array
    operation per column where the reduce makes one inner-loop call per row.

    ``ndarray.sum`` adds each row by numpy's complex ``pairwise_sum``: up to
    3 entries in turn; up to 64 in four running sums (entries k, k + 4,
    k + 8, ... up to the last full group of four) combined as
    ``(r0 + r1) + (r2 + r3)``, then the rest in turn; more split after
    ``(N - N % 8) // 2`` entries, each half summed so and the halves added.
    It then adds that to its output's initial 0.  This order is what makes
    the traces, and so the written sequences, the same bytes as
    ``np.trace``'s; ``test_pairwise_sum_equals_numpys_row_sum`` pins it on
    every branch.
    """
    return 0.0 + _pairwise_sum(list(rows.T))


def _pairwise_sum(columns: list) -> np.ndarray:
    """The sum of equal-shape arrays in numpy's pairwise order (:func:`_row_sums`)."""
    count = len(columns)
    if count > 64:
        half = (count - count % 8) // 2
        return _pairwise_sum(columns[:half]) + _pairwise_sum(columns[half:])
    if count < 4:
        total = columns[0]
        for column in columns[1:]:
            total = total + column
        return total
    sums = list(columns[:4])
    for k in range(4, count - count % 4):
        sums[k % 4] = sums[k % 4] + columns[k]
    total = (sums[0] + sums[1]) + (sums[2] + sums[3])
    for column in columns[count - count % 4:]:
        total = total + column
    return total


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


def check_w_membership(t: MomentSequence, tol: float = 1e-10) -> WMembershipReport:
    """Check cyclic invariance and conjugate symmetry, report the growth radius.

    Cyclic invariance compares every word against all of its rotations
    (:meth:`WordIndex.rotation_gaps`, one level at a time); conjugate symmetry
    compares each value against the conjugate of the reversed word's value
    (:meth:`WordIndex.reversed`).  The worst word is the first maximum in
    (word, shift) order.  The growth radius is the empirical geometric
    bound read off the diagonal powers (see :func:`growth_radius`).
    """
    if not (tol >= 0):
        raise ValueError(f"tol must be nonnegative, got {tol}")
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
    """The largest gap and its first row-major position; (0.0, None) if all are 0."""
    if not gaps.size:
        return 0.0, None
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
    (passes, min eigenvalue)."""
    M = np.asarray(M)
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2)
    min_eig = float(eigs[0]) if len(eigs) else 0.0
    return bool(min_eig >= -tol), min_eig
