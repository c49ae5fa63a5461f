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
in ``words_up_to`` order together with its :class:`WordIndex`, which turns
rotation, reversal and concatenation of words into integer arithmetic on
positions, so each check is one array comparison.  The index computes its
reversal and rotation arrays once and keeps them for the life of the
sequence; a word-keyed dict of the values is built only when asked for.
:func:`moment_sequence` builds the products one word length at a time: the
products of length L are those of length L - 1 times each matrix, as one
stacked ``matmul``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import Word, cyclic_canonical, words_up_to

HERMITIAN_INPUT_TOL = 1e-12
# Size limit of a moment sequence, in the units of ``moment_size``: per word,
# the N x N complex product that holds it while its level is built, plus up
# to D letters in its tuple and its JSON text.  The product stack of the top
# level then stays below 2**23 complex entries (128 MiB), and a single
# variable (one word per length, but words of length up to D) is allowed up
# to D = 2,895.  The largest benchmark shape (n = 3, N = 8, D = 8) needs
# 708,552.
MAX_MOMENT_SIZE = 2**23


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
    in its tuple, for the first matrix in C order that is not finite or not
    Hermitian to ``HERMITIAN_INPUT_TOL``.
    """
    adjoint = stack.conj().swapaxes(-1, -2)
    # A non-finite entry makes its own difference NaN (inf - inf, or NaN),
    # so the defect catches it.
    defect = np.abs(stack - adjoint).max(axis=(-2, -1))
    bad = ~(defect <= HERMITIAN_INPUT_TOL)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        j, worst = first[-1], defect[first]
        if not np.isfinite(worst):
            raise ValueError(f"matrix {j + 1} has non-finite entries")
        raise ValueError(
            f"matrix {j + 1} is not Hermitian: max asymmetry {worst:.3e}"
        )
    return (stack + adjoint) / 2


class WordIndex:
    """Positions of words in ``words_up_to(n, D)`` order, by base-n arithmetic.

    The word ``(i_1, ..., i_L)`` sits at ``offset(L) + k``, with
    ``offset(L) = n^0 + ... + n^(L-1)`` and in-level index
    ``k = sum_j (i_j - 1) n^(L-j)``.  On in-level indices:

    * rotation by s, ``w[s:] + w[:s]``, is
      ``(k mod n^(L-s)) n^s + k div n^(L-s)``;
    * reversal reverses the L base-n digits of k;
    * concatenation J + K is ``offset(|J| + |K|) + k_J n^|K| + k_K``.
    """

    def __init__(self, n: int, D: int):
        self.n = n
        self.D = D
        self.offsets = np.cumsum([0] + [n**L for L in range(D + 1)])
        self.lengths = np.repeat(np.arange(D + 1), np.diff(self.offsets))
        self._reversals = None
        self._rotation_pairs = None

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def word(self, index: int) -> Word:
        """The word at a position."""
        L = int(self.lengths[index])
        k = int(index - self.offsets[L])
        return tuple(k // self.n ** (L - 1 - j) % self.n + 1 for j in range(L))

    def position(self, word) -> int:
        """The position of a word of length at most D."""
        k = 0
        for letter in word:
            k = k * self.n + letter - 1
        return int(self.offsets[len(word)]) + k

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

    def reversals(self) -> np.ndarray:
        """Position of reverse(w), for every word w in order.

        Computed on first use and kept, read-only, with the index.
        """
        if self._reversals is None:
            out = [np.zeros(0, dtype=np.int64)]
            for L in range(self.D + 1):
                k = np.arange(self.n**L)
                rev = np.zeros_like(k)
                for j in range(L):
                    rev = rev * self.n + k // self.n**j % self.n
                out.append(self.offsets[L] + rev)
            self._reversals = _read_only(np.concatenate(out))
        return self._reversals

    def least_rotations(self) -> np.ndarray:
        """Position of the lexicographically least rotation of w, for every
        word w in order.

        Positions of one length follow lexicographic order, so the least
        rotation is the one at the least position.
        """
        out = [np.zeros(0, dtype=np.int64)]
        for L in range(self.D + 1):
            k = np.arange(self.n**L)
            least = k.copy()
            for s in range(1, L):
                tail = self.n ** (L - s)
                np.minimum(least, k % tail * self.n**s + k // tail, out=least)
            out.append(self.offsets[L] + least)
        return np.concatenate(out)

    def rotation_pairs(self, D: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Positions of (w, w[s:] + w[:s]) for every word w of length at
        most D (default: all) and shift 1 <= s < len(w), in (word, shift)
        order.

        The pairs of every word are computed on first use and kept,
        read-only, with the index; those of a smaller D are a prefix.
        """
        if self._rotation_pairs is None:
            words = [np.zeros(0, dtype=np.int64)]
            rotated = [np.zeros(0, dtype=np.int64)]
            for L in range(2, self.D + 1):
                k = np.arange(self.n**L)
                tail = self.n ** np.arange(L - 1, 0, -1)  # n^(L-s) for s = 1..L-1
                head = self.n ** np.arange(1, L)  # n^s
                shifted = k[:, None] % tail * head + k[:, None] // tail
                words.append(np.repeat(k + self.offsets[L], L - 1))
                rotated.append(shifted.ravel() + self.offsets[L])
            self._rotation_pairs = (
                _read_only(np.concatenate(words)),
                _read_only(np.concatenate(rotated)),
            )
        words, rotated = self._rotation_pairs
        if D is None or D >= self.D:
            return words, rotated
        # Words of length L contribute n^L (L - 1) pairs.
        count = sum(self.n**L * (L - 1) for L in range(2, D + 1))
        return words[:count], rotated[:count]


class MomentSequence:
    """Complex values on words, complete up to ``max_degree``.

    The values must be finite and the empty-word value is the normalization
    and must be 1.  They are held as one read-only array in
    ``words_up_to`` order (:meth:`as_array`), together with the sequence's
    :class:`WordIndex`, whose reversal and rotation arrays are computed once
    and shared by every check on the sequence.  ``t[word]`` reads one value;
    ``values``, a dict from word tuples to values, is built on first access.
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
        array = _read_only(np.array(values, dtype=complex))
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
        return self._array[self.index.position(word)].item()

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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def moment_size(n: int, D: int, N: int = 1) -> int:
    """The number of words of length <= D in n letters, times N^2 + D.

    Computed from the three integers alone.  The power n^(D+1) is capped at
    n^64, which for n >= 2 already exceeds :data:`MAX_MOMENT_SIZE`, so a
    huge D costs nothing; the result is exact up to D = 63.
    """
    words = D + 1 if n == 1 else (n ** min(D + 1, 64) - 1) // (n - 1)
    return words * (N * N + D)


def check_moment_size(n: int, D: int, N: int = 1) -> None:
    """Raise ValueError when D is negative or :func:`moment_size` exceeds
    MAX_MOMENT_SIZE."""
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
    try:
        float(R) ** power
    except OverflowError:
        raise ValueError(
            f"radius R = {R} is too large: R^{power} is not finite"
        ) from None


def real_pairs(z) -> np.ndarray:
    """A complex array as a real one with a trailing ``[re, im]`` axis."""
    z = np.asarray(z)
    return np.stack([z.real, z.imag], axis=-1)


def moment_sequence(X, D: int) -> MomentSequence:
    """Normalized traces of all matrix products of length <= D.

    Level by level: the stack of the n^L products of length L is
    ``(level[:, None] @ X[None]).reshape(-1, N, N)`` from the stack of
    length L - 1, which lists them in ``words_up_to`` order (last letter
    fastest).  Only the previous level is kept.  Sizes past
    :data:`MAX_MOMENT_SIZE` are refused before anything is allocated.
    """
    X = as_matrix_tuple(X)
    check_moment_size(X.n, D, X.N)
    mats = np.stack(X.matrices)
    level = np.eye(X.N, dtype=complex)[None]
    traces = [np.ones(1, dtype=complex)]
    for _ in range(D):
        level = (level[:, None] @ mats[None]).reshape(-1, X.N, X.N)
        traces.append(np.trace(level, axis1=1, axis2=2) / X.N)
    return MomentSequence.from_array(X.n, D, np.concatenate(traces))


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

    Cyclic invariance compares every word against all of its rotations;
    conjugate symmetry compares each value against the conjugate of the
    reversed word's value.  Both are one array comparison over the
    positions :class:`WordIndex` gives; the worst word is the first maximum
    in (word, shift) order.  The growth radius is the empirical geometric
    bound read off the diagonal powers (see :func:`growth_radius`).
    """
    if not (tol >= 0):
        raise ValueError(f"tol must be nonnegative, got {tol}")
    index = t.index
    values = t.as_array()
    words, rotated = index.rotation_pairs()
    worst_cyc, at = _first_max(np.abs(values[words] - values[rotated]))
    worst_cyc_word = None if at is None else cyclic_canonical(index.word(words[at]))
    worst_conj, at = _first_max(np.abs(values - values[index.reversals()].conj()))
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
    """The largest gap and its first position; (0.0, None) if all are 0."""
    if not gaps.size:
        return 0.0, None
    at = int(np.argmax(gaps))
    worst = float(gaps[at])
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


@dataclass
class MomentMatrix:
    """Hermitian matrix of sequence values over pairs of basis words."""

    degree: int
    basis: list = field(repr=False)
    entries: np.ndarray = field(repr=False)


def moment_matrix(t: MomentSequence, d: int) -> MomentMatrix:
    """Matrix with entry (J, K) equal to t at reverse(J) followed by K."""
    if 2 * d > t.max_degree:
        raise ValueError(
            f"insufficient degree: matrix of degree {d} needs moments up to "
            f"{2 * d}, have {t.max_degree}"
        )
    index = t.index
    m = int(index.offsets[d + 1])
    rows = index.reversals()[:m, None]
    entries = t.as_array()[index.concat(rows, np.arange(m))]
    return MomentMatrix(degree=d, basis=words_up_to(t.n, d), entries=entries)


def psd_check(M, tol: float = 1e-9):
    """Least eigenvalue test: (passes, min eigenvalue)."""
    entries = np.asarray(getattr(M, "entries", M))
    entries = (entries + entries.conj().T) / 2
    eigs = np.linalg.eigvalsh(entries)
    min_eig = float(eigs[0]) if len(eigs) else 0.0
    return bool(min_eig >= -tol), min_eig
