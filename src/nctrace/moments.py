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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Word, cyclic_canonical, involute_word, words_up_to

HERMITIAN_INPUT_TOL = 1e-12


@dataclass(frozen=True)
class MatrixTuple:
    """A tuple of same-size complex Hermitian matrices."""

    matrices: tuple
    n: int
    N: int


def as_matrix_tuple(matrices, tol: float = HERMITIAN_INPUT_TOL) -> MatrixTuple:
    """Validate Hermitianity and symmetrize I/O rounding away.

    Each matrix must be finite, at least 1 x 1, and equal its conjugate
    transpose entrywise to ``tol``; inputs are then replaced by their
    Hermitian parts so later arithmetic sees exactly Hermitian data.
    """
    if isinstance(matrices, MatrixTuple):
        return matrices
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValueError("a matrix tuple needs at least one matrix")
    size = mats[0].shape[0]
    if not size:
        raise ValueError("matrices must be at least 1 x 1")
    out = []
    for j, m in enumerate(mats):
        if m.ndim != 2 or m.shape != (size, size):
            raise ValueError(
                f"matrix {j + 1} has shape {m.shape}, expected ({size}, {size})"
            )
        # A non-finite entry makes its own difference NaN (inf - inf, or
        # NaN), so the defect catches it.
        defect = np.max(np.abs(m - m.conj().T))
        if not (defect <= tol):
            if not np.isfinite(defect):
                raise ValueError(f"matrix {j + 1} has non-finite entries")
            raise ValueError(
                f"matrix {j + 1} is not Hermitian: max asymmetry {defect:.3e}"
            )
        out.append((m + m.conj().T) / 2)
    return MatrixTuple(matrices=tuple(out), n=len(out), N=size)


class MomentSequence:
    """Word-indexed complex values, complete up to ``max_degree``.

    The empty-word value is the normalization and must be 1.
    """

    __slots__ = ("n", "max_degree", "values")

    def __init__(self, n: int, max_degree: int, values: dict):
        words = words_up_to(n, max_degree)
        missing = [w for w in words if w not in values]
        if missing:
            raise ValueError(
                f"moment sequence incomplete: {len(missing)} words missing up to "
                f"degree {max_degree}, first {missing[0]}"
            )
        if abs(values[()] - 1.0) > 1e-9:
            raise ValueError(
                f"moment sequence not normalized: empty-word value {values[()]}"
            )
        self.n = n
        self.max_degree = max_degree
        self.values = {w: complex(values[w]) for w in words}

    def __getitem__(self, word) -> complex:
        return self.values[tuple(word)]

    def restricted(self, degree: int) -> "MomentSequence":
        if degree > self.max_degree:
            raise ValueError(f"cannot extend degree {self.max_degree} to {degree}")
        return MomentSequence(
            self.n, degree, {w: v for w, v in self.values.items() if len(w) <= degree}
        )

    def __repr__(self) -> str:
        return f"MomentSequence(n={self.n}, max_degree={self.max_degree})"


def moment_sequence(X, D: int) -> MomentSequence:
    """Normalized traces of all matrix products of length <= D."""
    X = as_matrix_tuple(X)
    if D < 0:
        raise ValueError(f"degree must be nonnegative, got {D}")
    products: dict[Word, np.ndarray] = {(): np.eye(X.N, dtype=complex)}
    values: dict[Word, complex] = {(): 1.0 + 0.0j}
    for word in words_up_to(X.n, D):
        if word == ():
            continue
        mat = products[word[:-1]] @ X.matrices[word[-1] - 1]
        products[word] = mat
        values[word] = complex(np.trace(mat) / X.N)
    return MomentSequence(X.n, D, values)


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
        return {
            "passed": self.passed,
            "cyclic_ok": self.cyclic_ok,
            "conjugate_ok": self.conjugate_ok,
            "max_cyclic_violation": self.max_cyclic_violation,
            "max_conjugate_violation": self.max_conjugate_violation,
            "worst_cyclic_word": list(self.worst_cyclic_word)
            if self.worst_cyclic_word is not None
            else None,
            "worst_conjugate_word": list(self.worst_conjugate_word)
            if self.worst_conjugate_word is not None
            else None,
            "growth_radius": self.growth_radius,
            "tol": self.tol,
        }


def check_w_membership(t: MomentSequence, tol: float = 1e-10) -> WMembershipReport:
    """Check cyclic invariance and conjugate symmetry, report the growth radius.

    Cyclic invariance compares every word against all of its rotations;
    conjugate symmetry compares each value against the conjugate of the
    reversed word's value.  The growth radius is the empirical geometric
    bound read off the diagonal powers (see :func:`growth_radius`).
    """
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
        value = max(t.values[(j,) * (2 * k)].real, 0.0)
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
    basis = words_up_to(t.n, d)
    m = len(basis)
    entries = np.empty((m, m), dtype=complex)
    for row, J in enumerate(basis):
        jop = involute_word(J)
        for col, K in enumerate(basis):
            entries[row, col] = t.values[jop + K]
    return MomentMatrix(degree=d, basis=basis, entries=entries)


def psd_check(M, tol: float = 1e-9):
    """Least eigenvalue test: (passes, min eigenvalue)."""
    entries = np.asarray(getattr(M, "entries", M))
    entries = (entries + entries.conj().T) / 2
    eigs = np.linalg.eigvalsh(entries)
    min_eig = float(eigs[0]) if len(eigs) else 0.0
    return bool(min_eig >= -tol), min_eig
