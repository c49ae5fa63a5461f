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
The certificate's residual is recomputed from its factors by plain
polynomial arithmetic, one pass summing ``conj(b_J) b_K`` over every
factor, and never reads the labels or any solver state.  Problems larger
than :data:`MAX_GRAM_SIZE` are refused before anything is allocated.

Failure of the primal search is only ever "infeasible at tolerance at
level d": raising d enlarges the search space, and no claim of
completeness is made at any finite level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .algebra import (
    COEFF_PRUNE,
    NCPoly,
    Word,
    evaluate,
    normalized_trace,
    pair,
    words_up_to,
)
from .moments import (
    MAX_MOMENT_SIZE,
    MomentSequence,
    WordIndex,
    as_matrix_tuple,
    check_radius,
    check_w_membership,
    hermitian_parts,
    moment_matrix,
    moment_sequence,
    moment_size,
    psd_check,
)
from .sampling import make_rng, random_hermitians, random_tuple, structured_library
from .sdp import (
    ClassConstraints,
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
    if not p.is_symmetric(SYMMETRY_TOL):
        raise ValueError("polynomial is not self-adjoint")


# Size limit of the Gram and witness problems at half-degree d, in the units
# of ``moment_size(nvars, 2d)``: the words of length <= 2d times 2d + 1, as
# for the degree-2d sequence a witness emits.  The class labels are read off
# every word of length <= 2d, each compared with its up to 2d rotations, and
# the m x m solver matrices over the m words of length <= d hold no more
# entries than that.  2**20 keeps the rotation pass and each solver matrix
# within a few tens of MiB; it allows n = 2 up to d = 7, n = 3 up to d = 5,
# and a single variable up to d = 511.
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
    """Refuse a half-degree below half of p's degree or past the size limit."""
    if p.degree() > 2 * d:
        raise ValueError(f"polynomial degree {p.degree()} exceeds 2*d = {2 * d}")
    check_gram_size(p.nvars, d)


@dataclass
class CyclicClasses:
    """The cyclic classes of the words of length <= 2d, by word-index arithmetic.

    ``index`` is ``WordIndex(nvars, 2d)``.  A class is labelled by the rank,
    in ``words_up_to`` order, of its least word; ``word_labels`` holds the
    label of every word up to 2d, ``reps`` the position of each class's
    least word and ``partners`` the label of its reversal.  ``labels[J, K]``
    is the label of ``reverse(J) + K`` over the m basis words of length
    <= d: every word up to 2d is such a pair (split it in the middle), so
    every class labels some entry.
    """

    index: WordIndex
    word_labels: np.ndarray
    reps: np.ndarray
    partners: np.ndarray
    labels: np.ndarray

    def coefficients(self, p: NCPoly) -> np.ndarray:
        """p's total coefficient on each class, by label.

        p's terms are summed onto the labels of their words in the order
        of p's terms, and totals not above ``COEFF_PRUNE`` in magnitude are
        dropped, so the totals are those of :meth:`NCPoly.cyclic_reduce`.
        p's words must have length at most 2d.
        """
        position = self.index.position
        labels = self.word_labels[[position(word) for word in p.terms]]
        coeffs = np.array(list(p.terms.values()), dtype=complex)
        size = len(self.reps)
        values = np.bincount(labels, weights=coeffs.real, minlength=size).astype(complex)
        values.imag = np.bincount(labels, weights=coeffs.imag, minlength=size)
        values[~(np.abs(values) > COEFF_PRUNE)] = 0  # NaN totals too, as cyclic_reduce
        return values


def cyclic_classes(nvars: int, d: int) -> CyclicClasses:
    """The classes of the Gram and witness problems at half-degree d.

    Each word's least rotation is the least position among its rotations,
    the rotated views of its level of positions; ranking the least
    positions gives the labels.  Classes come out in (length, word) order
    of their least words.
    """
    index = WordIndex(nvars, 2 * d)
    positions = np.arange(len(index))
    least = np.concatenate([
        np.min([index.rotated(level, s) for s in range(max(L, 1))], axis=0)
        for L, level in index.levels(positions)])
    is_rep = least == positions
    word_labels = (np.cumsum(is_rep) - 1)[least]
    reps = np.flatnonzero(is_rep)
    basis = positions[: index.offsets[d + 1]]
    labels = word_labels[index.concat(index.reversed(basis)[:, None], basis)]
    partners = index.reversed(word_labels)[reps]
    return CyclicClasses(index, word_labels, reps, partners, labels)


@dataclass
class GramProblem:
    """Linear side of the square-decomposition search at half-degree d.

    For each cyclic class of words of length <= 2d, the entries of the Gram
    matrix lying over that class must sum to the polynomial's total
    coefficient on the class.  Solutions G that are also PSD factor into
    square terms reproducing the polynomial up to cyclic equivalence.
    ``rhs`` maps each class's least word to that coefficient.
    """

    degree: int
    basis: list = field(repr=False)
    rhs: dict = field(repr=False)
    constraints: ClassConstraints = field(repr=False)

    @property
    def n_classes(self) -> int:
        return len(self.rhs)


def build_gram_problem(p: NCPoly, d: int) -> GramProblem:
    _require_symmetric(p)
    _check_degree(p, d)
    classes = cyclic_classes(p.nvars, d)
    words = words_up_to(p.nvars, 2 * d)
    values = classes.coefficients(p)
    rhs = {words[rep]: value for rep, value in zip(classes.reps.tolist(), values.tolist())}
    # A class and its reversal are transposes of each other and carry
    # conjugate sums; the earlier of the two in the ordering sets both.
    earlier = np.arange(len(values)) <= classes.partners
    values = np.where(earlier, values, np.conj(values[classes.partners]))
    constraints = ClassConstraints(classes.labels, rhs=values)
    basis = words[: len(classes.labels)]
    return GramProblem(degree=d, basis=basis, rhs=rhs, constraints=constraints)


@dataclass
class Certificate:
    """Square factors presenting p as cyclically equivalent to sum(b*.b)."""

    degree: int
    factors: list = field(repr=False)
    residual: NCPoly = field(repr=False)
    residual_l1: float = 0.0


def _sum_of_squares(factors, nvars: int) -> NCPoly:
    """The polynomial sum of b* b over the factors b, in one pass.

    Each product conj(b_J) b_K of two terms lands on the word
    reverse(J) + K; all of them are summed into one coefficient table.
    """
    total: dict[Word, complex] = {}
    for b in factors:
        terms = b.terms.items()
        for J, bJ in terms:
            left, weight = J[::-1], bJ.conjugate()
            for K, bK in terms:
                word = left + K
                total[word] = total.get(word, 0.0) + weight * bK
    return NCPoly._from_valid(nvars, total)


@dataclass
class InfeasibilityReport:
    """Negative outcome of the square-decomposition search at level d."""

    degree: int
    gap: float
    iterations: int
    status: str = "infeasible-at-tolerance"
    separator: np.ndarray | None = field(default=None, repr=False)


def extract_factors(G: np.ndarray, basis, nvars: int):
    """Spectral square factors of a Gram matrix over a word basis.

    Eigenvalues at or below ``RANK_CUTOFF`` times the largest are numerical
    dust and are dropped rather than turned into spurious factors.
    """
    G = (G + G.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(G)
    top = float(eigvals[-1]) if len(eigvals) else 0.0
    factors = []
    if top <= 0:
        return factors
    for s in range(len(eigvals) - 1, -1, -1):
        lam = float(eigvals[s])
        if lam <= RANK_CUTOFF * top:
            break
        weight = float(np.sqrt(lam))
        column = eigvecs[:, s].tolist()
        coeffs = {
            word: weight * v.conjugate()
            for word, v in zip(basis, column)
            if abs(v) > 1e-14
        }
        factors.append(NCPoly._from_valid(nvars, coeffs))
    return factors


def certify_sos(
    p: NCPoly,
    d: int | None = None,
    tol: float = 1e-9,
    max_iter: int = 200_000,
):
    """Search for a square decomposition of p up to cyclic equivalence.

    Returns a :class:`Certificate` on success and an
    :class:`InfeasibilityReport` with the solver's separating matrix (its
    anchor is :func:`_tracial_anchor`) when the Gram problem is infeasible
    at tolerance; raises :class:`SolverStalled` when the solve is undecided
    at its iteration cap.  The certificate's residual is recomputed from the
    extracted factors by plain polynomial arithmetic; one above
    ``RESIDUAL_TOL * max(1, ||p||_1)`` raises :class:`NoFeasiblePoint`.
    """
    if d is None:
        d = (p.degree() + 1) // 2
    problem = build_gram_problem(p, d)
    anchor = partial(_tracial_anchor, p.nvars, d)
    report = feasibility_solve(problem.constraints, tol, max_iter, anchor)
    if report.status == "max-iterations":
        raise SolverStalled(report)
    if report.status != "feasible":
        gap, iterations, separator = report.gap, report.iterations, report.separator
        return InfeasibilityReport(d, gap, iterations, separator=separator)
    factors = extract_factors(report.solution, problem.basis, p.nvars)
    residual = (p - _sum_of_squares(factors, p.nvars)).cyclic_reduce()
    residual_l1, limit = residual.r_norm(1.0), RESIDUAL_TOL * max(1.0, p.r_norm(1.0))
    if not (residual_l1 <= limit):
        raise NoFeasiblePoint(
            f"certificate residual {residual_l1:.3e} exceeds {limit:.3e}"
        )
    return Certificate(d, factors, residual, residual_l1)


def verify_certificate(p: NCPoly, cert: Certificate) -> float:
    """Recompute the certificate residual from scratch.

    Uses only polynomial arithmetic on the stored factors, never any solver
    state, so it independently audits what :func:`certify_sos` produced.
    """
    return (p - _sum_of_squares(cert.factors, p.nvars)).cyclic_reduce().r_norm(1.0)


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
    :func:`minimize_linear` solves for it.  A solution the iteration cap
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
    labels = classes.labels
    radii = float(R) ** classes.index.lengths[classes.reps].astype(float)
    # The empty word is the least word of its class, and the first of all.
    constraints = ClassConstraints(labels, pinned=0, radii=radii)

    shares = classes.coefficients(p)
    weights = (shares / constraints.counts)[labels]
    objective = (np.conj(weights) + weights.T) / 2

    solution = minimize_linear(objective, constraints, tol=tol, max_iter=max_iter).solution
    low = float(np.linalg.eigvalsh(solution)[0])
    if low < -tol:
        solution = _mix_anchor(solution, low, constraints, p.nvars, d, R)
    theta = _extract_moments(solution, constraints, classes, R)
    value = pair(p, theta)
    if abs(value.imag) > 1e-8:
        raise AssertionError(f"pairing unexpectedly complex: {value}")
    return theta, value.real


def _mix_anchor(x, low, constraints, nvars: int, d: int, R: float) -> np.ndarray:
    """Move x, feasible but for eigenvalue ``low < 0``, just onto the PSD cone.

    The anchor A is the class-projected moment matrix of the
    :func:`_tracial_anchor` tuple scaled to norm R, so it satisfies every
    constraint.  With delta = lambda_min(A) > 0 the mix (1-t)x + tA,
    t = -low / (delta - low), stays feasible and has smallest eigenvalue at
    least zero, by concavity of lambda_min.  Raises
    :class:`NoFeasiblePoint` if delta <= 0.
    """
    anchor = _tracial_anchor(nvars, d)
    # Scaling the tuple by R scales entry (J, K) by R^(|J| + |K|); no trace
    # of a tuple of norm R is taken, so none overflows.  The weight is
    # symmetric in J and K, so the scaled Hermitian part stays exactly
    # Hermitian, and at R = 1 it is what project_affine makes of the anchor.
    scale = float(R) ** WordIndex(nvars, d).lengths
    A = project_affine(
        (anchor + anchor.conj().T) / 2 * np.multiply.outer(scale, scale), constraints
    )
    delta = float(np.linalg.eigvalsh(A)[0])
    if not (delta > 0):
        raise NoFeasiblePoint(
            f"solver stopped at eigenvalue {low:.3e} and the anchor is not "
            f"positive definite (eigenvalue {delta:.3e})"
        )
    t = -low / (delta - low)
    return (1 - t) * x + t * A


@lru_cache(maxsize=32)
def _tracial_anchor(nvars: int, d: int) -> np.ndarray:
    """Read-only half-degree d moment matrix of a fixed random tuple of norm 1.

    Its entries are normalized traces: constant on cyclic classes, 1 at the
    empty word, bounded by 1 in magnitude.  N x N matrices with N^2 >= 4m
    for m basis words make it positive definite for a generic tuple.
    """
    m = len(words_up_to(nvars, d))
    size = max(4, int(np.ceil(2 * np.sqrt(m))))
    X = random_tuple(make_rng(0), nvars, size)
    moments = moment_matrix(moment_sequence(X, 2 * d), d).entries
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
    M: np.ndarray, constraints: ClassConstraints, classes: CyclicClasses, R: float
) -> MomentSequence:
    """The sequence of class means of M, normalized at the empty word.

    Each word of length <= 2d takes its class's mean over the entries of
    the Hermitian part of M, divided by the empty word's mean and clamped
    in magnitude to ``R**length``.
    """
    means = constraints.class_means((M + M.conj().T) / 2)
    norm = means[0].real
    values = []
    for value, length in zip(means, classes.index.lengths[classes.reps].tolist()):
        v = value / norm
        bound = R**length
        if abs(v) > bound:
            v = v * (bound / abs(v))
        values.append(v)
    theta = np.array(values, dtype=complex)[classes.word_labels]
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
    the outcome is a deterministic function of the seed.

    The random tuples are drawn ``FALSIFY_CHUNK`` trials at a time with
    :func:`~nctrace.sampling.random_hermitians`, which reproduces the
    stream of drawing them one by one from ``make_rng(seed)``.  Each chunk
    is screened by its batched traces, which pair the two halves of each
    word (:func:`_real_traces`); a trial below
    ``-FALSIFY_TRACE_TOL + FALSIFY_SCREEN * ||p||_R`` is evaluated again on
    its own, and returned only if that trace is below -1e-10.  The two
    traces differ by rounding only, far inside the screen's slack, so the
    returned index, tuple and trace are those of the trial-by-trial search.

    A size N whose chunk of products would be too large is refused before
    anything is allocated: a chunk holds the products of up to
    ``moment_size(n, ceil(deg p / 2), N)`` entries per trial, and
    ``FALSIFY_CHUNK`` times that may not exceed ``MAX_MOMENT_SIZE``.  A
    radius at which the traces could overflow is refused before any
    draw: R^deg(p) must be finite, and so must N times the larger of it
    and ``||p||_R``, which bound every partial sum of an unnormalized
    trace on a tuple of norm R.
    """
    _require_symmetric(p)
    if not (trials >= 0):
        raise ValueError(f"trials must be nonnegative, got {trials}")
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
    norm = p.r_norm(R)
    if not (N * max(norm, float(R) ** p.degree()) < np.inf):
        raise ValueError(
            f"radius R = {R} is too large: the traces of {N} x {N} matrices "
            "of that norm overflow"
        )
    for index, candidate in enumerate(structured_library(p.nvars, N)):
        value = _real_trace(p, candidate)
        if value < -FALSIFY_TRACE_TOL:
            return Falsification(
                tuple=candidate, trace=value, source="library", index=index
            )
    screen = -FALSIFY_TRACE_TOL + FALSIFY_SCREEN * norm
    rng = make_rng(seed)
    for start in range(0, trials, FALSIFY_CHUNK):
        drawn = random_hermitians(rng, (min(FALSIFY_CHUNK, trials - start), p.nvars), N, R)
        traces = _real_traces(p, hermitian_parts(drawn))
        for k in np.flatnonzero(traces < screen):
            candidate = as_matrix_tuple(drawn[k])
            value = _real_trace(p, candidate)
            if value < -FALSIFY_TRACE_TOL:
                return Falsification(
                    tuple=candidate, trace=value, source="random", index=start + int(k)
                )
    return None


def _real_traces(p: NCPoly, stack: np.ndarray) -> np.ndarray:
    """Real normalized trace of p on each tuple of a ``(K, n, N, N)`` stack.

    Each word is split in half, w = J + L with |J| = floor(|w|/2), and
    ``tr X_w = sum_ab (X_J)_ab (X_L)_ba``.  The products of the halves p
    uses, and of their prefixes, are formed one length at a time, each
    from its prefix's.  One batched ``(K, W_J, N^2) @ (K, N^2, W_L)``
    product of the left halves' rows with the right halves' transposed
    columns then gives every tr(X_J X_L), and p's coefficients, as a
    W_J x W_L matrix, sum them.
    """
    K, _, size, _ = stack.shape
    splits = [(w[: len(w) // 2], w[len(w) // 2 :]) for w in p.terms]
    halves = {h for split in splits for h in split}
    # Every prefix of every half, shortest first, numbered in that order.
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


def _real_trace(p: NCPoly, X) -> float:
    value = normalized_trace(evaluate(p, X))
    return float(value.real)
