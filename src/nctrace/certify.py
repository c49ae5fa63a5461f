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

Failure of the primal search is only ever "infeasible at tolerance at
level d": raising d enlarges the search space, and no claim of
completeness is made at any finite level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .algebra import (
    NCPoly,
    Word,
    cyclic_canonical,
    evaluate,
    involute_word,
    normalized_trace,
    pair,
    star_product,
    words_up_to,
)
from .moments import (
    MomentSequence,
    as_matrix_tuple,
    check_w_membership,
    hermitian_parts,
    moment_matrix,
    moment_sequence,
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


def _class_positions(nvars: int, d: int):
    """Group basis-word pairs (J, K) by the cyclic class of reverse(J)+K.

    Every pair lands in exactly one class; every word of length <= 2d is
    reachable (split it in the middle), so the classes cover all of them.
    """
    basis = words_up_to(nvars, d)
    classes: dict[Word, list[tuple[int, int]]] = {}
    for (row, J), (col, K) in product(enumerate(basis), repeat=2):
        rep = cyclic_canonical(involute_word(J) + K)
        classes.setdefault(rep, []).append((row, col))
    return basis, classes


def _class_labels(classes, m: int):
    """Class representatives by (length, word), and each entry's index there."""
    reps = sorted(classes, key=lambda w: (len(w), w))
    labels = np.empty((m, m), dtype=np.intp)
    for label, rep in enumerate(reps):
        rows, cols = zip(*classes[rep])
        labels[rows, cols] = label
    return reps, labels


@dataclass
class GramProblem:
    """Linear side of the square-decomposition search at half-degree d.

    For each cyclic class of words of length <= 2d, the entries of the Gram
    matrix lying over that class must sum to the polynomial's total
    coefficient on the class.  Solutions G that are also PSD factor into
    square terms reproducing the polynomial up to cyclic equivalence.
    """

    degree: int
    basis: list = field(repr=False)
    classes: dict = field(repr=False)
    rhs: dict = field(repr=False)
    constraints: ClassConstraints = field(repr=False)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def build_gram_problem(p: NCPoly, d: int) -> GramProblem:
    _require_symmetric(p)
    if p.degree() > 2 * d:
        raise ValueError(
            f"polynomial degree {p.degree()} exceeds 2*d = {2 * d}"
        )
    basis, classes = _class_positions(p.nvars, d)
    m = len(basis)
    reduced = p.cyclic_reduce()
    stray = [w for w in reduced.terms if w not in classes]
    if stray:
        raise AssertionError(f"unreachable class representative {stray[0]}")
    rhs = {rep: reduced.coeff(rep) for rep in classes}

    reps, labels = _class_labels(classes, m)
    values = np.array([rhs[rep] for rep in reps], dtype=complex)
    # A class and its reversal are transposes of each other and carry
    # conjugate sums; the earlier of the two in the ordering sets both.
    partner = np.array([labels[classes[rep][0][::-1]] for rep in reps])
    earlier = np.arange(len(reps)) <= partner
    values = np.where(earlier, values, np.conj(values[partner]))
    constraints = ClassConstraints(labels, rhs=values)
    return GramProblem(
        degree=d, basis=basis, classes=classes, rhs=rhs, constraints=constraints
    )


@dataclass
class Certificate:
    """Square factors presenting p as cyclically equivalent to sum(b*.b)."""

    degree: int
    factors: list = field(repr=False)
    residual: NCPoly = field(repr=False)
    residual_l1: float = 0.0

    def sos_poly(self) -> NCPoly:
        return _sum_of_squares(self.factors, self.residual.nvars)


def _sum_of_squares(factors, nvars: int) -> NCPoly:
    total = NCPoly.zero(nvars)
    for b in factors:
        total = total + star_product(b.adjoint(), b)
    return total


@dataclass
class InfeasibilityReport:
    """Negative outcome of the square-decomposition search at level d."""

    degree: int
    gap: float
    iterations: int
    status: str = "infeasible-at-tolerance"
    separator: np.ndarray | None = field(default=None, repr=False)


def extract_factors(G: np.ndarray, basis, nvars: int, rank_cutoff: float = RANK_CUTOFF):
    """Spectral square factors of a Gram matrix over a word basis.

    Eigenvalues below ``rank_cutoff`` times the largest are numerical dust
    and are dropped rather than turned into spurious factors.
    """
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
    _require_symmetric(p)
    if d is None:
        d = (p.degree() + 1) // 2
    problem = build_gram_problem(p, d)
    anchor = partial(_tracial_anchor, p.nvars, d)
    report = feasibility_solve(problem.constraints, None, tol, max_iter, anchor)
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
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    if d is None:
        d = (p.degree() + 1) // 2
    if p.degree() > 2 * d:
        raise ValueError(f"polynomial degree {p.degree()} exceeds 2*d = {2 * d}")
    basis, classes = _class_positions(p.nvars, d)
    m = len(basis)

    reps, labels = _class_labels(classes, m)
    radii = float(R) ** np.array([len(rep) for rep in reps], dtype=float)
    constraints = ClassConstraints(labels, pinned=reps.index(()), radii=radii)

    reduced = p.cyclic_reduce()
    shares = np.array([reduced.coeff(rep) for rep in reps], dtype=complex)
    weights = (shares / constraints.counts)[labels]
    objective = (np.conj(weights) + weights.T) / 2

    solution, _ = minimize_linear(objective, constraints, tol=tol, max_iter=max_iter)
    low = float(np.linalg.eigvalsh(solution)[0])
    if low < -tol:
        solution = _mix_anchor(solution, low, constraints, p.nvars, d, R)
    theta = _extract_moments(solution, classes, p.nvars, 2 * d, R)
    value = pair(p, theta)
    if abs(value.imag) > 1e-8:
        raise AssertionError(f"pairing unexpectedly complex: {value}")
    return theta, value.real


def _mix_anchor(x, low, constraints, nvars: int, d: int, R: float) -> np.ndarray:
    """Move x, feasible but for eigenvalue ``low < 0``, just onto the PSD cone.

    The anchor A is the class-projected :func:`_tracial_anchor`, so it
    satisfies every constraint.  With delta = lambda_min(A) > 0 the mix
    (1-t)x + tA, t = -low / (delta - low), stays feasible and has smallest
    eigenvalue at least zero, by concavity of lambda_min.  Raises
    :class:`NoFeasiblePoint` if delta <= 0.
    """
    A = project_affine(_tracial_anchor(nvars, d, R), constraints)
    delta = float(np.linalg.eigvalsh(A)[0])
    if not (delta > 0):
        raise NoFeasiblePoint(
            f"solver stopped at eigenvalue {low:.3e} and the anchor is not "
            f"positive definite (eigenvalue {delta:.3e})"
        )
    t = -low / (delta - low)
    return (1 - t) * x + t * A


@lru_cache(maxsize=32)
def _tracial_anchor(nvars: int, d: int, R: float = 1.0) -> np.ndarray:
    """Read-only half-degree d moment matrix of a fixed random tuple of norm R.

    Its entries are normalized traces: constant on cyclic classes, 1 at the
    empty word, bounded by ``R**word_length``.  N x N matrices with N^2 >= 4m
    for m basis words make it positive definite for a generic tuple.
    """
    m = len(words_up_to(nvars, d))
    size = max(4, int(np.ceil(2 * np.sqrt(m))))
    X = random_tuple(make_rng(0), nvars, size, R)
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


def _extract_moments(M: np.ndarray, classes, nvars: int, degree: int, R: float) -> MomentSequence:
    M = (M + M.conj().T) / 2
    per_class: dict[Word, complex] = {}
    for rep, positions in classes.items():
        per_class[rep] = sum(M[row, col] for row, col in positions) / len(positions)
    norm = per_class[()].real
    values: dict[Word, complex] = {}
    for word in words_up_to(nvars, degree):
        v = per_class[cyclic_canonical(word)] / norm
        bound = R ** len(word)
        if abs(v) > bound:
            v = v * (bound / abs(v))
        values[word] = v
    return MomentSequence(nvars, degree, values)


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
    excess = 0.0
    for word, value in theta.values.items():
        excess = max(excess, abs(value) - witness.radius ** len(word))
    return WitnessValidation(
        membership_passed=report.passed,
        psd_passed=ok,
        min_eigenvalue=min_eig,
        box_passed=excess <= 10 * tol,
        max_box_excess=excess,
        normalized=abs(theta.values[()] - 1.0) <= 10 * tol,
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
    is screened by its batched traces; a trial below
    ``-FALSIFY_TRACE_TOL + FALSIFY_SCREEN * ||p||_R`` is evaluated again on
    its own, and returned only if that trace is below -1e-10.  The two
    traces differ by rounding only, far inside the screen's slack, so the
    returned index, tuple and trace are those of the trial-by-trial search.
    """
    _require_symmetric(p)
    if not (trials >= 0):
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if not (N >= 1):
        raise ValueError(f"matrix size N must be at least 1, got {N}")
    if not (0 < R < np.inf):
        raise ValueError(f"radius R must be positive and finite, got {R}")
    for index, candidate in enumerate(structured_library(p.nvars, N)):
        value = _real_trace(p, candidate)
        if value < -FALSIFY_TRACE_TOL:
            return Falsification(
                tuple=candidate, trace=value, source="library", index=index
            )
    screen = -FALSIFY_TRACE_TOL + FALSIFY_SCREEN * p.r_norm(R)
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
    """Real normalized trace of p on each tuple of a ``(K, n, N, N)`` stack,
    sharing each word prefix's products across the terms."""
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


def _real_trace(p: NCPoly, X) -> float:
    value = normalized_trace(evaluate(p, X))
    return float(value.real)
