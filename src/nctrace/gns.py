"""Finite-rank reconstruction of operators from a moment sequence.

A positive, cyclically invariant, conjugate-symmetric sequence is (up to
truncation) the trace of words in some tuple of self-adjoint operators.
This module rebuilds a concrete finite model: the degree-d moment matrix
is factored, its numerical null space is quotiented away, and each
variable becomes the compression of "multiply on the left by that
variable" acting on the embedded basis words.

The embedded vectors satisfy ``<z_K, z_J> = theta[reverse(J) + K]``, so the
vacuum vector (image of the empty word) has unit norm, and expectation
values of operator words against the vacuum reproduce the sequence.  For a
genuine matrix-trace sequence the reproduction is exact up to twice the
truncation degree; for pseudo-moments the defects are surfaced as
diagnostics rather than hidden.

Vacuum expectations are computed one word length at a time: the vectors
``Y_w vacuum`` of the n^L words of length L are the columns of
``ops @ prev``, one product of the ``(n, r, r)`` operator stack with the
``r x n^(L-1)`` block of the previous length, which lists them in
``words_up_to`` order (first letter slowest).  The cyclic check then
compares whole levels through :class:`~nctrace.moments.WordIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Word
from .moments import MomentSequence, WordIndex, check_w_membership, moment_matrix

DEFAULT_RANK_TOL = 1e-8
GENERATOR_HERMITIAN_TOL = 1e-8
MEMBERSHIP_GATE_TOL = 1e-8


@dataclass
class GnsModel:
    """Quotient space, embedded word vectors, and reconstructed operators."""

    degree: int
    basis: list = field(repr=False)
    rank: int
    vectors: np.ndarray = field(repr=False)  # column i embeds basis word i
    operators: list = field(repr=False)
    vacuum: np.ndarray = field(repr=False)
    reconstruction_error: float
    shift_residual: float
    hermiticity_defects: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "rank": self.rank,
            "basis": [list(w) for w in self.basis],
            "operators": [_matrix_pairs(y) for y in self.operators],
            "vacuum": [[float(v.real), float(v.imag)] for v in self.vacuum],
            "diagnostics": {
                "reconstruction_error": self.reconstruction_error,
                "shift_residual": self.shift_residual,
                "hermiticity_defects": list(self.hermiticity_defects),
            },
        }


def _matrix_pairs(M: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in M]


def gns_build(
    theta: MomentSequence,
    d: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    membership_tol: float = MEMBERSHIP_GATE_TOL,
) -> GnsModel:
    """Quotient model of a moment sequence at truncation half-degree d.

    Needs moments up to 2d.  Refuses sequences whose moment matrix is not
    PSD at ``rank_tol`` or which fail the structural membership checks;
    positivity is what makes the quotient an inner-product space.

    Each operator is pinned by the shift on words of length < d (whose
    images stay inside the degree-d quotient), extended to the rest of the
    space by the self-adjointness the inner-product geometry dictates, with
    the unreachable corner left at zero.
    """
    if d < 0:
        raise ValueError(f"half-degree must be nonnegative, got {d}")
    if theta.max_degree < 2 * d:
        raise ValueError(
            f"insufficient degree: model at half-degree {d} needs moments up "
            f"to {2 * d}, have {theta.max_degree}"
        )
    membership = check_w_membership(theta, tol=membership_tol)
    if not membership.passed:
        raise ValueError(
            "sequence fails structural membership: cyclic violation "
            f"{membership.max_cyclic_violation:.3e}, conjugate violation "
            f"{membership.max_conjugate_violation:.3e}"
        )
    M = moment_matrix(theta, d)
    basis = M.basis
    entries = (M.entries + M.entries.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(entries)
    top = float(eigvals[-1]) if len(eigvals) else 0.0
    if eigvals[0] < -rank_tol * max(top, 1.0):
        raise ValueError(
            f"moment matrix is not PSD: min eigenvalue {eigvals[0]:.6e}"
        )
    keep = eigvals > rank_tol * max(top, 0.0)
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise ValueError("moment matrix is numerically zero")
    kept_vals = eigvals[keep]
    kept_vecs = eigvecs[:, keep]
    # vectors[:, i] embeds basis word i; inner products reproduce the kept
    # part of the moment matrix.
    vectors = (np.sqrt(kept_vals)[:, None]) * kept_vecs.conj().T
    reconstruction_error = float(
        np.linalg.norm((kept_vecs * kept_vals) @ kept_vecs.conj().T - entries)
    )

    index = WordIndex(theta.n, d)
    domain = np.arange(index.offsets[d])  # the words of length < d
    operators = []
    defects = []
    shift_residual = 0.0
    if domain.size:
        Zsub = vectors[:, domain]
        pinv = np.linalg.pinv(Zsub, rcond=1e-12)
        projector = Zsub @ pinv
        for j in range(1, theta.n + 1):
            W = vectors[:, index.concat(j, domain)]  # the words (j,) + w
            Y0 = W @ pinv
            # Self-adjoint extension off the shift domain; the corner the
            # data does not reach stays zero.
            Y = Y0 + Y0.conj().T @ (np.eye(rank) - projector)
            sym = projector @ Y0
            defects.append(float(np.max(np.abs(sym - sym.conj().T))))
            shift_residual = max(
                shift_residual, float(np.linalg.norm(Y @ Zsub - W))
            )
            operators.append(Y)
    else:
        operators = [np.zeros((rank, rank), dtype=complex) for _ in range(theta.n)]
        defects = [0.0] * theta.n

    return GnsModel(
        degree=d,
        basis=basis,
        rank=rank,
        vectors=vectors,
        operators=operators,
        vacuum=vectors[:, 0].copy(),
        reconstruction_error=reconstruction_error,
        shift_residual=shift_residual,
        hermiticity_defects=defects,
    )


def _vacuum_values(model: GnsModel, degree: int) -> np.ndarray:
    """Expectation of each operator word against the vacuum, in
    ``words_up_to`` order, by the level recursion of the module docstring."""
    ops = np.stack(model.operators)
    vacuum = model.vacuum
    level = vacuum[:, None]
    values = [np.array([np.vdot(vacuum, vacuum)])]
    for _ in range(degree):
        level = (ops @ level).transpose(1, 0, 2).reshape(len(vacuum), -1)
        values.append(vacuum.conj() @ level)
    return np.concatenate(values)


def verify_moments(model: GnsModel, theta: MomentSequence, deg_check: int) -> float:
    """Worst deviation of model expectations from the sequence, up to deg_check."""
    if deg_check > model.degree:
        raise ValueError(
            f"deg_check {deg_check} exceeds model degree {model.degree}"
        )
    values = _vacuum_values(model, deg_check)
    return float(np.max(np.abs(values - theta.as_array()[: len(values)])))


def verify_trace_property(model: GnsModel, theta: MomentSequence, deg_check: int) -> float:
    """Worst cyclic asymmetry of vacuum expectations of operator words.

    Compares the expectation of each word against all of its rotations;
    every factorization of a word into two blocks swapped in order is a
    rotation, so this is exactly the tracial exchange property at the level
    of the reconstructed generators.
    """
    deg_check = min(deg_check, theta.max_degree)
    values = _vacuum_values(model, deg_check)
    words, rotated = WordIndex(len(model.operators), deg_check).rotation_pairs()
    gaps = np.abs(values[words] - values[rotated])
    return float(gaps.max()) if gaps.size else 0.0


def unitary_group(model: GnsModel, j: int, t: float) -> np.ndarray:
    """One-parameter unitary generated by operator j: exp(i t y_j).

    The generator must be Hermitian to 1e-8; the exponential is formed
    spectrally, so the result is unitary to machine precision and the group
    law holds exactly in the exponents.
    """
    if not 1 <= j <= len(model.operators):
        raise ValueError(f"variable index {j} out of range 1..{len(model.operators)}")
    y = model.operators[j - 1]
    defect = float(np.max(np.abs(y - y.conj().T))) if y.size else 0.0
    if defect > GENERATOR_HERMITIAN_TOL:
        raise ValueError(
            f"generator {j} is not Hermitian: asymmetry {defect:.3e}"
        )
    eigvals, eigvecs = np.linalg.eigh((y + y.conj().T) / 2)
    phases = np.exp(1j * t * eigvals)
    return (eigvecs * phases) @ eigvecs.conj().T


@dataclass
class NormBoundReport:
    """Evidence that the reconstructed operators respect a norm budget R."""

    passed: bool
    radius: float
    worst_moment_excess: float
    worst_moment_word: Word | None
    operator_norms: list
    operator_slack: float

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "radius": self.radius,
            "worst_moment_excess": self.worst_moment_excess,
            "worst_moment_word": list(self.worst_moment_word)
            if self.worst_moment_word is not None
            else None,
            "operator_norms": list(self.operator_norms),
            "operator_slack": self.operator_slack,
        }


def norm_bound_check(model: GnsModel, theta: MomentSequence, R: float) -> NormBoundReport:
    """Check diagonal even moments against R**(2k) and report operator norms.

    The moment condition is the pass criterion.  Operator norms can exceed
    R slightly because of the truncated extension; the relative excess is
    reported as slack, not failed.  R must be positive and finite, and the
    sequence needs a diagonal even moment, so degree at least 2.
    """
    if not (0 < R < np.inf):
        raise ValueError(f"radius R must be positive and finite, got {R}")
    if theta.max_degree < 2:
        raise ValueError(
            f"norm bound check needs moments of degree at least 2, have "
            f"{theta.max_degree}"
        )
    worst_excess = -np.inf
    worst_word = None
    passed = True
    for j in range(1, theta.n + 1):
        for k in range(1, theta.max_degree // 2 + 1):
            word = (j,) * (2 * k)
            excess = theta.values[word].real - R ** (2 * k) * (1 + 1e-9)
            if excess > worst_excess:
                worst_excess = excess
                worst_word = word
            if excess > 0:
                passed = False
    norms = [float(np.linalg.norm(y, 2)) if y.size else 0.0 for y in model.operators]
    slack = max(
        (max(0.0, norm - R) / max(R, 1e-300) for norm in norms), default=0.0
    )
    return NormBoundReport(
        passed=passed,
        radius=float(R),
        worst_moment_excess=float(worst_excess),
        worst_moment_word=worst_word,
        operator_norms=norms,
        operator_slack=float(slack),
    )
