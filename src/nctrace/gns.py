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

Vacuum expectations split each word in half: for w = J + K with
|J| = floor(|w|/2), ``<vacuum, Y_w vacuum> = <Y_J^* vacuum, Y_K vacuum>``.
The vectors ``Y_K vacuum`` of the n^L words of length L are the columns of
``ops @ prev``, one product of the ``(n, r, r)`` operator stack with the
``r x n^(L-1)`` block of the previous length (first letter slowest); the
vectors ``Y_J^* vacuum`` come the same way from the adjoint stack, with the
new letter last.  Both are built only up to half the degree, and the
values of each word length are then one matrix product of a left block
with a right block (:func:`~nctrace.moments.half_products`), which lists
them in ``words_up_to`` order.  The cyclic check compares each level with
its rotations, which are transposed reshapes of it
(:meth:`~nctrace.moments.WordIndex.rotation_gaps`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import Word, check_integer
from .moments import (
    MomentSequence,
    check_moment_magnitude,
    check_radius,
    check_w_membership,
    half_products,
    moment_matrix,
)

DEFAULT_RANK_TOL = 1e-8
GENERATOR_HERMITIAN_TOL = 1e-8
MEMBERSHIP_GATE_TOL = 1e-8


class ModelRejected(ValueError):
    """A well-formed sequence that has no model: it fails the structural
    membership checks, or its moment matrix is not PSD."""


@dataclass
class GnsModel:
    """Quotient space and reconstructed operators, one per variable, of the
    moment matrix over the words of ``words_up_to(n, degree)``.

    :func:`gns_build` makes each operator equal its conjugate transpose bit
    for bit; ``hermiticity_defects`` are the data's defects, one per
    variable, measured before the operator is made self-adjoint.
    """

    degree: int
    rank: int
    operators: list = field(repr=False)
    vacuum: np.ndarray = field(repr=False)
    reconstruction_error: float
    shift_residual: float
    hermiticity_defects: list = field(default_factory=list)


def gns_build(
    theta: MomentSequence, d: int, membership_tol: float = MEMBERSHIP_GATE_TOL
) -> GnsModel:
    """Quotient model of a moment sequence at truncation half-degree d.

    Needs an integer d >= 1 and moments up to 2d, and refuses sequences too
    large for the arithmetic (:func:`~nctrace.moments.check_moment_magnitude`),
    each with a plain ValueError.  Raises :class:`ModelRejected` for sequences
    that fail the structural membership checks at ``membership_tol``, or
    whose moment matrix is not PSD at ``DEFAULT_RANK_TOL`` relative to its
    largest eigenvalue; positivity is what makes the quotient an
    inner-product space.  Eigenvalues at or below that level are the null
    space quotiented away.  The empty word's value is 1 to within 1e-9, so
    the largest eigenvalue is positive and kept, and the rank is at least 1.

    Each operator is pinned by the shift on words of length < d (whose
    images stay inside the degree-d quotient), extended to the rest of the
    space by the self-adjointness the inner-product geometry dictates, with
    the unreachable corner left at zero.  With Y0 the shift on the words of
    length < d and P the projector onto their span, Y - Y^* is the data's
    defect P Y0 - (P Y0)^* plus rounding, and ``hermiticity_defects`` holds
    the largest entry of that defect for each variable.  The model holds
    the exact Hermitian part (Y + Y^*) / 2, which equals its conjugate
    transpose bit for bit, and ``shift_residual`` is measured on it.
    """
    check_integer(d, "model half-degree d")
    if d < 1:
        raise ValueError(f"model half-degree must be at least 1, got {d}")
    check_moment_magnitude(theta)
    M = moment_matrix(theta, d)  # refuses a sequence of degree below 2d
    membership = check_w_membership(theta, tol=membership_tol)
    if not membership.passed:
        raise ModelRejected(
            "sequence fails structural membership: cyclic violation "
            f"{membership.max_cyclic_violation:.3e}, conjugate violation "
            f"{membership.max_conjugate_violation:.3e}"
        )
    entries = (M + M.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(entries)
    top = float(eigvals[-1])
    if eigvals[0] < -DEFAULT_RANK_TOL * max(top, 1.0):
        raise ModelRejected(
            f"moment matrix is not PSD: min eigenvalue {eigvals[0]:.6e}"
        )
    keep = eigvals > DEFAULT_RANK_TOL * top
    rank = int(np.count_nonzero(keep))
    kept_vals = eigvals[keep]
    kept_vecs = eigvecs[:, keep]
    # vectors[:, i] embeds basis word i; inner products reproduce the kept
    # part of the moment matrix.
    vectors = (np.sqrt(kept_vals)[:, None]) * kept_vecs.conj().T
    reconstruction_error = float(
        np.linalg.norm((kept_vecs * kept_vals) @ kept_vecs.conj().T - entries)
    )

    index = theta.index
    domain = np.arange(index.offsets[d])  # the words of length < d
    Zsub = vectors[:, domain]
    pinv = np.linalg.pinv(Zsub, rcond=1e-12)
    projector = Zsub @ pinv
    operators = []
    defects = []
    shift_residual = 0.0
    for j in range(1, theta.n + 1):
        W = vectors[:, index.concat(j, domain)]  # the words (j,) + w
        Y0 = W @ pinv
        # Self-adjoint extension off the shift domain; the corner the data
        # does not reach stays zero.
        Y = Y0 + Y0.conj().T @ (np.eye(rank) - projector)
        Y = (Y + Y.conj().T) / 2  # equal to its adjoint bit for bit
        sym = projector @ Y0
        defects.append(float(np.max(np.abs(sym - sym.conj().T))))
        shift_residual = max(shift_residual, float(np.linalg.norm(Y @ Zsub - W)))
        operators.append(Y)

    return GnsModel(
        degree=d,
        rank=rank,
        operators=operators,
        vacuum=vectors[:, 0].copy(),
        reconstruction_error=reconstruction_error,
        shift_residual=shift_residual,
        hermiticity_defects=defects,
    )


def _vacuum_values(model: GnsModel, degree: int) -> np.ndarray:
    """Expectation of each operator word against the vacuum, in
    ``words_up_to`` order, by the half-word split of the module docstring."""
    ops = np.stack(model.operators)
    left = _word_vectors(ops.conj().swapaxes(1, 2), model.vacuum, degree // 2, (1, 2, 0))
    right = _word_vectors(ops, model.vacuum, degree - degree // 2, (1, 0, 2))
    lefts = [block.conj().T for block in left]
    return np.concatenate([block.ravel() for block in half_products(lefts, right, degree)])


def _word_vectors(ops: np.ndarray, vector: np.ndarray, length: int, axes) -> list:
    """Blocks of ``ops_w vector`` for the words w of length 0..length.

    Each block is ``ops @ prev`` with its ``(letter, row, column)`` axes
    moved to ``axes`` and flattened: ``(1, 0, 2)`` puts the new letter
    first in each word, ``(1, 2, 0)`` last.
    """
    blocks = [vector[:, None]]
    for _ in range(length):
        step = (ops @ blocks[-1]).transpose(axes)
        blocks.append(step.reshape(len(vector), -1))
    return blocks


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
    index = theta.index
    gaps = [index.rotation_gaps(level, L).max() for L, level in index.levels(values)[2:]]
    return float(max(gaps, default=0.0))


def unitary_group(model: GnsModel, j: int, t: float) -> np.ndarray:
    """One-parameter unitary generated by operator j: exp(i t y_j).

    The generator must be Hermitian to 1e-8, and so must the data it was
    built from: a :func:`gns_build` operator equals its adjoint exactly, so
    its variable's ``hermiticity_defects`` entry is tested as well.  The
    exponential is formed spectrally, so the result is unitary to machine
    precision and the group law holds exactly in the exponents.  A t that
    is not finite is refused.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    check_integer(j, "variable index j")
    if not 1 <= j <= len(model.operators):
        raise ValueError(f"variable index {j} out of range 1..{len(model.operators)}")
    y = model.operators[j - 1]
    defect = float(np.max(np.abs(y - y.conj().T))) if y.size else 0.0
    # A hand-built model may list no data defects.
    defect = max([defect, *model.hermiticity_defects[j - 1 : j]])
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
        return asdict(self)


def norm_bound_check(model: GnsModel, theta: MomentSequence, R: float) -> NormBoundReport:
    """Check diagonal even moments against R**(2k) and report operator norms.

    The moment condition is the pass criterion.  Operator norms can exceed
    R slightly because of the truncated extension; the relative excess is
    reported as slack, not failed.  R must be positive and its even powers
    up to the sequence's degree finite (:func:`~nctrace.moments.check_radius`),
    and the sequence needs a diagonal even moment, so degree at least 2.
    """
    check_radius(R, 2 * (theta.max_degree // 2))
    if theta.max_degree < 2:
        raise ValueError(
            f"norm bound check needs moments of degree at least 2, have "
            f"{theta.max_degree}"
        )
    words = [
        (j,) * (2 * k) for j in range(1, theta.n + 1) for k in range(1, theta.max_degree // 2 + 1)
    ]
    excesses = [theta[word].real - R ** len(word) * (1 + 1e-9) for word in words]
    worst = int(np.argmax(excesses))  # the first maximum
    norms = [float(np.linalg.norm(y, 2)) if y.size else 0.0 for y in model.operators]
    slack = max(
        (max(0.0, norm - R) / max(R, 1e-300) for norm in norms), default=0.0
    )
    return NormBoundReport(
        passed=bool(excesses[worst] <= 0),
        radius=float(R),
        worst_moment_excess=float(excesses[worst]),
        worst_moment_word=words[worst],
        operator_norms=norms,
        operator_slack=float(slack),
    )
