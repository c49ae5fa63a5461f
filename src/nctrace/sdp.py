"""Dense Hermitian semidefinite feasibility and linear minimization by projections.

The sets are the positive semidefinite cone and a constraint set of
Hermitian matrices (affine, or affine cut by a per-class magnitude box),
both with cheap exact projections: eigenvalue clamping for the cone, and a
closed-form per-class correction for the constraint set.

The one constraint type, :class:`ClassConstraints`, labels every matrix
entry with a class.  Its class-sum kind fixes the sum of the entries over
each class (the Gram side of a square decomposition); its class-constant
kind makes the entries constant on each class with one class pinned to 1,
optionally bounding each class value's magnitude (the pseudo-moment side
with its R^|w| box).  Classes partition the entries, so both projections
are O(m^2) per-class means with no factorization.

The solver reads eight attributes of a constraint set, and any object that
has them solves the same way:

* ``dim``: the matrix size;
* ``dtype``: float when every target is real, else complex;
* ``consistent`` and ``defect``: whether the set is nonempty as equations,
  and the residual that the refusal of an inconsistent set reports;
* ``project(G)``: the Frobenius-nearest point of the set;
* ``residuals(G)``: the violations that the "feasible" recheck measures,
  read only on an affine set;
* ``start_scale``: the identity multiple the loop starts from;
* ``radii``: None on an affine set, else the box that makes the set
  non-affine.

``len`` of a set is read only by the benchmark's ``sdp.affine_rows``
counter.

A solve runs in the dtype of its objective and its set: on real symmetric
matrices when both are real.  Complex conjugation then maps each feasible
point onto another with the same objective value, so the real part of a
point is one too, and the real problem has the complex one's optimum and
feasibility (Gatermann and Parrilo, J. Pure Appl. Algebra 2004).  Any
complex objective entry or target keeps the whole solve complex.

:func:`minimize_linear`, the one solver, minimizes a linear functional over
the intersection by a two-block ADMM between the two projections.  It stops
on primal and dual residuals or, on an affine set, on a separating matrix it
has checked itself: PSD, normal to the set, and pairing below zero with
every point of it.  :func:`feasibility_solve` is it with a zero objective;
both run the same private loop, which checks its inputs once, at entry, and
then calls the projections' unchecked kernels.  Each kernel ends by
averaging its result with its adjoint, so the iterates are exactly
Hermitian and the checks the public :func:`project_psd` and
:func:`project_affine` make would return them unchanged: the kernels
reproduce the checked projections' iterates.

The loop is Anderson-accelerated after its first 20 iterations (Zhang,
O'Donoghue and Boyd, SIAM J. Optim. 2020): it extrapolates the ADMM step
from its last few steps, keeping an extrapolated state only when the step
from it has a smaller fixed-point residual than the plain step it replaced.
The witness box always holds the vacuum sequence (1 at the empty word, 0
elsewhere), so its ADMM map has a fixed point.  An affine (Gram) set may be
empty, and its map then has none; the loop still cannot end "feasible"
there (the argument is in ``_admm``), and its separator test reads only the
plain steps.

Everything here is single-threaded and deterministic; independent solves
may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import check_integer

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200_000
# Anderson acceleration of the ADMM loop: the number of past steps combined
# with the newest, and the iteration after which they are recorded (the
# first rho check), so solves decided by then are unchanged.
ANDERSON_MEMORY = 5
ANDERSON_START = 20
HERMITIAN_TOL = 1e-10
CONSISTENCY_TOL = 1e-8
RHS_IMAG_TOL = 1e-10


class InconsistentConstraints(ValueError):
    """The affine equations admit no solution: structurally infeasible."""


class NoFeasiblePoint(RuntimeError):
    """No point of the feasible set could be produced.

    Raised by the witness search when the solver stops outside the PSD
    cone and its strictly feasible anchor is not positive definite, when
    an extracted witness fails its structural re-check, and when a
    certificate's recomputed residual fails its gate.
    """


def _check_hermitian(M: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """M's Hermitian part, once M is Hermitian to ``tol``; real if M is."""
    M = np.asarray(M)
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    adjoint = M.conj().T
    defect = float(np.abs(M - adjoint).max()) if M.size else 0.0
    if not (defect <= tol):
        raise ValueError(f"matrix is not Hermitian: max asymmetry {defect:.3e}")
    return (M + adjoint) / 2


@dataclass(frozen=True)
class ClassLabels:
    """Labels checked once by :meth:`of`, with what only that check finds:
    each class's transpose ``partner`` and the ``ties`` of the start scale.
    Each ``cyclic_classes`` cell keeps one; :class:`ClassConstraints` forms
    its class counts and entry bins from ``labels`` per set.  ``partner``
    is read-only."""

    labels: np.ndarray
    partner: np.ndarray  # the class that transposition maps each class onto
    ties: float

    @classmethod
    def of(cls, labels, k: int | None = None) -> "ClassLabels":
        """Check an integer label array over the classes 0..k-1 (without k,
        0 to its largest label)."""
        labels = np.asarray(labels)
        if labels.ndim != 2 or labels.shape[0] != labels.shape[1] or not labels.size:
            raise ValueError(
                f"labels must be a nonempty square array, got shape {labels.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got {labels.dtype}")
        flat = labels.ravel()
        k = int(flat.max()) + 1 if k is None else k
        if flat.min() < 0 or flat.max() >= k:
            raise ValueError(f"labels must lie in 0..{k - 1}")
        counts = np.bincount(flat, minlength=k)
        if not counts.all():
            raise ValueError(f"class {int(np.argmin(counts))} is empty")
        first = np.unique(flat, return_index=True)[1]
        partner = labels.T.ravel()[first]
        if not np.array_equal(partner[labels], labels.T):
            raise ValueError("labels are not transpose-consistent")
        partner.flags.writeable = False
        eye = np.eye(len(labels)).ravel()
        return cls(labels, partner, ties=float(np.sum((eye[first][flat] - eye) ** 2)))


class ClassConstraints:
    """Affine set of Hermitian matrices read off one class label per entry.

    ``labels[i, j]`` in ``0..k-1`` names the class of entry (i, j); every
    class is nonempty.  Transposition must map each class onto a single
    partner class (possibly itself), which keeps both kinds closed under
    the adjoint.  ``labels`` is an integer array, checked on every call, or
    :class:`ClassLabels`, checked once; either way the set forms its class
    counts and entry bins from the labels.  Give exactly one of:

    * ``rhs`` (length k): the entries over class c sum to ``rhs[c]``.  A
      partner pair is one complex equation, so ``rhs`` must be conjugate
      across the pair to within ``CONSISTENCY_TOL``, or the set is empty
      (``consistent`` is False).  A consistent pair is solved with the
      earlier class's target and its conjugate, which ``rhs`` then holds.
      A class that is its own partner has a real sum, and a non-real
      target there is rejected.  When every target so paired is real,
      ``rhs`` and ``dtype`` are real.  Projection subtracts ``(sum - rhs) /
      count`` from every entry of the class.
    * ``pinned``: the entries are constant on each class and class
      ``pinned`` equals 1.  Optional ``radii`` (length k) bound the
      magnitude of each class value, equal across a partner pair and at
      least 1 on the pinned class.  Projection replaces each entry by its
      class mean, clamps each mean's magnitude to its radius keeping its
      phase (:meth:`clamp`), then pins.  The set is a product of disks over
      the class values, weighted by the class counts, so this is the exact
      projection onto class-constant, bounded and pinned matrices.  Its
      ``dtype`` is real.

    Classes partition the entries, so each projection is O(m^2) and exact,
    and keeps a real G real.
    """

    def __init__(self, labels, rhs=None, pinned: int | None = None, radii=None):
        if (rhs is None) == (pinned is None):
            raise ValueError(
                "give exactly one of rhs (class sums) or pinned (class constants)"
            )
        if radii is not None and rhs is not None:
            raise ValueError("radii bound class values; they need pinned, not rhs")
        if rhs is not None:
            rhs = np.asarray(rhs, dtype=complex)
            if rhs.ndim != 1:
                raise ValueError(f"rhs must be a vector, got shape {rhs.shape}")
        if not isinstance(labels, ClassLabels):
            labels = ClassLabels.of(labels, None if rhs is None else len(rhs))
        k, partner = len(labels.partner), labels.partner
        if rhs is not None and len(rhs) != k:
            raise ValueError(f"{len(rhs)} class sums for {k} classes")

        self.dim = len(labels.labels)
        self.labels = labels.labels
        self.counts = np.bincount(self.labels.ravel(), minlength=k)
        self.pinned = pinned
        self.radii = None
        if rhs is not None:
            if not np.all(np.isfinite(rhs)):
                raise ValueError("class sums must be finite")
            closed = partner == np.arange(k)
            imag = np.abs(rhs.imag[closed])
            if imag.size and not (imag.max() <= RHS_IMAG_TOL):
                c = int(np.flatnonzero(closed)[np.argmax(imag)])
                raise ValueError(
                    f"class {c} is its own transpose but its sum {rhs[c]} is not real"
                )
            rhs = np.where(closed, rhs.real, rhs)
            self.defect = float(np.abs(rhs[partner] - rhs.conj()).max())
            # A class and its transpose carry one complex equation: the
            # earlier of the two sets both targets.
            self._rhs = np.where(np.arange(k) <= partner, rhs, rhs[partner].conj())
            if not self._rhs.imag.any():
                self._rhs = self._rhs.real.copy()
            # Identity multiple matching the class sums in least squares;
            # only classes of diagonal entries see the identity.
            on_diag = np.bincount(np.diag(self.labels), minlength=k).astype(float)
            denom = float(np.dot(on_diag, on_diag))
            self.start_scale = (
                float(np.dot(on_diag, self._rhs.real) / denom) if denom > 1e-30 else 0.0
            )
        else:
            check_integer(pinned, "pinned class")
            if not 0 <= pinned < k:
                raise ValueError(f"pinned class {pinned} outside 0..{k - 1}")
            if radii is not None:
                radii = np.asarray(radii, dtype=float)
                if radii.shape != (k,):
                    raise ValueError(
                        f"radii must have one entry per class ({k}), got shape "
                        f"{radii.shape}"
                    )
                if not np.all(radii >= 0):
                    raise ValueError("radii must be nonnegative numbers")
                if not np.array_equal(radii[partner], radii):
                    raise ValueError("radii differ across a transposed class pair")
                if not (radii[pinned] >= 1):
                    raise ValueError(
                        f"pinned class radius {radii[pinned]} is below its value 1"
                    )
                self.radii = radii
            self._rhs = np.ones(1)
            self.defect = 0.0
            # Identity multiple matching, in least squares, the pin and the
            # equations ``G_ref = G_pos`` tying each entry of a class to the
            # class's first entry; the identity only sees those that tie a
            # diagonal entry to an off-diagonal one.
            self.start_scale = 1.0 / (1.0 + labels.ties)

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def rhs(self) -> np.ndarray:
        """Class sums, or the single pinned value of the class-constant kind."""
        return self._rhs.copy()

    @property
    def dtype(self) -> type:
        return self._rhs.dtype.type

    @property
    def consistent(self) -> bool:
        return self.defect <= CONSISTENCY_TOL

    @cached_property
    def _parts(self) -> np.ndarray:
        return (2 * self.labels.ravel()[:, None] + np.arange(2)).ravel()

    def _class_sums(self, G: np.ndarray) -> np.ndarray:
        # A real G is one bincount.  A complex one is one pass over its
        # float64 view, real part of class c into bin 2c and imaginary part
        # into 2c + 1: each bin adds its entries in row-major order, as a
        # bincount per part would.
        if not np.iscomplexobj(G):
            return np.bincount(self.labels.ravel(), G.ravel(), len(self.counts))
        parts = np.ascontiguousarray(G, dtype=complex).view(float).ravel()
        return np.bincount(self._parts, parts, 2 * len(self.counts)).view(complex)

    def class_means(self, G: np.ndarray) -> np.ndarray:
        """Mean of G's entries over each class, summed in row-major order."""
        return self._class_sums(G) / self.counts

    def clamp(self, values: np.ndarray) -> np.ndarray:
        """Scale each class value whose magnitude exceeds its radius onto the
        radius, keeping its phase (a real value is clipped).  Works in place
        on ``values`` and returns it; without radii nothing moves."""
        if self.radii is not None and not np.iscomplexobj(values):
            np.clip(values, -self.radii, self.radii, out=values)
        elif self.radii is not None:
            mags = np.abs(values)
            values *= np.divide(
                self.radii, mags, out=np.ones_like(mags), where=mags > self.radii
            )
        return values

    def project(self, G: np.ndarray) -> np.ndarray:
        """Frobenius-nearest point of the set; Hermitian if G is, to rounding."""
        if self.pinned is None:
            return G - ((self._class_sums(G) - self._rhs) / self.counts)[self.labels]
        means = self.clamp(self.class_means(G))
        means[self.pinned] = 1.0
        return means[self.labels]

    def distance(self, G: np.ndarray) -> float:
        return float(np.linalg.norm(self.project(G) - G))

    def residuals(self, G: np.ndarray) -> np.ndarray:
        """Complex violations: each class sum minus its target, or each
        entry minus its (pinned, clamped) class value."""
        if self.pinned is None:
            return self._class_sums(G) - self._rhs
        return (G - self.project(G)).ravel()


def _require_consistent(constraints: ClassConstraints) -> None:
    if not constraints.consistent:
        raise InconsistentConstraints(
            "constraints are structurally infeasible: residual "
            f"{constraints.defect:.3e} exceeds {CONSISTENCY_TOL:.0e}"
        )


def _psd_kernel(H: np.ndarray) -> np.ndarray:
    """:func:`project_psd` of an exactly Hermitian complex H, unchecked."""
    eigvals, eigvecs = np.linalg.eigh(H)
    out = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.conj().T
    return (out + out.conj().T) / 2


def _affine_kernel(G: np.ndarray, constraints: ClassConstraints) -> np.ndarray:
    """:func:`project_affine` of an exactly Hermitian complex G onto
    consistent constraints, unchecked."""
    out = constraints.project(G)
    return (out + out.conj().T) / 2


def project_psd(H: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix, exactly Hermitian."""
    return _psd_kernel(_check_hermitian(H))


def project_affine(G: np.ndarray, constraints: ClassConstraints) -> np.ndarray:
    """Frobenius-nearest Hermitian matrix satisfying the equations."""
    G = _check_hermitian(G)
    _require_consistent(constraints)
    return _affine_kernel(G, constraints)


@dataclass
class SolveReport:
    """Why a solve stopped, its point and objective value, its final primal
    (``gap``) and dual residuals, the ``separator`` proving infeasibility,
    and how many Anderson extrapolations the safeguard kept and rejected
    (both 0 on solves decided within 20 iterations)."""

    status: str  # "feasible" | "infeasible-at-tolerance" | "max-iterations"
    iterations: int
    solution: np.ndarray = field(repr=False)
    value: float
    gap: float
    dual: float
    separator: np.ndarray | None = field(default=None, repr=False)
    anderson_accepted: int = 0
    anderson_rejected: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def feasibility_solve(
    constraints: ClassConstraints,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    anchor=None,
) -> SolveReport:
    """Find a PSD matrix on the affine set, or a matrix proving there is none.

    :func:`minimize_linear` with a zero objective (Douglas-Rachford
    splitting), run by the same loop.  A box (``radii``) is refused: the
    separator test needs an affine set.
    """
    if constraints.radii is not None:
        raise ValueError("feasibility_solve needs an affine set; radii make a box")
    dim = constraints.dim
    return _admm(np.zeros((dim, dim)), constraints, tol, max_iter, anchor)


def minimize_linear(
    objective: np.ndarray,
    constraints: ClassConstraints,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10_000,
    anchor=None,
) -> SolveReport:
    """Minimize ``Re<objective, G>`` over PSD ∩ the constraint set.

    Two-block scaled ADMM (Wen, Goldfarb and Yin, Math. Prog. Comp. 2010)
    splitting the problem into the constraint set, which carries the linear
    objective c, and the PSD cone.  Each iteration makes one exact
    projection onto each set::

        x  = project_affine(z - u - c / rho)
        z' = project_psd(x + u)
        u += x - z'

    It is "feasible" once the primal residual ``||x - z'||`` and the dual
    residual ``rho * ||z' - z||`` are both at most ``tol`` (SCS's rule,
    O'Donoghue et al., JOTA 2016) and, on an affine set, x meets the
    equations to within ``tol`` by itself (``constraints.residuals``).
    Every 20 iterations rho (initially ``max(||c||, 1)``) doubles when the
    primal residual exceeds ten times the dual one and halves in the
    opposite case, with u rescaled to match.

    The inputs are checked once, before the first iteration: ``tol``, the
    objective (square, of the constraints' size, finite and Hermitian; it
    is used as :func:`_check_hermitian` returns it) and the constraints'
    consistency.  The loop runs real when the objective and
    ``constraints.dtype`` are both real, and complex otherwise.  The
    iterations then call the projections' unchecked kernels.  Both kernels
    end by averaging their result with its adjoint, so x and z leave them
    exactly Hermitian; u is sums and differences of them, halved or
    doubled, and so are z - u - c / rho and x + u.  On such a matrix the checked projections' :func:`_check_hermitian`
    returns its input's values unchanged, so the iterates are those of the
    checked projections.

    On an affine set (no ``radii``) every 10 iterations it tests
    Y = z - P_A(z), z being the plain step's state, which is normal to the
    set, so Re<Y, G> = Re<Y, x> for every G on it, whatever c is (Banjac et
    al., JOTA 2019).  A Y with least eigenvalue low < 0 gets
    ``-low / delta`` times A added, A being the normal part of ``anchor()``
    (a zero-argument callable, called once; default the identity; a real
    loop takes its real part, PSD when it is) with least eigenvalue delta,
    if delta > 0.  If Y is then PSD and
    ``Re<Y, x> < -tol ||Y||``, no PSD G is on the set:
    "infeasible-at-tolerance", with ``separator`` Y.

    An Anderson history records each step from iteration 21 on.  While it
    holds two steps or more, the next state is the type-II Anderson
    extrapolation (memory ``ANDERSON_MEMORY``) of the recorded steps: the
    combination of the last steps (z', u') with real weights summing to 1
    that minimizes the combined fixed-point residual (z' - z, u' - u), taken
    over the float64 view of the state; real weights keep z and u exactly
    Hermitian.  The next iteration accepts or rejects it in one step: if its
    fixed-point residual is not below that of the plain step it replaced,
    the loop returns to that plain step and clears the history.  A step
    whose x meets the residual test but fails the recheck is taken
    unrecorded and clears the history, as does a change of rho.  Every
    iteration counts toward ``max_iter`` and is tested by the stopping rule;
    the report counts kept and rejected extrapolations.  A solve decided
    within 20 iterations takes the plain loop's iterates bit for bit.

    The report's x lies on the constraint set (to rounding) and is PSD to
    within the primal residual; at ``max_iter`` it may be further off.
    """
    return _admm(objective, constraints, tol, max_iter, anchor)


def _admm(objective, constraints: ClassConstraints, tol: float, max_iter: int, anchor):
    """The loop of :func:`minimize_linear` and :func:`feasibility_solve`.

    Why an empty affine set cannot end "feasible", accelerated or not: its
    ADMM map T has no fixed point, and the fixed-point residual
    ``||T(w) - w||`` of every state w, plain or extrapolated, is at least
    the norm of the map's minimal displacement vector v != 0 (Banjac et al.,
    JOTA 2019).  A step that passes the residual test has that residual at
    most ``hypot(tol, tol / rho)``, so in exact arithmetic only a set within
    about ``tol`` of the cone can stop there, as in the plain loop.  What is
    left is rounding at a diverging multiplier: at ``||u||`` near 1e18,
    ``z - u`` loses z and the rhs, and x and z' can round to the same
    matrix with x off the set.  The recheck of x, which reads x alone,
    refuses that stop.  Extrapolation only chooses which states are stepped
    from; the separator test reads the plain step's state.  The one Anderson
    history is made before the first iteration.
    """
    if not (0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    check_integer(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    c = _check_hermitian(objective)
    dim = constraints.dim
    if c.shape != (dim, dim):
        raise ValueError(f"objective shape {c.shape} does not match dim {dim}")
    _require_consistent(constraints)
    affine = constraints.radii is None
    dtype = np.result_type(c, constraints.dtype)
    c = c.astype(dtype, copy=False)

    # rho = ||c|| makes the objective shift c / rho of unit size.  The start
    # is the identity scaled to the equations' pure-trace part, on the set.
    rho = max(float(np.linalg.norm(c)), 1.0)
    shift = c / rho
    start = constraints.start_scale * np.eye(dim, dtype=dtype)
    x = z = _affine_kernel(start, constraints)
    u = np.zeros_like(z)
    normal = separator = None
    primal = dual = float("inf")
    status = "max-iterations"
    iterations = accepted = rejected = 0
    history = _Anderson()
    # The plain step (z, u, fixed-point residual) that the extrapolated state
    # being evaluated replaced.
    fallback = None
    for iterations in range(1, max_iter + 1):
        x = _affine_kernel(z - u - shift, constraints)
        z_next = _psd_kernel(x + u)
        step_u = x - z_next
        step_z = z_next - z
        primal = float(np.linalg.norm(step_u))
        moved = float(np.linalg.norm(step_z))
        dual = rho * moved
        u_next = u + x - z_next
        met = primal <= tol and dual <= tol
        if met and (not affine or np.linalg.norm(constraints.residuals(x)) <= tol):
            status = "feasible"
            break
        residual = math.hypot(primal, moved)
        if fallback is not None and not residual < fallback[2]:
            z, u = fallback[:2]
            rejected += 1
            history.clear()
        else:
            accepted += fallback is not None
            z, u = z_next, u_next
            if met:
                # x failed its recheck: the step only rounds, and its
                # residual may be 0, which K must not hold.
                history.clear()
            elif iterations > ANDERSON_START:
                history.push(z, u, step_z, step_u)
        fallback = None
        if iterations % 20 == 0:
            scale = 2.0 if primal > 10 * dual else 0.5 if dual > 10 * primal else 1.0
            if scale != 1.0:
                rho, u = scale * rho, u / scale
                shift = c / rho
                history.clear()
        plain = z
        if history.count > 1:
            fallback = z, u, residual
            z, u = history.extrapolate()
        if not affine or iterations % 10:
            continue
        Y = plain - _affine_kernel(plain, constraints)
        low = float(np.linalg.eigvalsh(Y)[0])
        if low < 0:
            if normal is None:
                A = _check_hermitian(np.eye(dim) if anchor is None else anchor())
                A = (A if dtype == complex else A.real).astype(dtype)
                A += project_affine(0 * A, constraints) - project_affine(A, constraints)
                normal = A, float(np.linalg.eigvalsh(A)[0])
            A, delta = normal
            if not delta > 0:
                continue
            Y = Y - (low / delta) * A
        if np.real(np.vdot(Y, x)) < -tol * np.linalg.norm(Y) and (
            low >= 0 or np.linalg.eigvalsh(Y)[0] >= 0
        ):
            status, separator = "infeasible-at-tolerance", Y
            break

    value = float(np.real(np.vdot(c, x)))
    return SolveReport(
        status, iterations, x, value, primal, dual, separator, accepted, rejected
    )


class _Anderson:
    """Type-II Anderson extrapolation of the ADMM map T: (z, u) -> (z', u').

    Ring buffers, in the loop's dtype, hold the last ``ANDERSON_MEMORY + 1``
    values T(w_i) and residuals g_i = T(w_i) - w_i, and the Gram matrix K of
    the residuals' float64 views; they are allocated at the first push, so
    a solve that records no step holds none of them.  The extrapolation is
    sum_i a_i T(w_i) with the real weights a = K^-1 1 / (1^T K^-1 1): the
    weights summing to 1 that minimize ||sum_i a_i g_i||.  Each diagonal
    entry of K is raised by a relative 1e-10, a ridge that keeps K positive
    definite (no residual is zero: only steps that fail the stopping test
    are recorded), so the solve cannot fail.  The weighted sum may round
    entries (j, k) and (k, j) differently, so it is averaged with its
    adjoint, which leaves z and u exactly Hermitian.
    """

    def __init__(self):
        self.steps = None
        self.count = 0

    def clear(self) -> None:
        self.count = 0

    def push(self, z, u, step_z, step_u) -> None:
        slots = ANDERSON_MEMORY + 1
        if self.steps is None:
            self.steps = np.zeros((slots, 2, *z.shape), dtype=z.dtype)
            self.residuals = np.zeros_like(self.steps)
            self._steps = self.steps.reshape(slots, -1).view(float)
            self._residuals = self.residuals.reshape(slots, -1).view(float)
            self._gram = np.zeros((slots, slots))
            self._ones = np.ones(slots)
        slot = self.count % slots
        self.steps[slot, 0] = z
        self.steps[slot, 1] = u
        self.residuals[slot, 0] = step_z
        self.residuals[slot, 1] = step_u
        self.count += 1
        k = min(self.count, slots)
        row = self._residuals[:k] @ self._residuals[slot]
        row[slot] *= 1 + 1e-10
        self._gram[slot, :k] = row
        self._gram[:k, slot] = row

    def extrapolate(self) -> tuple[np.ndarray, np.ndarray]:
        k = min(self.count, len(self.steps))
        weights = np.linalg.solve(self._gram[:k, :k], self._ones[:k])
        state = (weights @ self._steps[:k]).view(self.steps.dtype).reshape(self.steps.shape[1:])
        state = (state + state.conj().transpose(0, 2, 1)) * (0.5 / weights.sum())
        return state[0], state[1]
