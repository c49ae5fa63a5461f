"""Dense Hermitian semidefinite feasibility and linear minimization by projections.

The sets are the positive semidefinite cone and a constraint set of
Hermitian matrices (affine, or affine cut by a per-class magnitude box),
both with cheap exact projections: eigenvalue clamping for the cone, and
for the constraint set either a closed-form per-class correction or, for
caller-supplied equations, a cached pseudo-inverse.

Two constraint types share one interface (``dim``, ``consistent``, ``project``,
``distance``, ``residuals``, ``rhs``, ``len`` and ``start_scale``):

* :class:`ClassConstraints` labels every matrix entry with a class.  Its
  class-sum kind fixes the sum of the entries over each class (the Gram
  side of a square decomposition); its class-constant kind makes the
  entries constant on each class with one class pinned to 1, optionally
  bounding each class value's magnitude (the pseudo-moment side with its
  R^|w| box).  Classes partition the entries, so both projections are
  O(m^2) per-class means with no factorization.
* :class:`AffineConstraints` holds general real equations
  ``Re<A_k, G> = b_k`` with Hermitian coefficient matrices, projected
  through the pseudo-inverse of their dense system.

:func:`minimize_linear`, the one solver, minimizes a linear functional over
the intersection by a two-block ADMM between the two projections.  It stops
on primal and dual residuals or, on an affine set, on a separating matrix it
has checked itself: PSD, normal to the set, and pairing below zero with
every point of it.  :func:`feasibility_solve` is it with a zero objective.

Everything here is single-threaded and deterministic; independent solves
may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200_000
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
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    adjoint = M.conj().T
    defect = float(np.abs(M - adjoint).max()) if M.size else 0.0
    if not (defect <= tol):
        raise ValueError(f"matrix is not Hermitian: max asymmetry {defect:.3e}")
    return (M + adjoint) / 2


def _embed(M: np.ndarray) -> np.ndarray:
    """Matrix as a real vector; an exact isometry for the Frobenius norm,
    and Re<A, M> becomes the plain dot product of the embeddings."""
    return np.concatenate([M.real.ravel(), M.imag.ravel()])


def _unembed(v: np.ndarray, dim: int) -> np.ndarray:
    k = dim * dim
    return v[:k].reshape(dim, dim) + 1j * v[k:].reshape(dim, dim)


class ClassConstraints:
    """Affine set of Hermitian matrices read off one class label per entry.

    ``labels[i, j]`` in ``0..k-1`` names the class of entry (i, j); every
    class is nonempty.  Transposition must map each class onto a single
    partner class (possibly itself), which keeps both kinds closed under
    the adjoint.  Give exactly one of:

    * ``rhs`` (length k): the entries over class c sum to ``rhs[c]``.  A
      partner pair is one complex equation, so ``rhs`` must be conjugate
      across the pair, or the set is empty (``consistent`` is False).  A
      class that is its own partner has a real sum, and a non-real target
      there is rejected.  Projection subtracts ``(sum - rhs) / count`` from
      every entry of the class.
    * ``pinned``: the entries are constant on each class and class
      ``pinned`` equals 1.  Optional ``radii`` (length k) bound the
      magnitude of each class value, equal across a partner pair and at
      least 1 on the pinned class.  Projection replaces each entry by its
      class mean, clamps each mean's magnitude to its radius keeping its
      phase, then pins.  The set is a product of disks over the class
      values, weighted by the class counts, so this is the exact
      projection onto class-constant, bounded and pinned matrices.

    Classes partition the entries, so each projection is O(m^2) and exact.
    """

    def __init__(self, labels, rhs=None, pinned: int | None = None, radii=None):
        labels = np.asarray(labels)
        if labels.ndim != 2 or labels.shape[0] != labels.shape[1] or not labels.size:
            raise ValueError(
                f"labels must be a nonempty square array, got shape {labels.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got {labels.dtype}")
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
            k = len(rhs)
        else:
            k = int(labels.max()) + 1
        flat = labels.ravel()
        if flat.min() < 0 or flat.max() >= k:
            raise ValueError(f"labels must lie in 0..{k - 1}")
        counts = np.bincount(flat, minlength=k)
        if not counts.all():
            raise ValueError(f"class {int(np.argmin(counts))} is empty")
        first = np.unique(flat, return_index=True)[1]
        partner = labels.T.ravel()[first]
        if not np.array_equal(partner[labels], labels.T):
            raise ValueError("labels are not transpose-consistent")

        self.dim = labels.shape[0]
        self.labels = labels
        self._flat = flat
        self.counts = counts
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
            self._rhs = np.where(closed, rhs.real, rhs)
            self.defect = float(np.abs(self._rhs[partner] - self._rhs.conj()).max())
            # Identity multiple matching the class sums in least squares;
            # only classes of diagonal entries see the identity.
            on_diag = np.bincount(np.diag(labels), minlength=k).astype(float)
            denom = float(np.dot(on_diag, on_diag))
            self.start_scale = (
                float(np.dot(on_diag, self._rhs.real) / denom) if denom > 1e-30 else 0.0
            )
        else:
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
            on_diag = np.eye(self.dim).ravel()
            ties = float(np.sum((on_diag[first][flat] - on_diag) ** 2))
            self.start_scale = 1.0 / (1.0 + ties)

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def rhs(self) -> np.ndarray:
        """Class sums, or the single pinned value of the class-constant kind."""
        return self._rhs.copy()

    @property
    def consistent(self) -> bool:
        return self.defect <= CONSISTENCY_TOL

    def _class_sums(self, G: np.ndarray) -> np.ndarray:
        G = np.asarray(G)
        k = len(self.counts)
        real = np.bincount(self._flat, G.real.ravel(), k)
        return real + 1j * np.bincount(self._flat, G.imag.ravel(), k)

    def class_means(self, G: np.ndarray) -> np.ndarray:
        """Mean of G's entries over each class, summed in row-major order."""
        return self._class_sums(G) / self.counts

    def project(self, G: np.ndarray) -> np.ndarray:
        """Frobenius-nearest point of the set; Hermitian if G is, to rounding."""
        if self.pinned is None:
            return G - ((self._class_sums(G) - self._rhs) / self.counts)[self.labels]
        means = self.class_means(G)
        if self.radii is not None:
            mags = np.abs(means)
            means *= np.divide(
                self.radii, mags, out=np.ones_like(mags), where=mags > self.radii
            )
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


class AffineConstraints:
    """Equations ``Re<A_k, G> = b_k`` over Hermitian G, A_k Hermitian.

    Duplicate or linearly dependent rows are allowed; they are detected when
    the constraint system is first used and surfaced via ``n_redundant``.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self._matrices: list[np.ndarray] = []
        self._rhs: list[float] = []
        self._prepared: _Prepared | None = None

    def add(self, A: np.ndarray, b: float) -> None:
        A = _check_hermitian(A)
        if A.shape != (self.dim, self.dim):
            raise ValueError(
                f"constraint matrix shape {A.shape} does not match dim {self.dim}"
            )
        self._matrices.append(A)
        self._rhs.append(float(b))
        self._prepared = None

    def __len__(self) -> int:
        return len(self._matrices)

    @property
    def matrices(self) -> list[np.ndarray]:
        return list(self._matrices)

    @property
    def rhs(self) -> np.ndarray:
        return np.array(self._rhs)

    @property
    def rank(self) -> int:
        return self._prepare().rank

    @property
    def n_redundant(self) -> int:
        """Number of linearly dependent rows among the constraints."""
        return len(self) - self._prepare().rank

    @property
    def defect(self) -> float:
        """Least-squares residual of the equations; zero when solvable."""
        return self._prepare().lstsq_residual

    @property
    def consistent(self) -> bool:
        return self._prepare().consistent

    @property
    def start_scale(self) -> float:
        """Identity multiple matching the pure-trace part of the equations."""
        traces = np.array([float(np.trace(A).real) for A in self._matrices])
        denom = float(np.sum(traces**2))
        return float(np.dot(traces, self.rhs) / denom) if denom > 1e-30 else 0.0

    def _prepare(self) -> "_Prepared":
        if self._prepared is None:
            self._prepared = _Prepared(self)
        return self._prepared

    def project(self, G: np.ndarray) -> np.ndarray:
        return _unembed(self._prepare().project_vec(_embed(G)), self.dim)

    def distance(self, G: np.ndarray) -> float:
        prep = self._prepare()
        if prep.C.shape[0] == 0:
            return 0.0
        v = _embed(G)
        return float(np.linalg.norm(prep.project_vec(v) - v))

    def residuals(self, G: np.ndarray) -> np.ndarray:
        """Signed violation of each equation at G."""
        if not self._matrices:
            return np.zeros(0)
        prep = self._prepare()
        return prep.C @ _embed(np.asarray(G, dtype=complex)) - prep.b


class _Prepared:
    """Vectorized constraint system with a cached pseudo-inverse."""

    def __init__(self, constraints: AffineConstraints):
        dim = constraints.dim
        k = len(constraints)
        self.dim = dim
        self.b = constraints.rhs
        if k == 0:
            self.C = np.zeros((0, 2 * dim * dim))
            self.pinv = np.zeros((2 * dim * dim, 0))
            self.rank = 0
            self.consistent = True
            self.lstsq_residual = 0.0
            return
        self.C = np.stack([_embed(A) for A in constraints.matrices])
        u, s, vt = np.linalg.svd(self.C, full_matrices=False)
        cutoff = max(s[0], 1.0) * 1e-12 if s.size else 0.0
        keep = s > cutoff
        self.rank = int(np.count_nonzero(keep))
        s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        self.pinv = (vt.T * s_inv) @ u.T
        # Min-norm solution residual reveals mutually contradictory equations.
        nearest = self.C @ (self.pinv @ self.b)
        self.lstsq_residual = float(np.linalg.norm(nearest - self.b))
        self.consistent = self.lstsq_residual <= CONSISTENCY_TOL

    def project_vec(self, v: np.ndarray) -> np.ndarray:
        if self.C.shape[0] == 0:
            return v
        return v - self.pinv @ (self.C @ v - self.b)


Constraints = ClassConstraints | AffineConstraints


def _require_consistent(constraints: Constraints) -> None:
    if not constraints.consistent:
        raise InconsistentConstraints(
            "constraints are structurally infeasible: residual "
            f"{constraints.defect:.3e} exceeds {CONSISTENCY_TOL:.0e}"
        )


def project_psd(H: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix, exactly Hermitian."""
    H = _check_hermitian(H)
    eigvals, eigvecs = np.linalg.eigh(H)
    out = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.conj().T
    return (out + out.conj().T) / 2


def project_affine(G: np.ndarray, constraints: Constraints) -> np.ndarray:
    """Frobenius-nearest Hermitian matrix satisfying the equations."""
    G = _check_hermitian(G)
    _require_consistent(constraints)
    out = constraints.project(G)
    return (out + out.conj().T) / 2


@dataclass
class SolveReport:
    """Why a solve stopped, its point and objective value, its final primal
    (``gap``) and dual residuals, and the ``separator`` proving infeasibility."""

    status: str  # "feasible" | "infeasible-at-tolerance" | "max-iterations"
    iterations: int
    solution: np.ndarray = field(repr=False)
    value: float
    gap: float
    dual: float
    separator: np.ndarray | None = field(default=None, repr=False)

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def feasibility_solve(
    constraints: Constraints,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    anchor=None,
) -> SolveReport:
    """Find a PSD matrix on the affine set, or a matrix proving there is none.

    :func:`minimize_linear` with a zero objective (Douglas-Rachford
    splitting).  A box (``radii``) is refused: the separator test needs an
    affine set.
    """
    if getattr(constraints, "radii", None) is not None:
        raise ValueError("feasibility_solve needs an affine set; radii make a box")
    dim = constraints.dim
    return minimize_linear(np.zeros((dim, dim)), constraints, tol, max_iter, anchor)


def minimize_linear(
    objective: np.ndarray,
    constraints: Constraints,
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

    Both projections return Hermitian matrices, so u stays Hermitian.  It is
    "feasible" once the primal residual ``||x - z'||`` and the dual residual
    ``rho * ||z' - z||`` are both at most ``tol`` (SCS's rule, O'Donoghue et
    al., JOTA 2016).  Every 20 iterations rho (initially ``max(||c||, 1)``)
    doubles when the primal residual exceeds ten times the dual one and
    halves in the opposite case, with u rescaled to match.

    On an affine set (no ``radii``) every 10 iterations it tests
    Y = z - P_A(z), which is normal to the set, so Re<Y, G> = Re<Y, x> for
    every G on it, whatever c is (Banjac et al., JOTA 2019).  A Y with least
    eigenvalue low < 0 gets ``-low / delta`` times A added, A being the
    normal part of ``anchor()`` (a zero-argument callable, called once;
    default the identity) with least eigenvalue delta, if delta > 0.  If Y
    is then PSD and ``Re<Y, x> < -tol ||Y||``, no PSD G is on the set:
    "infeasible-at-tolerance", with ``separator`` Y.

    The report's x lies on the constraint set (to rounding) and is PSD to
    within the primal residual; at ``max_iter`` it may be further off.
    """
    if not (0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    c = _check_hermitian(objective)
    dim = constraints.dim
    if c.shape != (dim, dim):
        raise ValueError(f"objective shape {c.shape} does not match dim {dim}")
    _require_consistent(constraints)
    affine = getattr(constraints, "radii", None) is None

    # rho = ||c|| makes the objective shift c / rho of unit size.  The start
    # is the identity scaled to the equations' pure-trace part, on the set.
    rho = max(float(np.linalg.norm(c)), 1.0)
    start = constraints.start_scale * np.eye(dim, dtype=complex)
    x = z = project_affine(start, constraints)
    u = np.zeros_like(z)
    normal = separator = None
    primal = dual = float("inf")
    status = "max-iterations"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x = project_affine(z - u - c / rho, constraints)
        z_next = project_psd(x + u)
        primal = float(np.linalg.norm(x - z_next))
        dual = rho * float(np.linalg.norm(z_next - z))
        u = u + x - z_next
        z = z_next
        if primal <= tol and dual <= tol:
            status = "feasible"
            break
        if iterations % 20 == 0:
            if primal > 10 * dual:
                rho, u = 2 * rho, u / 2
            elif dual > 10 * primal:
                rho, u = rho / 2, 2 * u
        if not affine or iterations % 10:
            continue
        Y = z - project_affine(z, constraints)
        low = float(np.linalg.eigvalsh(Y)[0])
        if low < 0:
            if normal is None:
                A = _check_hermitian(np.eye(dim) if anchor is None else anchor())
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
    return SolveReport(status, iterations, x, value, primal, dual, separator)
