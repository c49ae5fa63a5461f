import dataclasses

import numpy as np
import pytest

from nctrace.algebra import NCPoly
from nctrace.certify import build_gram_problem
from nctrace.sdp import (
    AffineConstraints,
    ClassConstraints,
    InconsistentConstraints,
    _check_hermitian,
    feasibility_solve,
    minimize_linear,
    project_affine,
    project_psd,
)

from helpers import (
    commutator_square_poly,
    dense_gram_constraints,
    dense_witness_constraints,
    make_rng,
    random_hermitian,
    random_poly,
    reference_class_labels,
    reference_class_positions,
)


def test_project_psd_clamps_spectrum():
    out = project_psd(np.diag([3.0, -1.0]))
    assert np.allclose(out, np.diag([3.0, 0.0]))
    assert np.allclose(project_psd(np.zeros((3, 3))), 0.0)


def test_project_psd_fixes_psd_inputs():
    rng = make_rng(40)
    for _ in range(10):
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        G = b @ b.conj().T
        assert np.max(np.abs(project_psd(G) - G)) < 1e-12


def test_project_psd_rejects_non_hermitian():
    with pytest.raises(ValueError):
        project_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_project_psd_idempotent_and_nonexpansive():
    rng = make_rng(41)
    for _ in range(20):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        pa, pb = project_psd(a), project_psd(b)
        assert np.linalg.norm(project_psd(pa) - pa) < 1e-12
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_project_psd_is_exactly_hermitian():
    # Both projections return Hermitian matrices bit for bit, so the solver's
    # multiplier u = u + x - z stays Hermitian at any scale.
    rng = make_rng(45)
    for size in (1, 4, 9, 30):
        out = project_psd(1e6 * random_hermitian(rng, size))
        assert np.array_equal(out, out.conj().T)


def _unit_entry_constraints():
    cons = AffineConstraints(2)
    A = np.zeros((2, 2))
    A[0, 0] = 1.0
    cons.add(A, 1.0)
    return cons


def test_project_affine_single_entry():
    cons = _unit_entry_constraints()
    out = project_affine(np.zeros((2, 2)), cons)
    assert np.allclose(out, [[1.0, 0.0], [0.0, 0.0]])


def test_project_affine_keeps_feasible_points():
    cons = _unit_entry_constraints()
    G = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert np.allclose(project_affine(G, cons), G)


def test_project_affine_satisfies_all_constraints():
    rng = make_rng(42)
    for _ in range(10):
        dim = 5
        cons = AffineConstraints(dim)
        for _ in range(6):
            cons.add(random_hermitian(rng, dim), rng.normal())
        out = project_affine(random_hermitian(rng, dim), cons)
        assert np.max(np.abs(cons.residuals(out))) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_project_affine_detects_inconsistency():
    cons = AffineConstraints(2)
    A = np.zeros((2, 2))
    A[0, 0] = 1.0
    cons.add(A, 0.0)
    cons.add(A, 1.0)
    assert not cons.consistent
    with pytest.raises(InconsistentConstraints):
        project_affine(np.zeros((2, 2)), cons)


def test_dependent_rows_reported():
    cons = AffineConstraints(2)
    A = np.zeros((2, 2))
    A[0, 0] = 1.0
    cons.add(A, 1.0)
    cons.add(2 * A, 2.0)
    cons.add(np.eye(2), 1.0)
    assert cons.n_redundant == 1
    assert cons.consistent


def _trace_and_offdiag(target: float) -> AffineConstraints:
    cons = AffineConstraints(2)
    cons.add(np.eye(2), 1.0)
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    cons.add(B, target)  # Re<B, G> = G01 + G10
    return cons


def test_feasibility_solve_reachable_offdiagonal():
    report = feasibility_solve(_trace_and_offdiag(0.8), tol=1e-9)
    assert report.feasible
    G = report.solution
    assert np.trace(G).real == pytest.approx(1.0, abs=1e-9)
    assert (G[0, 1] + G[1, 0]).real == pytest.approx(0.8, abs=1e-9)
    assert np.linalg.eigvalsh(G)[0] >= -1e-9


def test_feasibility_solve_unreachable_offdiagonal():
    # At trace one, each off-diagonal entry of a PSD matrix is at most 1/2.
    report = feasibility_solve(_trace_and_offdiag(1.2), tol=1e-9)
    assert report.status == "infeasible-at-tolerance"
    assert report.gap > 1e-3


def _assert_separates_offdiag(Y):
    # Checked from scratch: Y = a I + b B is PSD and Re<Y, G> = a + 1.2 b < 0
    # on the set, while Re<Y, G> >= 0 for PSD G.
    assert np.linalg.eigvalsh(Y)[0] >= 0
    directions = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    span = np.stack([np.concatenate([A.ravel(), 0 * A.ravel()]) for A in directions])
    target = np.concatenate([Y.real.ravel(), Y.imag.ravel()])
    coeffs, *_ = np.linalg.lstsq(span.T, target, rcond=None)
    assert np.max(np.abs(span.T @ coeffs - target)) <= 1e-12
    assert coeffs @ [1.0, 1.2] < 0


def test_unreachable_offdiagonal_separator():
    _assert_separates_offdiag(feasibility_solve(_trace_and_offdiag(1.2), tol=1e-9).separator)


def test_minimize_linear_proves_infeasibility():
    # The separator test does not depend on the objective.
    report = minimize_linear(np.eye(2), _trace_and_offdiag(1.2), tol=1e-9)
    assert report.status == "infeasible-at-tolerance"
    _assert_separates_offdiag(report.separator)


def test_feasibility_solve_without_anchor_or_separator():
    # G00 = 0 and Im G01 = -1e6: no PSD matrix satisfies both, yet PSD
    # matrices come arbitrarily close (G11 -> infinity), so no separating
    # matrix exists.  The identity's normal part is E00, singular, so there
    # is no anchor either.  The solve must run out its iterations, without
    # the growing multiplier ever tripping the Hermitian check.
    cons = AffineConstraints(3)
    cons.add(np.diag([1.0, 0.0, 0.0]), 0.0)
    B = np.zeros((3, 3), dtype=complex)
    B[0, 1], B[1, 0] = 1j, -1j
    cons.add(B, 2e6)
    C = np.zeros((3, 3), dtype=complex)
    C[1, 2], C[2, 1] = 1 + 1j, 1 - 1j
    cons.add(C, 1e6)
    report = feasibility_solve(cons, tol=1e-9, max_iter=2000)
    assert report.status == "max-iterations"
    assert report.iterations == 2000
    assert report.separator is None


def test_feasibility_solve_empty_constraints():
    report = feasibility_solve(AffineConstraints(3), tol=1e-9)
    assert report.feasible
    assert np.allclose(report.solution, np.zeros((3, 3)))


def test_feasibility_solve_on_constructed_problems():
    rng = make_rng(43)
    for trial in range(10):
        dim = int(rng.integers(3, 13))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        target = b @ b.conj().T / dim
        cons = AffineConstraints(dim)
        for _ in range(int(rng.integers(2, 2 * dim))):
            A = random_hermitian(rng, dim)
            cons.add(A, float(np.real(np.vdot(A, target))))
        report = feasibility_solve(cons, tol=1e-9, max_iter=200_000)
        assert report.feasible, f"trial {trial}: {report.status}"
        assert np.max(np.abs(cons.residuals(report.solution))) < 1e-8
        assert np.linalg.eigvalsh(report.solution)[0] >= -1e-9


def test_feasibility_solve_deterministic():
    r1 = feasibility_solve(_trace_and_offdiag(0.8), tol=1e-9)
    r2 = feasibility_solve(_trace_and_offdiag(0.8), tol=1e-9)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.solution, r2.solution)


def test_minimize_linear_corner_eigenvalue():
    cons = AffineConstraints(2)
    cons.add(np.eye(2), 1.0)
    c = np.zeros((2, 2))
    c[0, 0] = 1.0
    report = minimize_linear(c, cons, tol=1e-9, max_iter=4000)
    G, value = report.solution, report.value
    assert value == pytest.approx(0.0, abs=2e-2)
    assert value >= -1e-7
    assert np.trace(G).real == pytest.approx(1.0, abs=1e-7)
    assert np.linalg.eigvalsh(G)[0] >= -1e-7


def test_minimize_linear_trace_with_pinned_corner():
    cons = AffineConstraints(2)
    A = np.zeros((2, 2))
    A[0, 0] = 1.0
    cons.add(A, 1.0)
    value = minimize_linear(np.eye(2), cons, tol=1e-9, max_iter=4000).value
    assert value == pytest.approx(1.0, abs=2e-2)
    assert value >= 1.0 - 1e-7


def test_minimize_linear_zero_objective():
    cons = _trace_and_offdiag(0.8)
    report = minimize_linear(np.zeros((2, 2)), cons, tol=1e-9, max_iter=1000)
    G, value = report.solution, report.value
    assert value == 0.0
    assert np.trace(G).real == pytest.approx(1.0, abs=1e-7)


def test_minimize_linear_respects_box():
    # Minimizing -G01-G10 under the box |G01| <= 0.3 pins the off-diagonal.
    cons = ClassConstraints(
        np.array([[0, 1], [2, 3]]), pinned=0, radii=[2.0, 0.3, 0.3, 2.0]
    )
    c = -np.array([[0.0, 1.0], [1.0, 0.0]])
    report = minimize_linear(c, cons, tol=1e-9, max_iter=4000)
    G, value = report.solution, report.value
    assert abs(G[0, 1]) <= 0.3 + 1e-6
    assert value == pytest.approx(-0.6, abs=2e-2)


# -- numeric guards and per-iteration trims -------------------------------------


def test_project_psd_rejects_nan():
    with pytest.raises(ValueError):
        project_psd(np.full((3, 3), np.nan))
    G = np.eye(3, dtype=complex)
    G[1, 2] = np.nan
    with pytest.raises(ValueError):
        project_psd(G)


def test_feasibility_solve_rejects_box():
    # Its infeasibility test relies on every point of the set pairing alike
    # with a normal matrix, which holds for affine sets only.
    box = ClassConstraints(np.array([[0, 1], [1, 2]]), pinned=0, radii=[1.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="affine"):
        feasibility_solve(box)


def test_solvers_reject_nan_tol():
    cons = _trace_and_offdiag(0.8)
    with pytest.raises(ValueError):
        feasibility_solve(cons, tol=float("nan"))
    with pytest.raises(ValueError):
        minimize_linear(np.eye(2), cons, tol=float("nan"))


@pytest.mark.parametrize("tol", [np.inf, 0.0, -np.inf])
def test_solvers_reject_tol_outside_positive_reals(tol):
    cons = _trace_and_offdiag(0.8)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        feasibility_solve(cons, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        minimize_linear(np.eye(2), cons, tol=tol)


@pytest.mark.parametrize("m", [7, 15, 40])
def test_trimmed_helpers_match_reference_expressions(m):
    rng = make_rng(44 + m)
    for _ in range(5):
        H = random_hermitian(rng, m)
        M = H + 1e-12 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        reference = (M + M.conj().T) / 2
        assert np.array_equal(_check_hermitian(M), reference)

        # The radii clamp, seen entrywise: one class per entry, pinned at the
        # last diagonal entry, radii symmetric as transposed classes require.
        radii = np.abs(rng.normal(size=(m, m)))
        radii = radii + radii.T
        radii[0, :] = radii[:, 0] = 0.0
        radii[-1, -1] = 1.0
        cls = ClassConstraints(
            np.arange(m * m).reshape(m, m), pinned=m * m - 1, radii=radii.ravel()
        )
        G = H.copy()
        G[1, 1] = 0.0
        mags = np.abs(G)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(mags > radii, radii / np.where(mags > 0, mags, 1.0), 1.0)
        reference = G * scale
        reference[-1, -1] = 1.0
        assert np.array_equal(cls.project(G), reference)


# -- class-labelled constraints -------------------------------------------------


def _class_constant_set(nvars, d):
    basis, classes = reference_class_positions(nvars, d)
    reps, labels = reference_class_labels(classes, len(basis))
    return ClassConstraints(labels, pinned=reps.index(()))


def _check_class_projection(cls, dense, rng):
    assert cls.start_scale == pytest.approx(dense.start_scale, rel=1e-14, abs=1e-15)
    for _ in range(3):
        G = random_hermitian(rng, cls.dim)
        out = project_affine(G, cls)
        assert np.max(np.abs(out - project_affine(G, dense))) <= 1e-12
        assert np.array_equal(out, out.conj().T)
        assert np.max(np.abs(project_affine(out, cls) - out)) <= 1e-12
        assert np.max(np.abs(cls.residuals(out))) <= 1e-12
        assert np.max(np.abs(dense.residuals(out))) <= 1e-12
        assert cls.distance(G) == pytest.approx(dense.distance(G), rel=1e-12)


@pytest.mark.parametrize("nvars,d", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_class_sums_projection_matches_dense_system(nvars, d):
    rng = make_rng(100 * nvars + d)
    q = random_poly(rng, nvars, 2 * d, n_terms=8)
    p = q + q.adjoint()
    cls = build_gram_problem(p, d).constraints
    dense = dense_gram_constraints(p, d)
    assert len(cls) == len(dense)
    _check_class_projection(cls, dense, rng)


@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
def test_class_constant_projection_matches_dense_system(nvars, d):
    rng = make_rng(200 * nvars + d)
    cls = _class_constant_set(nvars, d)
    _check_class_projection(cls, dense_witness_constraints(nvars, d), rng)
    assert project_affine(np.zeros((cls.dim, cls.dim)), cls)[0, 0] == 1.0


@pytest.mark.parametrize("nvars", [2, 3])
def test_feasibility_solve_same_with_either_type(nvars):
    p = commutator_square_poly()
    if nvars == 3:
        p = NCPoly(3, dict(p.terms)) + NCPoly(3, {(3, 3): 1.0})
    cls_report = feasibility_solve(build_gram_problem(p, 2).constraints)
    dense_report = feasibility_solve(dense_gram_constraints(p, 2))
    assert cls_report.status == dense_report.status == "feasible"
    assert cls_report.iterations == dense_report.iterations
    assert np.max(np.abs(cls_report.solution - dense_report.solution)) < 1e-9


def _assert_same_report(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("sign", [1, -1])
def test_feasibility_solve_is_minimize_linear_with_zero_objective(nvars, d, sign):
    p = commutator_square_poly()
    if nvars == 3:
        p = NCPoly(3, dict(p.terms)) + NCPoly(3, {(3, 3): 1.0})
    cons = build_gram_problem(sign * p, d).constraints
    report = feasibility_solve(cons)
    assert report.status == ("feasible" if sign > 0 else "infeasible-at-tolerance")
    _assert_same_report(report, minimize_linear(np.zeros((cons.dim, cons.dim)), cons))


def test_feasibility_solve_is_minimize_linear_on_affine_equations():
    cons = _trace_and_offdiag(0.8)
    report = feasibility_solve(cons)
    assert report.feasible and report.value == 0.0
    _assert_same_report(report, minimize_linear(np.zeros((2, 2)), cons))


def test_class_constraints_reject_malformed_input():
    labels = np.array([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="transpose"):
        # Entry (1, 0) shares class 0 with (0, 0), but its transpose does not.
        ClassConstraints(np.array([[0, 1], [0, 2]]), rhs=np.zeros(3))
    with pytest.raises(ValueError, match="empty"):
        ClassConstraints(labels, rhs=np.zeros(5))
    with pytest.raises(ValueError, match="empty"):
        ClassConstraints(np.array([[0, 3], [3, 1]]), pinned=0)
    with pytest.raises(ValueError, match="not real"):
        ClassConstraints(labels, rhs=[1.0, 0.0, 0.0, 1j])
    with pytest.raises(ValueError):
        ClassConstraints(labels.astype(float), rhs=np.zeros(4))
    with pytest.raises(ValueError):
        ClassConstraints(labels, rhs=np.zeros(4), pinned=0)


def test_class_sums_conjugate_mismatch_is_inconsistent():
    # Classes 1 and 2 are transposes; their sums must be conjugate.
    labels = np.array([[0, 1], [2, 3]])
    good = ClassConstraints(labels, rhs=[1.0, 0.5 + 0.25j, 0.5 - 0.25j, 2.0])
    assert good.consistent
    out = project_affine(np.zeros((2, 2)), good)
    assert np.allclose(out, [[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]])
    bad = ClassConstraints(labels, rhs=[1.0, 0.5, 0.25, 2.0])
    assert not bad.consistent
    with pytest.raises(InconsistentConstraints):
        project_affine(np.zeros((2, 2)), bad)
    with pytest.raises(InconsistentConstraints):
        feasibility_solve(bad)


def _witness_set(nvars, d, R):
    basis, classes = reference_class_positions(nvars, d)
    reps, labels = reference_class_labels(classes, len(basis))
    radii = R ** np.array([len(rep) for rep in reps], dtype=float)
    return ClassConstraints(labels, pinned=reps.index(()), radii=radii)


def test_class_constraints_reject_bad_radii():
    labels = np.array([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="pinned"):
        ClassConstraints(labels, rhs=np.zeros(4), radii=np.ones(4))
    for radii in ([1.0, -0.5, -0.5, 1.0], [1.0, np.nan, np.nan, 1.0]):
        with pytest.raises(ValueError, match="nonnegative"):
            ClassConstraints(labels, pinned=0, radii=radii)
    with pytest.raises(ValueError, match="transposed"):
        ClassConstraints(labels, pinned=0, radii=[1.0, 0.5, 0.25, 1.0])
    with pytest.raises(ValueError, match="below"):
        ClassConstraints(labels, pinned=0, radii=[0.5, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="one entry per class"):
        ClassConstraints(labels, pinned=0, radii=[1.0, 1.0, 1.0])


@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
def test_bounded_class_projection_is_optimal(nvars, d):
    # P = proj(G) is the projection onto a convex set exactly when
    # Re<G - P, Y - P> <= 0 for every feasible Y.
    rng = make_rng(300 * nvars + d)
    cls = _witness_set(nvars, d, 1.5)
    for _ in range(5):
        G = random_hermitian(rng, cls.dim)
        P = cls.project(G)
        assert np.max(np.abs(cls.residuals(P))) <= 1e-12
        for _ in range(5):
            Y = cls.project(3 * random_hermitian(rng, cls.dim))
            assert np.real(np.vdot(G - P, Y - P)) <= 1e-12
