import dataclasses
import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from nctrace import certify, sdp
from nctrace.algebra import NCPoly, cyclic_canonical
from nctrace.certify import (
    RESIDUAL_TOL,
    Certificate,
    build_gram_problem,
    cyclic_classes,
    dual_witness,
    extract_factors,
    validate_witness,
    verify_certificate,
)
from nctrace.sdp import (
    ClassConstraints,
    InconsistentConstraints,
    _check_hermitian,
    feasibility_solve,
    minimize_linear,
    project_affine,
    project_psd,
)

from helpers import (
    AffineConstraints,
    commutator_square_poly,
    dense_gram_constraints,
    dense_witness_constraints,
    make_rng,
    random_hermitian,
    random_poly,
    reference_class_labels,
    reference_class_positions,
    reference_minimize_linear,
    workload_poly,
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


@pytest.mark.parametrize("delta", [2e-9, 5e-9])
def test_a_pair_within_the_consistency_tolerance_is_solved_as_one_equation(delta):
    # The pair's sums differ by delta, inside CONSISTENCY_TOL: the set takes
    # the earlier class's target and its conjugate, which a Hermitian PSD
    # matrix meets, instead of two targets no Hermitian matrix meets.
    labels = np.array([[0, 1], [2, 3]])
    cons = ClassConstraints(labels, rhs=[1, 0.25 + 0.1j + delta, 0.25 - 0.1j, 1])
    assert cons.consistent and cons.defect == pytest.approx(delta, rel=1e-6)
    assert cons.rhs[2] == np.conj(cons.rhs[1]) == 0.25 + delta - 0.1j
    report = feasibility_solve(cons, max_iter=2000)
    assert report.status == "feasible"
    assert np.abs(cons.residuals(report.solution)).max() <= 1e-9
    with pytest.raises(InconsistentConstraints, match="structurally infeasible"):
        feasibility_solve(ClassConstraints(labels, rhs=[1, 0.25 + 0.1j + 2e-8, 0.25 - 0.1j, 1]))


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


# -- the loop checks its inputs once, then trusts its Hermitian iterates -------


def _gram_problem(nvars, d, sign):
    p = commutator_square_poly()
    if nvars == 3:
        p = NCPoly(3, dict(p.terms)) + NCPoly(3, {(3, 3): 1.0})
    return sign * p, build_gram_problem(sign * p, d)


def _gram_constraints(nvars, d, sign):
    return _gram_problem(nvars, d, sign)[1].constraints


def _assert_decides(report, p, problem):
    """A certificate that passes its audit, or a PSD separator pairing
    negatively with the Gram set."""
    cons = problem.constraints
    if report.feasible:
        factors = extract_factors(report.solution, problem.basis, p.nvars)
        cert = Certificate(problem.degree, factors)
        assert verify_certificate(p, cert) <= RESIDUAL_TOL * max(1.0, p.r_norm(1.0))
    else:
        Y = report.separator
        assert np.linalg.eigvalsh(Y)[0] >= 0
        on_set = project_affine(np.zeros((cons.dim, cons.dim)), cons)
        assert np.real(np.vdot(Y, on_set)) < 0


@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("with_anchor", [False, True])
def test_gram_solves_match_the_checked_loop(nvars, d, sign, with_anchor):
    # The negated problems reach the separator test, and the anchor (the
    # identity when none is given) is mixed into a separator that is not PSD.
    # Over the first 20 iterations the accelerated loop is the checked loop,
    # bit for bit; after them it reaches the checked loop's decision in no
    # more iterations: 24, 27 and 24 against 30, 100 and 142 on the feasible
    # sets, and 40 against 40 on the anchorless negated set at d = 3.
    p, problem = _gram_problem(nvars, d, sign)
    cons = problem.constraints
    anchor = (lambda: cyclic_classes(nvars, d).anchor) if with_anchor else None
    zero = np.zeros((cons.dim, cons.dim))
    head = feasibility_solve(cons, max_iter=20, anchor=anchor)
    _assert_same_report(head, reference_minimize_linear(zero, cons, max_iter=20, anchor=anchor))
    report = feasibility_solve(cons, anchor=anchor)
    reference = reference_minimize_linear(zero, cons, max_iter=200_000, anchor=anchor)
    assert report.status == reference.status
    assert report.status == ("feasible" if sign > 0 else "infeasible-at-tolerance")
    assert report.iterations <= reference.iterations
    _assert_decides(report, p, problem)
    _assert_same_report(minimize_linear(zero, cons, anchor=anchor), report)


def _witness_box_problem(nvars, d):
    cons = _witness_set(nvars, d, 1.5)
    return random_hermitian(make_rng(400 * nvars + d), cons.dim), cons


@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
def test_witness_box_solves_match_the_checked_loop(nvars, d):
    # The checked loop runs 322, 710 and 1,514 iterations on these, and rho
    # changes at several of the every-20-iterations checks on each.  Over
    # the first 20 iterations the accelerated loop is the checked loop, bit
    # for bit; after them Anderson steps take other iterates to the same
    # optimum in fewer iterations.
    objective, cons = _witness_box_problem(nvars, d)
    head = minimize_linear(objective, cons, max_iter=20)
    _assert_same_report(head, reference_minimize_linear(objective, cons, max_iter=20))
    reference = reference_minimize_linear(objective, cons, max_iter=3000)
    assert reference.feasible and reference.iterations > 300
    report = minimize_linear(objective, cons, max_iter=3000)
    assert report.feasible and report.iterations <= reference.iterations
    assert abs(report.value - reference.value) <= 1e-7 * max(1.0, abs(reference.value))


# The eight attributes the solver reads, as the ``nctrace.sdp`` docstring
# lists them.
_SOLVER_INTERFACE = (
    "dim", "dtype", "consistent", "defect", "project", "residuals", "start_scale", "radii"
)


@pytest.mark.parametrize("case", ["Gram set", "negated Gram set", "witness box"])
def test_solves_read_only_the_documented_interface(case):
    if case == "witness box":
        objective, cons = _witness_box_problem(2, 2)
        solve = partial(minimize_linear, objective, max_iter=3000)
    else:
        cons = _gram_constraints(2, 2, 1 if case == "Gram set" else -1)
        anchor = (lambda: cyclic_classes(2, 2).anchor) if case == "negated Gram set" else None
        solve = partial(feasibility_solve, anchor=anchor)
    bare = SimpleNamespace(**{name: getattr(cons, name) for name in _SOLVER_INTERFACE})
    direct, through = solve(cons), solve(bare)
    assert (through.status, through.iterations) == (direct.status, direct.iterations)
    assert through.value == direct.value
    assert through.solution.tobytes() == direct.solution.tobytes()


def test_accelerated_solves_are_deterministic():
    objective, cons = _witness_box_problem(2, 3)
    first = minimize_linear(objective, cons, max_iter=3000)
    second = minimize_linear(objective, cons, max_iter=3000)
    assert first.anderson_accepted > 0
    for f in dataclasses.fields(first):
        a, b = getattr(first, f.name), getattr(second, f.name)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert repr(a) == repr(b), f.name


def test_safeguard_rejects_extrapolations_that_do_not_reduce_the_residual(monkeypatch):
    objective, cons = _witness_box_problem(2, 2)
    report = minimize_linear(objective, cons, max_iter=3000)
    assert report.feasible and report.anderson_rejected >= 1
    # Each extrapolated state is evaluated by one iteration after the 20th.
    assert report.anderson_accepted + report.anderson_rejected < report.iterations - 20
    # A start beyond the cap leaves the plain loop, which never extrapolates.
    monkeypatch.setattr(sdp, "ANDERSON_START", 3000)
    plain = minimize_linear(objective, cons, max_iter=3000)
    _assert_same_report(plain, reference_minimize_linear(objective, cons, max_iter=3000))


@pytest.mark.parametrize("seed", [59, 67, 68])
@pytest.mark.parametrize("rank", [1, 2, 7])
def test_capped_refute_witnesses_now_decide(seed, rank, monkeypatch):
    # The plain loop ran the rank-7 witness of seed 59 and the rank-1
    # witnesses of seeds 67 and 68 to the 20,000-iteration cap.
    reports = []

    def spy(*args, **kwargs):
        reports.append(minimize_linear(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(certify, "minimize_linear", spy)
    p = workload_poly("refute", seed, f"negsos-n2d2-r{rank}-0")
    witness = dual_witness(p, 2)
    (report,) = reports
    assert report.feasible and report.iterations < 20_000
    assert witness is not None and validate_witness(witness).passed


@pytest.mark.parametrize("d,max_iter,status,iterations", [
    (3, 200_000, "infeasible-at-tolerance", 40),
    (4, 2000, "max-iterations", 2000),
])
def test_accelerated_gram_loop_keeps_the_plain_decision_on_empty_sets(
    d, max_iter, status, iterations
):
    # The unhalved negated commutator square has no Gram matrix, and without
    # an anchor the plain loop finds its separator at iteration 40 at d = 3
    # and none within 2,000 iterations at d = 4.  Extrapolating toward a
    # fixed point that does not exist must not change either decision.
    p = -2 * commutator_square_poly()
    problem = build_gram_problem(p, d)
    report = feasibility_solve(problem.constraints, max_iter=max_iter)
    assert (report.status, report.iterations) == (status, iterations)
    assert report.anderson_accepted > 0 and report.anderson_rejected > 0
    if report.separator is not None:
        _assert_decides(report, p, problem)


@pytest.mark.parametrize("case", ["witness box", "anchorless Gram set"])
def test_anderson_history_protocol(case, monkeypatch):
    # The loop's calls on its history, each with the iteration it is made
    # in (one PSD projection per iteration).  The witness solve changes rho
    # at iterations 20-80; the Gram solve rejects hundreds of extrapolations.
    events, iteration = [], [0]
    psd = sdp._psd_kernel

    def counted(H):
        iteration[0] += 1
        return psd(H)

    def logged(name, method):
        def call(self, *args):
            events.append((name, iteration[0]))
            return method(self, *args)
        return call

    monkeypatch.setattr(sdp, "_psd_kernel", counted)
    for name in ("push", "clear", "extrapolate"):
        monkeypatch.setattr(sdp._Anderson, name, logged(name, getattr(sdp._Anderson, name)))
    if case == "witness box":
        reports, solve = [], certify.minimize_linear
        spy = lambda *args, **kwargs: reports.append(solve(*args, **kwargs)) or reports[-1]
        monkeypatch.setattr(certify, "minimize_linear", spy)
        certify.witness_search(-1 * commutator_square_poly(), 2, R=3)
        (report,) = reports
    else:
        cons = build_gram_problem(-2 * commutator_square_poly(), 4).constraints
        report = feasibility_solve(cons, max_iter=2000)
    assert [at for name, at in events if name == "push"][0] == sdp.ANDERSON_START + 1
    pushed, extrapolations = 0, 0
    for name, at in events:
        if name == "clear":
            pushed = 0
        elif name == "push":
            pushed += 1
        else:
            assert pushed >= 2, f"extrapolated at iteration {at} from {pushed} steps"
            extrapolations += 1
    # The last extrapolation may still await its evaluation.
    decided = report.anderson_accepted + report.anderson_rejected
    assert extrapolations - 1 <= decided <= extrapolations
    assert report.anderson_accepted > 0 and report.anderson_rejected > 0


def test_separator_test_reads_the_plain_state(monkeypatch):
    # Every 10 iterations the loop projects its state z to test Y = z - P(z);
    # z is then the plain step's, never an extrapolated one.
    extrapolate, kernel = sdp._Anderson.extrapolate, sdp._affine_kernel
    extrapolated, tested = [], []

    def record(self):
        state = extrapolate(self)
        extrapolated.append(state[0])
        return state

    def project(G, constraints):
        tested.append(any(G is z for z in extrapolated))
        return kernel(G, constraints)

    monkeypatch.setattr(sdp._Anderson, "extrapolate", record)
    monkeypatch.setattr(sdp, "_affine_kernel", project)
    cons = build_gram_problem(-2 * commutator_square_poly(), 4).constraints
    report = feasibility_solve(cons, max_iter=200)
    assert report.anderson_accepted > 0 and len(extrapolated) > 20
    assert not any(tested)


def test_divergent_multiplier_cannot_end_feasible(monkeypatch):
    # The Gram set of the constant -1 at d = 0 is {G = -1}: empty, with u
    # falling by 1 per plain step.  An extrapolation that scales u by 1e18
    # makes the next step round to x = z' = 0, so both residuals are 0; x
    # misses the equation by 1, and the recheck of x keeps the loop going.
    cons = ClassConstraints(np.zeros((1, 1), dtype=int), rhs=[-1.0])
    assert feasibility_solve(cons).status == "infeasible-at-tolerance"
    extrapolate = sdp._Anderson.extrapolate

    def diverge(self):
        z, u = extrapolate(self)
        return z, u * 1e18

    monkeypatch.setattr(sdp, "ANDERSON_START", 0)
    monkeypatch.setattr(sdp._Anderson, "extrapolate", diverge)
    report = feasibility_solve(cons, max_iter=100)
    assert report.status == "max-iterations"
    assert report.gap == 0.0 and report.dual == 0.0


def test_capped_solve_matches_the_checked_loop():
    # A cap within the first 20 iterations, before any extrapolation.
    cons = _gram_constraints(2, 3, 1)
    report = feasibility_solve(cons, max_iter=20)
    assert report.status == "max-iterations" and report.iterations == 20
    zero = np.zeros((cons.dim, cons.dim))
    _assert_same_report(report, reference_minimize_linear(zero, cons, max_iter=20))


def test_objective_over_dense_equations_matches_the_checked_loop():
    # The pairing with the commutator square, spread evenly over each class;
    # the square is trace-nonnegative, so the minimum is bounded below by 0.
    cons = dense_witness_constraints(2, 2)
    _, classes = reference_class_positions(2, 2)
    objective = np.zeros((cons.dim, cons.dim), dtype=complex)
    for word, coeff in commutator_square_poly().terms.items():
        entries = classes[cyclic_canonical(word)]
        for entry in entries:
            objective[entry] += coeff / len(entries)
    objective = (objective + objective.conj().T) / 2
    head = minimize_linear(objective, cons, max_iter=20)
    _assert_same_report(head, reference_minimize_linear(objective, cons, max_iter=20))
    reference = reference_minimize_linear(objective, cons, max_iter=3000)
    assert reference.feasible and reference.iterations > 20
    report = minimize_linear(objective, cons, max_iter=3000)
    assert report.feasible and report.iterations <= reference.iterations
    assert report.value >= -1e-6
    assert abs(report.value - reference.value) <= 1e-7 * max(1.0, abs(reference.value))


@pytest.fixture
def no_iterations(monkeypatch):
    def iterate(*args):
        raise AssertionError("iterated before refusing the input")

    monkeypatch.setattr(sdp, "_affine_kernel", iterate)
    monkeypatch.setattr(sdp, "_psd_kernel", iterate)


def test_minimize_linear_refuses_bad_objectives_before_iterating(no_iterations):
    cons = _trace_and_offdiag(0.8)
    with pytest.raises(ValueError, match="not Hermitian"):
        minimize_linear(np.array([[0.0, 1.0], [0.0, 0.0]]), cons)
    for entry in [(0, 0), (0, 1)]:
        objective = np.eye(2)
        objective[entry] = np.nan
        with pytest.raises(ValueError, match="not Hermitian: max asymmetry nan"):
            minimize_linear(objective, cons)
    with pytest.raises(ValueError, match=r"objective shape \(3, 3\) does not match dim 2"):
        minimize_linear(np.eye(3), cons)
    with pytest.raises(ValueError, match="expected a square matrix"):
        minimize_linear(np.ones(4), cons)


def test_minimize_linear_refuses_inconsistent_constraints_before_iterating(no_iterations):
    bad = ClassConstraints(np.array([[0, 1], [2, 3]]), rhs=[1.0, 0.5, 0.25, 2.0])
    with pytest.raises(InconsistentConstraints, match="structurally infeasible"):
        minimize_linear(np.eye(2), bad)
    dense = AffineConstraints(2)
    dense.add(np.eye(2), 1.0)
    dense.add(np.eye(2), 2.0)
    with pytest.raises(InconsistentConstraints):
        minimize_linear(np.eye(2), dense)


def _two_bincount_sums(cls, G):
    flat, k = cls.labels.ravel(), len(cls)
    G = np.asarray(G)
    real = np.bincount(flat, G.real.ravel(), k)
    return real + 1j * np.bincount(flat, G.imag.ravel(), k)


@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
def test_class_sums_match_two_bincounts_bit_for_bit(nvars, d):
    rng = make_rng(500 * nvars + d)
    cls = _gram_constraints(nvars, d, 1)
    m = cls.dim
    G = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    zeros = G.copy()
    zeros[rng.random((m, m)) < 0.5] = -0.0
    zeros.imag[rng.random((m, m)) < 0.5] = -0.0
    for case in (G, G.real, G.T, G.real.T, zeros, -0.0 * G.real, random_hermitian(rng, m)):
        got = cls._class_sums(case)
        # A real matrix's sums are the real bincount alone, and real.
        expected = _two_bincount_sums(cls, case)
        expected = expected if np.iscomplexobj(case) else expected.real
        assert got.dtype == expected.dtype and got.shape == (len(cls),)
        assert got.tobytes() == expected.tobytes()


def test_a_solve_is_real_exactly_when_its_objective_and_targets_are():
    # Class 0 and 3 are the diagonal, each its own transpose; 1 and 2 are a
    # transposed pair.  A closed class's imaginary part within RHS_IMAG_TOL
    # is dropped, so its target is real.
    labels = np.array([[0, 1], [2, 3]])
    for rhs, dtype in [
        ([1.0, 0.5, 0.5, 1.0], float),
        ([1 + 1e-12j, 0.5 + 0j, 0.5, 1.0], float),
        ([1.0, 0.5 + 0.25j, 0.5 - 0.25j, 1.0], complex),
    ]:
        cons = ClassConstraints(labels, rhs=rhs)
        assert cons.dtype is np.dtype(dtype).type and cons.rhs.dtype == dtype
        report = feasibility_solve(cons)
        assert report.feasible and report.solution.dtype == dtype
        assert np.linalg.norm(cons.residuals(report.solution)) <= 1e-9
        zero = np.zeros((2, 2), dtype=complex)
        assert minimize_linear(zero, cons).solution.dtype == complex
    box = ClassConstraints(labels, pinned=0, radii=[1.0, 2.0, 2.0, 3.0])
    assert box.dtype is np.float64
    objective = np.array([[0.0, 1.0], [1.0, 0.0]])
    real, complex_ = minimize_linear(objective, box), minimize_linear(objective + 0j, box)
    assert real.solution.dtype == float and complex_.solution.dtype == complex
    # The objective is 2b on [[1, b], [b, c]]: PSD needs b^2 <= c <= 3, so
    # the optimum is b = -sqrt(3), inside b's radius 2, with value -2 sqrt(3).
    for report in (real, complex_):
        assert report.feasible and abs(report.value + 2 * np.sqrt(3)) <= 1e-8
    # Project and clamp keep a real matrix real.
    assert project_psd(np.eye(2)).dtype == float
    assert box.clamp(np.array([-5.0, 0.5, 4.0, 1.0])).tolist() == [-1.0, 0.5, 2.0, 1.0]


@pytest.mark.parametrize(
    "labels,kwargs,message",
    [
        (np.zeros((2, 3), dtype=int), {"pinned": 0},
         "labels must be a nonempty square array, got shape (2, 3)"),
        (np.zeros((2, 2), dtype=int), {"rhs": np.ones((1, 1))},
         "rhs must be a vector, got shape (1, 1)"),
        (np.array([[0, 1], [1, 2]]), {"rhs": np.ones(2)}, "labels must lie in 0..1"),
        (np.array([[0, 1], [1, 0]]), {"rhs": [1.0, np.nan]}, "class sums must be finite"),
        (np.array([[0, 1], [1, 0]]), {"pinned": 2}, "pinned class 2 outside 0..1"),
        (np.array([[0, 1], [1, 0]]), {"pinned": 0.5},
         "pinned class must be an integer, got 0.5"),
        (np.array([[0, 1], [1, 0]]), {"pinned": np.float64(1.0)},
         "pinned class must be an integer, got"),
        (np.array([[0, 1], [1, 0]]), {"pinned": True},
         "pinned class must be an integer, got True"),
    ],
)
def test_class_constraints_refuse_malformed_input(labels, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ClassConstraints(labels, **kwargs)


def test_affine_constraints_refuse_a_bad_dimension_or_matrix_shape():
    with pytest.raises(ValueError, match=re.escape("dimension must be positive, got 0")):
        AffineConstraints(0)
    with pytest.raises(
        ValueError, match=re.escape("constraint matrix shape (3, 3) does not match dim 2")
    ):
        AffineConstraints(2).add(np.eye(3), 1.0)


def test_a_solve_decided_within_20_iterations_allocates_no_history(monkeypatch):
    # The history's 2 (ANDERSON_MEMORY + 1) m x m matrices are allocated at
    # its first push, at iteration 21, so a solve decided before then holds
    # none of them.  b* b with b = Y1 + ... + Y5 is feasible at iteration 1,
    # the negated commutator square at d = 2 infeasible at iteration 10.
    histories = []

    class Recorded(sdp._Anderson):
        def __init__(self):
            super().__init__()
            histories.append(self)

    monkeypatch.setattr(sdp, "_Anderson", Recorded)
    b = NCPoly(5, {(j,): 1.0 for j in range(1, 6)})
    for p, d in ((b.adjoint() * b, 1), (-1 * commutator_square_poly(), 2)):
        report = feasibility_solve(build_gram_problem(p, d).constraints)
        assert report.status != "max-iterations"
        assert report.iterations <= sdp.ANDERSON_START
        assert histories[-1].steps is None
    cons = _gram_constraints(2, 2, 1)
    report = feasibility_solve(cons)
    assert report.feasible and report.iterations > sdp.ANDERSON_START + 1
    shape = (sdp.ANDERSON_MEMORY + 1, 2, cons.dim, cons.dim)
    assert histories[-1].steps.shape == histories[-1].residuals.shape == shape
