"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
timings inline.  Tolerances are pinned here and are not configurable.
"""

import time

import numpy as np
import pytest

from nctrace.algebra import (
    NCPoly,
    evaluate,
    normalized_trace,
    pair,
    star_product,
    words_up_to,
)
from nctrace.certify import (
    Certificate,
    InfeasibilityReport,
    certify_sos,
    dual_witness,
    falsify,
    verify_certificate,
)
from nctrace.gns import gns_build, norm_bound_check, unitary_group, verify_moments, verify_trace_property
from nctrace.moments import check_w_membership, moment_matrix, moment_sequence, psd_check
from nctrace.sdp import feasibility_solve
from nctrace.sampling import make_rng, random_hermitian, random_tuple

from helpers import AffineConstraints, commutator_square_poly, random_poly


def report(number: int, title: str, passed: bool, elapsed: float, detail: str = ""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{title}]: {verdict} in {elapsed:.2f}s{suffix}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_commutator_identity_end_to_end():
    start = time.perf_counter()
    p = commutator_square_poly()
    cert = certify_sos(p, 2)
    ok_cert = isinstance(cert, Certificate)
    residual = verify_certificate(p, cert) if ok_cert else float("inf")

    # Independent symbolic oracle: the known factor reproduces p exactly.
    s = 1j / np.sqrt(2.0)
    b = NCPoly(2, {(1, 2): s, (2, 1): -s})
    oracle_residual = (p - star_product(b.adjoint(), b)).cyclic_reduce()
    elapsed = time.perf_counter() - start
    passed = (
        ok_cert
        and residual <= 1e-6
        and oracle_residual == NCPoly.zero(2)
        and elapsed < 5.0
    )
    report(
        1,
        "commutator identity end-to-end",
        passed,
        elapsed,
        f"verify residual {residual:.2e}, oracle exact: "
        f"{oracle_residual == NCPoly.zero(2)}",
    )


def test_criterion_2_duality_exclusivity():
    start = time.perf_counter()
    p = -1 * commutator_square_poly()
    primal = certify_sos(p, 2)
    infeasible = isinstance(primal, InfeasibilityReport)

    witness = dual_witness(p, 2, R=1.0)
    witness_ok = witness is not None and witness.value <= -1.0

    found = falsify(p, trials=10, N=4, R=1.0, seed=0)
    falsified = (
        found is not None
        and found.tuple.N == 2
        and abs(found.trace - (-2.0)) <= 1e-12
    )
    elapsed = time.perf_counter() - start
    passed = infeasible and witness_ok and falsified and elapsed < 10.0
    report(
        2,
        "duality exclusivity on the negated commutator square",
        passed,
        elapsed,
        f"infeasible={infeasible}, witness value "
        f"{witness.value if witness else float('nan'):.3f}, "
        f"pauli trace {found.trace if found else float('nan'):.12f}",
    )


def test_criterion_3_product_norm_property_suite():
    start = time.perf_counter()
    rng = make_rng(1003)
    radii = (0.5, 1.0, 2.0, 10.0)
    worst_sub = 0.0
    worst_anti = 0.0
    worst_iso = 0.0
    for k in range(1000):
        nvars = int(rng.integers(1, 4))
        a = random_poly(rng, nvars, 5, n_terms=6)
        b = random_poly(rng, nvars, 5, n_terms=6)
        prod = star_product(a, b)
        for radius in radii:
            na, nb, nab = a.r_norm(radius), b.r_norm(radius), prod.r_norm(radius)
            if nab > na * nb:
                worst_sub = max(worst_sub, (nab - na * nb) / max(na * nb, 1e-300))
            iso = abs(a.adjoint().r_norm(radius) - na) / max(na, 1e-300)
            worst_iso = max(worst_iso, iso)
        anti = (
            star_product(a, b).adjoint()
            - star_product(b.adjoint(), a.adjoint())
        ).r_norm(1.0)
        worst_anti = max(worst_anti, anti / max(prod.r_norm(1.0), 1e-300))
    elapsed = time.perf_counter() - start
    passed = worst_sub <= 1e-12 and worst_iso <= 1e-12 and worst_anti <= 1e-12
    report(
        3,
        "product norm inequality and involution properties, 1000 pairs",
        passed,
        elapsed,
        f"worst relative slack: submult {worst_sub:.1e}, isometry "
        f"{worst_iso:.1e}, anti-homomorphism {worst_anti:.1e}",
    )


def test_criterion_4_moment_membership_suite():
    start = time.perf_counter()
    rng = make_rng(1004)
    sizes = (2, 3, 4)
    worst_cyc = worst_conj = 0.0
    worst_eig = np.inf
    worst_square = np.inf
    for k in range(200):
        X = random_tuple(rng, 2, sizes[k % 3], 1.0)
        t = moment_sequence(X, 8)
        rep = check_w_membership(t, tol=1e-10)
        worst_cyc = max(worst_cyc, rep.max_cyclic_violation)
        worst_conj = max(worst_conj, rep.max_conjugate_violation)
        ok, min_eig = psd_check(moment_matrix(t, 4), tol=1e-9)
        worst_eig = min(worst_eig, min_eig)
        for _ in range(50):
            a = random_poly(rng, 2, 4, n_terms=5)
            value = pair(star_product(a.adjoint(), a), t).real
            worst_square = min(worst_square, value)
    elapsed = time.perf_counter() - start
    passed = (
        worst_cyc <= 1e-10
        and worst_conj <= 1e-10
        and worst_eig >= -1e-9
        and worst_square >= -1e-9
    )
    report(
        4,
        "moment sequences of 200 random tuples satisfy the membership suite",
        passed,
        elapsed,
        f"cyclic {worst_cyc:.1e}, conjugate {worst_conj:.1e}, min moment "
        f"eigenvalue {worst_eig:.1e}, min square pairing {worst_square:.1e}",
    )


def test_criterion_5_gns_round_trip():
    start = time.perf_counter()
    rng = make_rng(1005)
    grid = (0.1, 0.7, 2.0)
    worst_vm = worst_tp = worst_group = 0.0
    bounds_ok = True
    for _ in range(50):
        X = random_tuple(rng, 2, 3, 1.0)
        theta = moment_sequence(X, 6)
        model = gns_build(theta, 3)
        worst_vm = max(worst_vm, verify_moments(model, theta, 3))
        worst_tp = max(worst_tp, verify_trace_property(model, theta, 6))
        for j in (1, 2):
            for t_val in grid:
                for s_val in grid:
                    U = unitary_group(model, j, t_val)
                    V = unitary_group(model, j, s_val)
                    W = unitary_group(model, j, t_val + s_val)
                    worst_group = max(worst_group, float(np.linalg.norm(U @ V - W)))
        radius = max(float(np.linalg.norm(m, 2)) for m in X.matrices)
        bounds_ok = bounds_ok and norm_bound_check(model, theta, radius).passed
    elapsed = time.perf_counter() - start
    passed = (
        worst_vm <= 1e-8
        and worst_tp <= 1e-8
        and worst_group <= 1e-10
        and bounds_ok
        and elapsed < 60.0
    )
    report(
        5,
        "GNS round-trip on 50 random tuples",
        passed,
        elapsed,
        f"moments {worst_vm:.1e}, trace {worst_tp:.1e}, group law "
        f"{worst_group:.1e}, norm bounds ok: {bounds_ok}",
    )


def test_criterion_6_solver_sanity():
    start = time.perf_counter()
    rng = make_rng(1006)
    dims = (5, 8, 12, 16, 20, 25, 30, 34, 38, 40)
    all_feasible = True
    worst_iters = 0
    worst_residual = 0.0
    worst_eig = 0.0
    for trial in range(100):
        dim = dims[trial % len(dims)]
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        target = b @ b.conj().T / dim
        cons = AffineConstraints(dim)
        for _ in range(int(rng.integers(max(2, dim // 2), 2 * dim))):
            A = random_hermitian(rng, dim, 1.0)
            cons.add(A, float(np.real(np.vdot(A, target))))
        rep = feasibility_solve(cons, tol=1e-9, max_iter=200_000)
        all_feasible = all_feasible and rep.feasible
        worst_iters = max(worst_iters, rep.iterations)
        worst_residual = max(
            worst_residual, float(np.max(np.abs(cons.residuals(rep.solution))))
        )
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rep.solution)[0]))

    # The analytic infeasible case: at unit trace a PSD matrix cannot have
    # off-diagonal entries of 0.6 each.
    cons = AffineConstraints(2)
    cons.add(np.eye(2), 1.0)
    cons.add(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.2)
    infeasible = feasibility_solve(cons, tol=1e-9).status == "infeasible-at-tolerance"
    elapsed = time.perf_counter() - start
    passed = (
        all_feasible
        and worst_iters <= 200_000
        and worst_residual <= 1e-8
        and worst_eig >= -1e-9
        and infeasible
    )
    report(
        6,
        "solver recovers 100 constructed-feasible problems, flags the infeasible one",
        passed,
        elapsed,
        f"worst iterations {worst_iters}, constraint residual "
        f"{worst_residual:.1e}, min eigenvalue {worst_eig:.1e}, "
        f"infeasible detected: {infeasible}",
    )


def test_criterion_7_soundness_sampling():
    start = time.perf_counter()
    rng = make_rng(1007)
    basis = words_up_to(2, 2)
    polynomials = [commutator_square_poly()]
    for _ in range(20):
        q = NCPoly.zero(2)
        # Dense square factors: every basis word carries a Gaussian weight,
        # so the constructed Gram matrix is strictly positive definite.
        for _ in range(8):
            coeffs = {
                word: complex(rng.normal(), rng.normal()) for word in basis
            }
            bfac = NCPoly(2, coeffs)
            q = q + star_product(bfac.adjoint(), bfac)
        # A trace-null shuffle, symmetrized so q stays self-adjoint.
        w = tuple(int(x) for x in rng.integers(1, 3, size=4))
        shuffle = NCPoly(2, {w: 0.5}) - NCPoly(2, {w[1:] + w[:1]: 0.5})
        q = q + shuffle + shuffle.adjoint()
        polynomials.append(q)

    certified = 0
    worst_residual = 0.0
    worst_trace = np.inf
    for q in polynomials:
        cert = certify_sos(q, 2)
        if isinstance(cert, Certificate):
            certified += 1
            worst_residual = max(worst_residual, verify_certificate(q, cert))
        for _ in range(100):
            X = random_tuple(rng, 2, int(rng.integers(2, 5)), 1.0)
            worst_trace = min(worst_trace, normalized_trace(evaluate(q, X)).real)
    elapsed = time.perf_counter() - start
    passed = (
        certified == len(polynomials)
        and worst_residual <= 1e-6
        and worst_trace >= -1e-6
    )
    report(
        7,
        "certificates stay sound on 100 sampled tuples per polynomial",
        passed,
        elapsed,
        f"certified {certified}/{len(polynomials)}, worst residual "
        f"{worst_residual:.1e}, worst sampled trace {worst_trace:.2e}",
    )
