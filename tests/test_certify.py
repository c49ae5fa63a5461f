import re
import time

import numpy as np
import pytest

from nctrace.algebra import (
    NCPoly,
    cyclic_canonical,
    evaluate,
    normalized_trace,
    pair,
    star_product,
    words_up_to,
)
from nctrace.certify import (
    Certificate,
    InfeasibilityReport,
    build_gram_problem,
    certify_sos,
    dual_witness,
    falsify,
    validate_witness,
    verify_certificate,
    witness_search,
)
from nctrace import algebra, certify
from nctrace.moments import MomentSequence, moment_sequence
from nctrace.sdp import ClassConstraints, NoFeasiblePoint, feasibility_solve, minimize_linear

from helpers import (
    commutator_square_poly,
    make_rng,
    random_hermitian,
    random_hermitian_tuple,
    random_poly,
    reference_class_labels,
    reference_class_positions,
    reference_extract_factors,
    reference_extract_moments,
    reference_falsify,
    reference_real_traces,
    reference_sum_of_squares,
    term_bits,
)


def exact_commutator_factor() -> NCPoly:
    """b = (i/sqrt(2)) (Y1 Y2 - Y2 Y1); the known exact square factor."""
    s = 1j / np.sqrt(2.0)
    return NCPoly(2, {(1, 2): s, (2, 1): -s})


# -- Gram problem assembly ----------------------------------------------------


def test_gram_problem_square_of_one_variable():
    p = NCPoly(1, {(1, 1): 1.0})
    gp = build_gram_problem(p, 1)
    assert gp.basis == [(), (1,)]
    assert gp.n_classes == 3
    assert gp.rhs[()] == 0
    assert gp.rhs[(1,)] == 0
    assert gp.rhs[(1, 1)] == 1.0
    # The unique feasible Gram matrix is E_11; check it against the rows.
    G = np.zeros((2, 2))
    G[1, 1] = 1.0
    assert np.max(np.abs(gp.constraints.residuals(G))) < 1e-14


def test_gram_problem_zero_polynomial():
    gp = build_gram_problem(NCPoly.zero(2), 1)
    assert all(v == 0 for v in gp.rhs.values())
    assert np.max(np.abs(gp.constraints.rhs)) == 0


def test_gram_problem_commutator_rhs():
    gp = build_gram_problem(commutator_square_poly(), 2)
    assert gp.rhs[(1, 1, 2, 2)] == pytest.approx(1.0)
    assert gp.rhs[(1, 2, 1, 2)] == pytest.approx(-1.0)
    others = {
        rep: value
        for rep, value in gp.rhs.items()
        if rep not in ((1, 1, 2, 2), (1, 2, 1, 2))
    }
    assert all(v == 0 for v in others.values())


def test_gram_problem_rejects_bad_input():
    with pytest.raises(ValueError):
        build_gram_problem(NCPoly(2, {(1, 2): 1.0}), 1)  # not self-adjoint
    with pytest.raises(ValueError):
        build_gram_problem(NCPoly(1, {(1, 1, 1, 1): 1.0}), 1)  # degree > 2d


def test_gram_problem_every_pair_in_exactly_one_class():
    gp = build_gram_problem(commutator_square_poly(), 2)
    labels = gp.constraints.labels
    m = len(gp.basis)
    assert labels.shape == (m, m)
    reps = list(gp.rhs)
    assert reps == sorted(reps, key=lambda w: (len(w), w))
    for row, J in enumerate(gp.basis):
        for col, K in enumerate(gp.basis):
            assert reps[labels[row, col]] == cyclic_canonical(J[::-1] + K)
    # Every class labels some entry, so the labels partition the entries.
    assert set(labels.ravel().tolist()) == set(range(gp.n_classes))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_cyclic_classes_match_pairwise_reference(nvars, d):
    basis, classes = reference_class_positions(nvars, d)
    reps, labels = reference_class_labels(classes, len(basis))
    got = certify.cyclic_classes(nvars, d)
    assert np.array_equal(got.labels, labels)
    words = words_up_to(nvars, 2 * d)
    assert [words[r] for r in got.reps] == reps
    assert [reps[c] for c in got.word_labels] == [cyclic_canonical(w) for w in words]


@pytest.mark.parametrize("nvars,d", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_gram_problem_matches_pairwise_reference(nvars, d):
    rng = make_rng(700 + 10 * nvars + d)
    q = random_poly(rng, nvars, 2 * d, n_terms=8)
    p = q + q.adjoint()
    gp = build_gram_problem(p, d)
    basis, classes = reference_class_positions(nvars, d)
    reps, labels = reference_class_labels(classes, len(basis))
    reduced = p.cyclic_reduce()
    assert gp.basis == basis
    assert list(gp.rhs) == reps
    assert gp.rhs == {rep: reduced.coeff(rep) for rep in reps}
    # The Hermitian projection of the reference partner rule.
    values = np.array([reduced.coeff(rep) for rep in reps], dtype=complex)
    partner = np.array([labels[classes[rep][0][::-1]] for rep in reps])
    values = np.where(np.arange(len(reps)) <= partner, values, np.conj(values[partner]))
    expected = ClassConstraints(labels, rhs=values)
    assert np.array_equal(gp.constraints.rhs, expected.rhs)
    assert gp.constraints.start_scale == expected.start_scale


def test_gram_problem_drops_cancelled_class_totals():
    # 0.1 + 0.1 + 0.1 - 0.3 leaves 5.6e-17 on the class of Y1^2 Y2^2, which
    # cyclic_reduce drops with every total of magnitude at most 1e-15.
    terms = {(1, 1, 2, 2): 0.1, (2, 2, 1, 1): 0.1, (1, 2, 2, 1): 0.1, (2, 1, 1, 2): -0.3}
    p = NCPoly(2, {**terms, (1, 1): 1.0})
    assert 0 < abs(sum(terms.values())) <= 1e-15
    gp = build_gram_problem(p, 2)
    assert gp.rhs == {rep: p.cyclic_reduce().coeff(rep) for rep in gp.rhs}
    assert gp.rhs[(1, 1, 2, 2)] == 0


@pytest.mark.parametrize("nvars,d", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_class_coefficients_equal_cyclic_reduce_bit_for_bit(nvars, d, monkeypatch):
    rng = make_rng(750 + 10 * nvars + d)
    classes = certify.cyclic_classes(nvars, d)
    words = words_up_to(nvars, 2 * d)
    rep_labels = {words[r]: label for label, r in enumerate(classes.reps.tolist())}
    polys = [random_poly(rng, nvars, 2 * d, n_terms=12) for _ in range(10)]
    # Totals that cancel to rounding, to exactly zero and, from opposite
    # infinities, to NaN are all dropped by cyclic_reduce.
    word = (1,) * min(2 * d, 3) + (nvars,)
    rotated = word[1:] + word[:1]
    polys.append(NCPoly(nvars, {word: 0.1 + 0.2j, rotated: -(0.1 + 0.2j) + 1e-17, (1,): 1.0}))
    polys.append(NCPoly(nvars, {word: np.inf, rotated: -np.inf, (): 2.0}))
    expected = []
    for p in polys:
        values = np.zeros(len(classes.reps), dtype=complex)
        for rep, coeff in p.cyclic_reduce().terms.items():
            values[rep_labels[rep]] = coeff
        expected.append(values)
    # Booth's algorithm is not needed for the totals.
    monkeypatch.setattr(algebra, "cyclic_canonical", None)
    for p, values in zip(polys, expected):
        got = classes.coefficients(p)
        assert np.array_equal(got.view(float), values.view(float)), p
    assert not np.isnan(classes.coefficients(polys[-1])).any()


@pytest.mark.parametrize("m,rank", [(7, 7), (13, 3), (15, 15), (15, 1)])
def test_extracted_factors_equal_reference_bit_for_bit(m, rank):
    rng = make_rng(760 + m + rank)
    basis = words_up_to(2, 3)[:m]
    for real in (False, True):
        B = rng.normal(size=(m, rank)) + (0 if real else 1j) * rng.normal(size=(m, rank))
        G = B @ B.conj().T
        got = certify.extract_factors(G, basis, 2)
        expected = reference_extract_factors(G, basis, 2)
        assert [term_bits(b) for b in got] == [term_bits(b) for b in expected]


@pytest.mark.parametrize("nvars,d,R", [(1, 2, 1.0), (2, 2, 1.5), (3, 2, 1.0), (2, 3, 2.0)])
def test_extracted_moments_match_reference_bit_for_bit(nvars, d, R):
    rng = make_rng(800 + 10 * nvars + d)
    classes = certify.cyclic_classes(nvars, d)
    radii = R ** classes.index.lengths[classes.reps].astype(float)
    constraints = ClassConstraints(classes.labels, pinned=0, radii=radii)
    _, positions = reference_class_positions(nvars, d)
    m = len(classes.labels)
    real = (3.0 * random_hermitian(rng, m).real).astype(complex)
    for M in (0.3 * random_hermitian(rng, m), real):
        # A small empty-word entry makes most class values reach their bound.
        M[0, 0] = 0.5
        got = certify._extract_moments(M, constraints, classes, R)
        expected = reference_extract_moments(M, positions, nvars, 2 * d, R)
        assert got.max_degree == expected.max_degree == 2 * d
        assert list(got.values) == list(expected.values)
        assert np.array_equal(got.as_array(), expected.as_array())
        signs = [np.signbit(t.as_array().view(float)) for t in (got, expected)]
        assert np.array_equal(*signs)


def test_gram_matrix_of_known_factors_is_feasible():
    """Build q from chosen factors; their Gram matrix must satisfy every row.

    This pins all the orientation conventions at once: word reversal in the
    row index, conjugation in the factor coefficients, and the class sums.
    """
    rng = make_rng(50)
    for trial in range(5):
        factors = [random_poly(rng, 2, 2, n_terms=5) for _ in range(4)]
        q = NCPoly.zero(2)
        for b in factors:
            q = q + star_product(b.adjoint(), b)
        # A cyclic shuffle keeps the class sums (and the trace) intact.
        w = tuple(int(x) for x in rng.integers(1, 3, size=4))
        shuffle = NCPoly(2, {w: 0.7}) - NCPoly(2, {w[2:] + w[:2]: 0.7})
        q = q + shuffle + shuffle.adjoint()
        gp = build_gram_problem(q, 2)
        index = {word: k for k, word in enumerate(gp.basis)}
        m = len(gp.basis)
        G = np.zeros((m, m), dtype=complex)
        for b in factors:
            u = np.zeros(m, dtype=complex)
            for word, coeff in b.terms.items():
                u[index[word]] = np.conj(coeff)
            G += np.outer(u, u.conj())
        assert np.max(np.abs(gp.constraints.residuals(G))) < 1e-10, f"trial {trial}"


# -- certify_sos --------------------------------------------------------------


def test_certify_single_square():
    p = NCPoly(1, {(1, 1): 1.0})
    cert = certify_sos(p, 1)
    assert isinstance(cert, Certificate)
    assert len(cert.factors) == 1
    b = cert.factors[0]
    assert abs(b.coeff((1,))) == pytest.approx(1.0, abs=1e-8)
    assert abs(b.coeff(())) < 1e-8
    assert cert.residual_l1 <= 1e-8


def test_certify_commutator_square():
    p = commutator_square_poly()
    cert = certify_sos(p, 2)
    assert isinstance(cert, Certificate)
    assert cert.residual_l1 <= 1e-6
    assert verify_certificate(p, cert) <= 1e-6


def test_commutator_square_symbolic_oracle():
    # Pure polynomial arithmetic, no solver: the known factor works exactly.
    p = commutator_square_poly()
    b = exact_commutator_factor()
    assert b.is_symmetric(1e-15)
    diff = p - star_product(b.adjoint(), b)
    assert diff.cyclic_reduce() == NCPoly.zero(2)


def test_certify_negative_square_infeasible():
    report = certify_sos(NCPoly(1, {(1, 1): -1.0}), 1)
    assert isinstance(report, InfeasibilityReport)
    assert report.status == "infeasible-at-tolerance"
    assert report.gap > 0.5


def test_certify_stall_is_distinct_from_infeasible():
    # An iteration cap too small to decide must surface as a solver failure,
    # never as an infeasibility report.
    from nctrace.certify import SolverStalled

    with pytest.raises(SolverStalled):
        certify_sos(commutator_square_poly(), 2, max_iter=5)


def test_certify_gates_certificate_on_residual(monkeypatch):
    # A factor that does not reproduce p must not leave as a certificate.
    monkeypatch.setattr(
        certify, "extract_factors", lambda G, basis, nvars: [NCPoly(nvars, {(1,): 1.0})]
    )
    with pytest.raises(NoFeasiblePoint, match="certificate residual"):
        certify_sos(commutator_square_poly(), 2)


def test_commutator_square_certifies_at_degree_four():
    # The basis words of length 3 and 4 can only carry zero weight, so the
    # Gram matrices lie on a face of the cone; alternating projections used
    # to stall here for 200,000 iterations.
    p = commutator_square_poly()
    cert = certify_sos(p, 4)
    assert isinstance(cert, Certificate)
    assert verify_certificate(p, cert) <= 1e-8


@pytest.mark.parametrize("d", [3, 4])
def test_negated_commutator_square_infeasible_at_higher_degree(d):
    p = -1 * commutator_square_poly()
    report = certify_sos(p, d)
    assert isinstance(report, InfeasibilityReport)
    assert_gram_separator(p, d, report.separator)


def test_rank_one_sum_certifies():
    # A single square: its Gram matrix has rank one, where alternating
    # projections were still undecided after 200,000 iterations.
    b = random_poly(make_rng(0), 2, 2, n_terms=7)
    p = star_product(b.adjoint(), b)
    cert = certify_sos(p, 2)
    assert isinstance(cert, Certificate)
    assert verify_certificate(p, cert) <= 1e-6


def assert_gram_separator(p: NCPoly, d: int, Y) -> None:
    """Y proves p has no Gram matrix at half-degree d, checked from scratch.

    Y is PSD and constant on each cyclic class, so Re<Y, G> is the same
    pairing of Y's class values with p's coefficients for every Gram matrix
    G of p; that pairing is negative, while Re<Y, G> >= 0 for PSD G.
    """
    assert Y is not None
    assert np.linalg.eigvalsh(Y)[0] >= 0
    _, classes = reference_class_positions(p.nvars, d)
    reduced = p.cyclic_reduce()
    pairing = 0.0
    for rep, positions in classes.items():
        values = Y[tuple(np.array(positions).T)]
        assert np.max(np.abs(values - values[0])) <= 1e-12
        pairing += np.conj(values[0]) * reduced.coeff(rep)
    assert pairing.real < 0


def test_separator_of_negative_square():
    p = NCPoly(1, {(1, 1): -1.0})
    assert_gram_separator(p, 1, certify_sos(p, 1).separator)


def test_certify_default_degree_and_symmetry_gate():
    cert = certify_sos(NCPoly(1, {(1, 1): 1.0}))
    assert cert.degree == 1
    with pytest.raises(ValueError, match="self-adjoint"):
        certify_sos(NCPoly(2, {(1, 2): 1.0}))


def test_certify_random_sos_by_construction():
    rng = make_rng(51)
    for trial in range(3):
        factors = [random_poly(rng, 2, 2, n_terms=6) for _ in range(8)]
        q = NCPoly.zero(2)
        for b in factors:
            q = q + star_product(b.adjoint(), b)
        cert = certify_sos(q, 2)
        assert isinstance(cert, Certificate), f"trial {trial}"
        assert verify_certificate(q, cert) <= 1e-6


# -- verify_certificate -------------------------------------------------------


def test_verify_exact_certificate():
    p = NCPoly(1, {(1, 1): 1.0})
    cert = Certificate(
        degree=1,
        factors=[NCPoly(1, {(1,): 1.0})],
        residual=NCPoly.zero(1),
        residual_l1=0.0,
    )
    assert verify_certificate(p, cert) <= 1e-12


def test_verify_scaled_factor_perturbation():
    # Scaling the factor by (1+eps) perturbs b*b by (2 eps + eps^2) exactly.
    eps = 1e-3
    p = NCPoly(1, {(1, 1): 1.0})
    cert = Certificate(
        degree=1,
        factors=[NCPoly(1, {(1,): 1.0 + eps})],
        residual=NCPoly.zero(1),
        residual_l1=0.0,
    )
    assert verify_certificate(p, cert) == pytest.approx(2 * eps + eps**2, rel=1e-9)


def test_verify_empty_certificate_of_zero():
    cert = Certificate(degree=1, factors=[], residual=NCPoly.zero(2), residual_l1=0.0)
    assert verify_certificate(NCPoly.zero(2), cert) == 0.0


@pytest.mark.parametrize("nvars,d", [(1, 3), (2, 2), (3, 2), (2, 3)])
def test_square_sum_matches_product_reference(nvars, d):
    rng = make_rng(900 + 10 * nvars + d)
    for count in (1, 3, 8):
        factors = [random_poly(rng, nvars, d, n_terms=7) for _ in range(count)]
        got = certify._sum_of_squares(factors, nvars)
        expected = reference_sum_of_squares(factors, nvars)
        # Each coefficient's rounding is relative to the magnitudes it sums.
        magnitudes = reference_sum_of_squares(
            [NCPoly(nvars, {w: abs(c) for w, c in b.terms.items()}) for b in factors],
            nvars,
        )
        assert set(got.terms) == set(expected.terms)
        for word, coeff in expected.terms.items():
            assert abs(got.terms[word] - coeff) <= 1e-14 * magnitudes.terms[word].real


# -- input checks --------------------------------------------------------------


def test_symmetry_checked_once_per_entry_point(monkeypatch):
    calls = []
    checked = NCPoly.is_symmetric

    def counting(self, tol=1e-10):
        calls.append(self)
        return checked(self, tol)

    monkeypatch.setattr(NCPoly, "is_symmetric", counting)
    square, minus = NCPoly(1, {(1, 1): 1.0}), NCPoly(1, {(1, 1): -1.0})
    runs = {
        "certify_sos": lambda: certify_sos(square, 1),
        "certify_sos infeasible": lambda: certify_sos(minus, 1),
        "build_gram_problem": lambda: build_gram_problem(square, 1),
        "witness_search": lambda: witness_search(minus, 1),
        "dual_witness": lambda: dual_witness(minus, 1),
        "falsify": lambda: falsify(square, trials=1),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == 1, name
    with pytest.raises(ValueError, match="self-adjoint"):
        build_gram_problem(NCPoly(2, {(1, 2): 1.0}), 1)


def test_gram_problem_without_booth(monkeypatch):
    p = commutator_square_poly() + NCPoly(2, {(1, 1): 1.0, (1, 2): 0.5, (2, 1): 0.5})
    expected = build_gram_problem(p, 2)
    monkeypatch.setattr(algebra, "cyclic_canonical", None)
    got = build_gram_problem(p, 2)
    assert got.rhs == expected.rhs
    assert np.array_equal(got.constraints.rhs, expected.constraints.rhs)


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-9])
def test_witness_search_rejects_tol_outside_positive_reals(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        witness_search(NCPoly(2, {(1, 1): -1.0, (2, 2): -1.0}), 1, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        certify_sos(NCPoly(2, {(1, 1): 1.0, (2, 2): 1.0}), 1, tol=tol)


@pytest.mark.parametrize("nvars,d", [(2, 7), (3, 5), (1, 511)])
def test_gram_size_limit_edges(nvars, d):
    # The largest half-degree admitted in one, two and three variables:
    # words up to 2d, times 2d + 1, against the limit.
    words = len(words_up_to(nvars, 2 * d))
    assert words * (2 * d + 1) <= certify.MAX_GRAM_SIZE
    certify.check_gram_size(nvars, d)
    with pytest.raises(ValueError, match="Gram problem too large"):
        certify.check_gram_size(nvars, d + 1)


@pytest.mark.parametrize("nvars,d", [(2, 8), (3, 6), (1, 512), (2, 10**6)])
def test_oversized_gram_problem_refused(nvars, d):
    p = NCPoly(nvars, {(1, 1): 1.0})
    for run in (build_gram_problem, certify_sos, witness_search, dual_witness):
        with pytest.raises(ValueError, match="Gram problem too large"):
            run(p, d)


# -- dual witness -------------------------------------------------------------


def test_witness_for_negated_commutator_square():
    p = -1 * commutator_square_poly()
    w = dual_witness(p, 2, R=1.0)
    assert w is not None
    assert w.value <= -1.0
    check = validate_witness(w)
    assert check.passed, check
    # Direct audit: the stored value is the honest pairing.
    assert pair(p, w.theta).real == pytest.approx(w.value, abs=1e-12)


def test_no_witness_for_squares():
    assert dual_witness(NCPoly(1, {(1, 1): 1.0}), 1, R=1.0) is None
    theta, value = witness_search(NCPoly.zero(2), 1, R=1.0, max_iter=2000)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_exclusivity_on_commutator_pair():
    p = commutator_square_poly()
    assert isinstance(certify_sos(p, 2), Certificate)
    _, value = witness_search(p, 2, R=1.0, max_iter=4000)
    assert value >= -1e-6
    assert isinstance(certify_sos(-1 * p, 2), InfeasibilityReport)
    assert dual_witness(-1 * p, 2, R=1.0) is not None


def test_constant_polynomials_at_degree_zero():
    two = NCPoly(1, {(): 2.0})
    cert = certify_sos(two, 0)
    assert isinstance(cert, Certificate)
    assert len(cert.factors) == 1
    assert abs(cert.factors[0].coeff(())) == pytest.approx(np.sqrt(2.0))
    assert cert.residual_l1 == 0.0
    assert certify_sos(two).degree == 0  # default half-degree of a constant

    minus = NCPoly(1, {(): -1.0})
    report = certify_sos(minus, 0)
    assert isinstance(report, InfeasibilityReport)
    assert report.gap == pytest.approx(1.0, abs=1e-9)
    w = dual_witness(minus, 0, R=1.0)
    assert w is not None and w.value == pytest.approx(-1.0, abs=1e-9)
    found = falsify(minus, trials=5, N=2, R=1.0, seed=0)
    assert found is not None and found.index == 0  # the all-zero tuple
    assert found.trace == pytest.approx(-1.0, abs=1e-12)


def test_anticommutator_family_exclusivity():
    # Y1Y2 + Y2Y1 is trace-indefinite: infeasible primal, witness at -2,
    # falsified by diagonal sign patterns.  Its square cousin is certified
    # exactly and admits no witness.
    p = NCPoly(2, {(1, 2): 1.0, (2, 1): 1.0})
    primal = certify_sos(p, 1)
    assert isinstance(primal, InfeasibilityReport)
    assert primal.gap == pytest.approx(1.0, abs=1e-6)
    w = dual_witness(p, 1, R=1.0)
    assert w is not None and w.value == pytest.approx(-2.0, abs=1e-6)
    found = falsify(p, trials=50, N=4, R=1.0, seed=0)
    assert found is not None and found.source == "library"
    assert found.trace == pytest.approx(-1.0, abs=1e-12)

    square = NCPoly(2, {(1, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0, (2, 2): 1.0})
    cert = certify_sos(square, 1)
    assert isinstance(cert, Certificate)
    assert cert.residual_l1 <= 1e-10
    _, value = witness_search(square, 1, R=1.0, max_iter=4000)
    assert value >= -1e-8


FAMILIES = {
    "comm": commutator_square_poly().terms,
    "anti": {
        (1, 2, 1, 2): 0.5,
        (1, 2, 2, 1): 0.5,
        (2, 1, 1, 2): 0.5,
        (2, 1, 2, 1): 0.5,
    },
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
def test_separator_of_negated_families(family, nvars, d):
    terms = dict(FAMILIES[family])
    if nvars == 3:
        terms[(3, 3)] = 1.0
    p = -1 * NCPoly(nvars, terms)
    report = certify_sos(p, d)
    assert isinstance(report, InfeasibilityReport)
    assert report.iterations <= 100
    assert_gram_separator(p, d, report.separator)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
def test_witness_value_of_negated_families(family, nvars, d):
    # With R = 1 the negated pair part reaches -2 and -Y3^2 adds -1.
    terms = dict(FAMILIES[family])
    if nvars == 3:
        terms[(3, 3)] = 1.0
    p = -1 * NCPoly(nvars, terms)
    w = dual_witness(p, d, R=1.0)
    assert w.value == pytest.approx(-2.0 - (nvars == 3), abs=1e-6)


def test_unhalved_commutator_square_at_degree_three():
    p = -2 * commutator_square_poly()
    start = time.perf_counter()
    theta, value = witness_search(p, 3, R=1.0)
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(-4.0, abs=1e-6)
    assert elapsed < 1.0


def test_iteration_cap_repair_is_a_valid_witness(monkeypatch):
    rng = make_rng(54)
    b = random_poly(rng, 2, 2, n_terms=6)
    p = -1 * star_product(b.adjoint(), b)
    raw = []

    def spy(*args, **kwargs):
        report = minimize_linear(*args, **kwargs)
        raw.append(np.linalg.eigvalsh(report.solution)[0])
        return report

    monkeypatch.setattr(certify, "minimize_linear", spy)
    w = dual_witness(p, 2, R=1.0, max_iter=30)
    assert raw[0] < -1e-9  # the cap left the solver's point outside the cone
    assert w is not None and w.value < 0
    check = validate_witness(w)
    assert check.passed, check
    assert check.min_eigenvalue >= -1e-12


def test_dual_witness_rejects_invalid_theta(monkeypatch):
    theta = MomentSequence(1, 2, {(): 1.0, (1,): 0.0, (1, 1): -1.0})
    monkeypatch.setattr(certify, "witness_search", lambda *a, **k: (theta, -1.0))
    with pytest.raises(NoFeasiblePoint, match="witness failed validation"):
        dual_witness(NCPoly(1, {(1, 1): -1.0}), 1)


# -- falsify ------------------------------------------------------------------


def test_falsify_negated_commutator_square_via_pauli():
    p = -1 * commutator_square_poly()
    result = falsify(p, trials=10, N=4, R=1.0, seed=0)
    assert result is not None
    assert result.source == "library"
    assert result.trace == pytest.approx(-2.0, abs=1e-12)
    assert result.tuple.N == 2  # the Pauli pair


def test_falsify_square_returns_none():
    assert falsify(NCPoly(1, {(1, 1): 1.0}), trials=50, N=3, R=2.0, seed=1) is None


def test_falsify_commutator_trace_identically_zero():
    p = NCPoly(2, {(1, 2): 1j, (2, 1): -1j})
    assert p.is_symmetric()
    assert falsify(p, trials=50, N=4, R=1.5, seed=2) is None


def test_falsify_deterministic_given_seed():
    rng = make_rng(52)
    # A polynomial negative somewhere but not on the structured library:
    # trace(q) = t_1122 - t_1212 >= 0 always, so flip it and shift by a bit.
    p = -1 * commutator_square_poly() + NCPoly(2, {(): 0.3})
    r1 = falsify(p, trials=200, N=4, R=1.0, seed=7)
    r2 = falsify(p, trials=200, N=4, R=1.0, seed=7)
    assert r1 is not None and r2 is not None
    assert r1.index == r2.index and r1.source == r2.source
    assert r1.trace == r2.trace


def test_falsifier_output_is_a_witness():
    p = -1 * commutator_square_poly()
    result = falsify(p, trials=10, N=4, R=1.0, seed=0)
    theta = moment_sequence(result.tuple, 4)
    from nctrace.certify import DualWitness

    w = DualWitness(theta=theta, value=pair(p, theta).real, radius=1.0)
    check = validate_witness(w)
    assert check.passed
    assert w.value == pytest.approx(result.trace, abs=1e-12)


def _commutator_gap(mu: float) -> NCPoly:
    """mu - [Y2, Y3]* [Y2, Y3]: nonnegative on the structured library (Y2 and
    Y3 commute on every library tuple), negative where the commutator of a
    random pair has normalized trace above mu."""
    return NCPoly(
        3, {(): mu, (2, 2, 3, 3): -1, (3, 3, 2, 2): -1, (2, 3, 2, 3): 1, (3, 2, 3, 2): 1}
    )


def _assert_falsify_equals_reference(p, trials, N, R, seed):
    result = falsify(p, trials=trials, N=N, R=R, seed=seed)
    ref = reference_falsify(p, trials, N, R, seed)
    if ref is None:
        assert result is None
        return None
    assert (result.source, result.index, result.trace) == ref[:3]
    assert len(result.tuple.matrices) == len(ref[3])
    for got, want in zip(result.tuple.matrices, ref[3]):
        assert np.array_equal(got, want)
    return result


def test_falsify_equals_trial_by_trial_search():
    results = [
        _assert_falsify_equals_reference(_commutator_gap(mu), 300, N, 1.0, seed)
        for mu in (0.2, 0.6, 1.0, 1.3)
        for N in (2, 3)
        for seed in (0, 1, 2)
    ]
    random_hits = [r for r in results if r is not None and r.source == "random"]
    assert len(random_hits) >= 10
    assert max(r.index for r in random_hits) >= certify.FALSIFY_CHUNK
    for seed in range(8):
        a = random_poly(make_rng(seed), 2, 2, n_terms=5)
        p = a + a.adjoint() + NCPoly(2, {(): 0.5})
        _assert_falsify_equals_reference(p, 100, 3, 1.5, seed)


def test_falsify_equals_trial_by_trial_search_at_the_edges():
    assert _assert_falsify_equals_reference(_commutator_gap(0.2), 0, 3, 1.0, 0) is None
    quartic = NCPoly(1, {(1, 1, 1, 1): 1.0, (1, 1): -1.0, (): 0.2})
    hit = _assert_falsify_equals_reference(quartic, 5, 1, 0.8, 0)
    assert hit.source == "random" and hit.tuple.N == 1
    assert _assert_falsify_equals_reference(quartic, 50, 1, 1.0, 0) is None
    library = _assert_falsify_equals_reference(-1 * commutator_square_poly(), 10, 4, 1.0, 0)
    assert library.source == "library"


def test_falsify_rejects_infinite_radius():
    with pytest.raises(ValueError, match="radius R must be positive and finite"):
        falsify(commutator_square_poly(), trials=5, R=float("inf"))


@pytest.mark.parametrize("R,reason", [(1e100, "R^4 is not finite"), (1e77, "the traces")])
def test_falsify_refuses_a_radius_whose_traces_overflow(R, reason, monkeypatch):
    # R^4 overflows at 1e100; at 1e77 it does not, but 4 x 4 traces can.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a tuple before refusing the radius")

    monkeypatch.setattr(certify, "random_hermitians", no_draw)
    with pytest.raises(ValueError, match=re.escape(f"radius R = {R} is too large")):
        falsify(commutator_square_poly(), R=R)
    with pytest.raises(ValueError, match=re.escape(reason)):
        falsify(commutator_square_poly(), R=R)
    # The largest radius at which nothing overflows still runs.
    assert falsify(commutator_square_poly(), trials=0, N=4, R=1e76) is None


@pytest.mark.parametrize(
    "p,largest",
    [(commutator_square_poly(), 136), (NCPoly(3, {(1, 2, 3, 3, 2, 1): 1.0}), 57)],
)
def test_falsify_size_limit_edges(p, largest, monkeypatch):
    # FALSIFY_CHUNK tuples of the products of every word up to ceil(deg p / 2),
    # word count times N^2 + that degree each, against MAX_MOMENT_SIZE:
    # N <= 136 at (n, deg p) = (2, 4) and N <= 57 at (3, 6).
    monkeypatch.setattr(certify, "structured_library", lambda nvars, N: [])
    assert falsify(p, trials=0, N=largest) is None
    for N in (largest + 1, 10**6, 10**18):
        with pytest.raises(ValueError, match=re.escape(f"matrix size N = {N} too large")):
            falsify(p, trials=0, N=N)


# -- the batched falsify screen -----------------------------------------------


def _screen_polys(n: int, rng) -> list:
    """Polynomials in n variables: a self-adjoint constant with odd-length
    words, self-adjoint mixed lengths 0-5 with complex coefficients on
    reversed pairs, and a single word of even length."""
    def symmetric(a):
        return a + a.adjoint()

    letters = [int(j) for j in rng.integers(1, n + 1, size=12)]
    odd = symmetric(NCPoly(n, {(): 0.25, (letters[0],): -0.5, tuple(letters[1:4]): 0.75 - 0.5j}))
    mixed = NCPoly(n, {tuple(letters[:k]): complex(rng.normal(), rng.normal()) for k in range(6)})
    mixed = symmetric(mixed + random_poly(rng, n, 4, n_terms=6))
    return [odd, mixed, NCPoly(n, {tuple(letters[4:8]): 1.0})]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
def test_batched_traces_equal_scalar_trace(n, N, R):
    rng = make_rng(70 + 9 * n + 3 * N + int(2 * R))
    for p in _screen_polys(n, rng):
        drawn = certify.random_hermitians(rng, (11, n), N, R)
        traces = certify._real_traces(p, certify.hermitian_parts(drawn))
        for k, X in enumerate(drawn):
            expected = certify._real_trace(p, certify.as_matrix_tuple(X))
            assert abs(traces[k] - expected) <= 1e-12 * p.r_norm(R)


def test_batched_traces_of_the_zero_polynomial_and_a_constant():
    stack = certify.random_hermitians(make_rng(71), (3, 2), 4, 1.0)
    assert np.array_equal(certify._real_traces(NCPoly(2, {}), stack), np.zeros(3))
    constant = certify._real_traces(NCPoly(2, {(): 1.5 + 2j}), stack)
    assert np.array_equal(constant, np.full(3, 1.5))


def test_batched_traces_of_one_word_pair_its_halves():
    # tr(X1 X2 X1 X2 X3) = tr((X1 X2) (X1 X2 X3)): a pairing that dropped the
    # transpose of the right half or split the word anywhere else than in
    # its middle would change it.
    drawn = certify.random_hermitians(make_rng(72), (4, 3), 3, 1.0)
    word = (1, 2, 1, 2, 3)
    for coeff in (1.0, 1j, 0.6 - 0.8j):
        p = NCPoly(3, {word: coeff})
        expected = [
            (coeff * np.trace(X[0] @ X[1] @ X[0] @ X[1] @ X[2])).real / 3 for X in drawn
        ]
        assert np.allclose(certify._real_traces(p, drawn), expected, rtol=0, atol=1e-14)


def test_batched_traces_peak_below_prefix_products():
    # A sparse high-degree polynomial: the prefix products of its words are
    # 20 stacks, the products of their halves' prefixes 11.
    import tracemalloc

    p = NCPoly(3, {(1,) * 10: 1.0, (3,) * 10: 1.0})
    stack = certify.hermitian_parts(certify.random_hermitians(make_rng(73), (64, 3), 8, 1.0))
    peaks = []
    for traces in (certify._real_traces, reference_real_traces):
        tracemalloc.start()
        try:
            values = traces(p, stack)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.allclose(values, reference_real_traces(p, stack), rtol=0, atol=1e-12)
    assert peaks[0] <= peaks[1]


# -- soundness ----------------------------------------------------------------


def test_certificate_soundness_on_random_tuples():
    rng = make_rng(53)
    p = commutator_square_poly()
    cert = certify_sos(p, 2)
    eps = verify_certificate(p, cert)
    for _ in range(25):
        X = random_hermitian_tuple(rng, 2, int(rng.integers(2, 5)), radius=1.0)
        value = normalized_trace(evaluate(p, X)).real
        assert value >= -eps - 1e-12
