import cmath
import dataclasses
import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

from nctrace.algebra import (
    COEFF_PRUNE,
    Factors,
    NCPoly,
    cyclic_canonical,
    evaluate,
    normalized_trace,
    pair,
    star_product,
    words_up_to,
)
from nctrace.certify import (
    RESIDUAL_TOL,
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
from nctrace import algebra, certify, sampling
from nctrace.moments import MomentSequence, WordIndex, hermitian_parts, moment_sequence
from nctrace.parsing import format_polys, parse_poly, strip_comments
from nctrace.sdp import (
    ClassConstraints,
    ClassLabels,
    NoFeasiblePoint,
    feasibility_solve,
    minimize_linear,
)

from helpers import (
    commutator_square_poly,
    make_rng,
    random_hermitian,
    random_hermitian_tuple,
    random_poly,
    reference_class_labels,
    reference_chunk_traces,
    reference_class_positions,
    reference_extract_factors,
    reference_extract_moments,
    reference_falsify,
    reference_format_poly,
    reference_gram_sum_of_squares,
    reference_real_traces,
    reference_residual,
    reference_sum_of_squares,
    square_sum,
    term_bits,
    workload,
    workload_certificates,
)


def exact_commutator_factor() -> NCPoly:
    """b = (i/sqrt(2)) (Y1 Y2 - Y2 Y1); the known exact square factor."""
    s = 1j / np.sqrt(2.0)
    return NCPoly(2, {(1, 2): s, (2, 1): -s})


# -- Gram problem assembly ----------------------------------------------------


def least_words(classes) -> list:
    """Each class's least word, by label."""
    return [classes.index.word(rep) for rep in classes.reps.tolist()]


def rhs_by_word(gp, nvars: int) -> dict:
    """A Gram problem's class totals keyed by their classes' least words."""
    return dict(zip(least_words(certify.cyclic_classes(nvars, gp.degree)), gp.rhs.tolist()))


def test_gram_problem_square_of_one_variable():
    p = NCPoly(1, {(1, 1): 1.0})
    gp = build_gram_problem(p, 1)
    assert gp.basis == [(), (1,)]
    assert gp.n_classes == 3
    rhs = rhs_by_word(gp, 1)
    assert rhs[()] == 0
    assert rhs[(1,)] == 0
    assert rhs[(1, 1)] == 1.0
    # The unique feasible Gram matrix is E_11; check it against the rows.
    G = np.zeros((2, 2))
    G[1, 1] = 1.0
    assert np.max(np.abs(gp.constraints.residuals(G))) < 1e-14


def test_gram_problem_zero_polynomial():
    gp = build_gram_problem(NCPoly.zero(2), 1)
    assert all(v == 0 for v in gp.rhs.tolist())
    assert np.max(np.abs(gp.constraints.rhs)) == 0


def test_gram_problem_commutator_rhs():
    rhs = rhs_by_word(build_gram_problem(commutator_square_poly(), 2), 2)
    assert rhs[(1, 1, 2, 2)] == pytest.approx(1.0)
    assert rhs[(1, 2, 1, 2)] == pytest.approx(-1.0)
    others = {
        rep: value
        for rep, value in rhs.items()
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
    reps = list(rhs_by_word(gp, 2))
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
    assert np.array_equal(got.checked.labels, labels)
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
    rhs = rhs_by_word(gp, nvars)
    assert list(rhs) == reps
    assert rhs == {rep: reduced.coeff(rep) for rep in reps}
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
    rhs = rhs_by_word(build_gram_problem(p, 2), 2)
    assert rhs == {rep: p.cyclic_reduce().coeff(rep) for rep in rhs}
    assert rhs[(1, 1, 2, 2)] == 0


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
    polys.append(NCPoly._from_valid(nvars, {word: np.inf, rotated: -np.inf, (): 2.0}))
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


def test_class_totals_at_the_pruning_edge_are_kept_as_cyclic_reduce_keeps_them():
    # a = s + c on Y1 Y2 Y3 and b = -s on its rotation Y2 Y3 Y1, with
    # |s| = 4 COEFF_PRUNE and |c| = COEFF_PRUNE, and their adjoints on the
    # reversed class: a self-adjoint p with two terms above the threshold on
    # each class and a total within a few ulps of it.  The class is not its
    # own reversal, so the total is complex (on Y1 Y2 and Y2 Y1 it would be
    # real, where every magnitude rule agrees).  With numpy 2.4 on x86_64,
    # np.abs and Python's abs() put about one in ten of these totals on
    # either side of the threshold.
    classes = certify.cyclic_classes(3, 2)
    kept = set()
    for theta, phi in make_rng(31).uniform(0, 2 * np.pi, size=(200, 2)).tolist():
        s = cmath.rect(4 * COEFF_PRUNE, phi)
        a, b = s + cmath.rect(COEFF_PRUNE, theta), -s
        p = NCPoly(3, {(1, 2, 3): a, (2, 3, 1): b, (3, 2, 1): a.conjugate(), (1, 3, 2): b.conjugate()})
        assert p.is_symmetric(tol=0.0)
        values = classes.coefficients(p).tolist()
        got = {w: (v.real.hex(), v.imag.hex()) for w, v in zip(least_words(classes), values) if v}
        reduced = p.cyclic_reduce()
        assert got == {w: (c.real.hex(), c.imag.hex()) for w, c in reduced.terms.items()}, (a, b)
        kept.add(len(reduced.terms))
    assert kept == {0, 2}  # totals on both sides of the threshold


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


def test_factor_entries_at_the_pruning_edge_are_kept_as_the_constructor_keeps_them():
    # G = x x^H with x = (0.01, c), |c| = COEFF_PRUNE: the one factor's entry
    # on Y1 lands within a few ulps of the threshold, from |v| = 1e-13, above
    # the eigenvector cutoff.  The reference prunes it with Python's abs().
    basis = words_up_to(1, 1)
    kept = set()
    for theta in make_rng(32).uniform(0, 2 * np.pi, size=200).tolist():
        x = np.array([0.01, cmath.rect(COEFF_PRUNE, theta)])
        G = np.outer(x, x.conj())
        got = certify.extract_factors(G, basis, 1)
        expected = reference_extract_factors(G, basis, 1)
        assert [term_bits(b) for b in got] == [term_bits(b) for b in expected], theta
        kept.add(len(got[0].terms))
    assert kept == {1, 2}  # entries on both sides of the threshold


@pytest.mark.parametrize("nvars,d,R", [(1, 2, 1.0), (2, 2, 1.5), (3, 2, 1.0), (2, 3, 2.0)])
def test_extracted_moments_match_reference_bit_for_bit(nvars, d, R):
    rng = make_rng(800 + 10 * nvars + d)
    classes = certify.cyclic_classes(nvars, d)
    radii = R ** classes.index.lengths[classes.reps].astype(float)
    constraints = ClassConstraints(classes.checked.labels, pinned=0, radii=radii)
    _, positions = reference_class_positions(nvars, d)
    m = len(classes.checked.labels)
    real = (3.0 * random_hermitian(rng, m).real).astype(complex)
    for M in (0.3 * random_hermitian(rng, m), real):
        # A small empty-word entry makes most class values reach their bound.
        M[0, 0] = 0.5
        got = certify._extract_moments(M, constraints, classes)
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


def _dense_square_sum(seed: int, rank: int, nvars: int = 2, d: int = 2) -> NCPoly:
    """sum b* b over ``rank`` random b with a complex coefficient on every
    word up to d, as certify-grid's reference sums: the Newton cut keeps
    every word."""
    rng, words = make_rng(seed), words_up_to(nvars, d)
    p = NCPoly.zero(nvars)
    for _ in range(rank):
        b = NCPoly(nvars, dict(zip(words, rng.normal(size=len(words)) + 1j * rng.normal(size=len(words)))))
        p = p + star_product(b.adjoint(), b)
    return p


def test_certify_stall_is_distinct_from_infeasible():
    # An iteration cap too small to decide must surface as a solver failure,
    # never as an infeasibility report.  The input must keep its whole
    # basis: the Newton cut certifies the commutator square in 1 iteration.
    # This dense rank-2 sum keeps every word and takes 46 iterations.
    from nctrace.certify import SolverStalled

    with pytest.raises(SolverStalled):
        certify_sos(_dense_square_sum(3, 2), 2, max_iter=5)


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


@pytest.mark.parametrize("seed", [1, 4, 5, 7])
def test_rank_one_sums_certify_within_a_few_thousand_iterations(seed):
    # Without Anderson acceleration of the Gram loop these took 41,364 to
    # 75,528 iterations; with it 273, 2,672, 617 and 848.  A cap of 5,000
    # raises SolverStalled on any solve that needs more.
    b = random_poly(make_rng(seed), 2, 2, n_terms=7)
    p = star_product(b.adjoint(), b)
    cert = certify_sos(p, 2, max_iter=5000)
    assert isinstance(cert, Certificate)
    assert verify_certificate(p, cert) <= 1e-6


def test_commutator_square_certifies_at_degree_four_within_400_iterations():
    # On the whole basis: 1,298 iterations in the plain loop, 206 with
    # acceleration.  On its Newton cut (Y1 Y2 and Y2 Y1): 1.
    p = commutator_square_poly()
    cert = certify_sos(p, 4, max_iter=400)
    assert isinstance(cert, Certificate)
    assert verify_certificate(p, cert) <= 1e-8


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


@pytest.mark.parametrize("d", [5, 10])
def test_negative_square_in_one_variable_is_separated_at_high_degree(d):
    # One letter's words span at most N dimensions, so the anchor of an
    # N x N tuple with N^2 >= 4m was singular from d = 5 on (least
    # eigenvalue 7.8e-17 at d = 5), the separator test never fired, and
    # d = 10 ran to the iteration cap.  The Chebyshev-node anchor is
    # positive definite.
    assert np.linalg.eigvalsh(certify.cyclic_classes(1, d).anchor)[0] > 1e-8
    p = NCPoly(1, {(1, 1): -1.0})
    report = certify_sos(p, d)
    assert isinstance(report, InfeasibilityReport) and report.iterations <= 20
    assert_gram_separator(p, d, report.separator)


def test_certify_default_degree_and_symmetry_gate():
    cert = certify_sos(NCPoly(1, {(1, 1): 1.0}))
    assert cert.degree == 1
    with pytest.raises(ValueError, match="self-adjoint"):
        certify_sos(NCPoly(2, {(1, 2): 1.0}))


def test_symmetry_gate_is_relative_to_the_l1_norm():
    # A large multiple of a sum of squares is self-adjoint only to rounding:
    # its star products differ from their reversals' conjugates by about
    # 1e-16 relative, past the absolute 1e-10 at 1e8.
    q = _dense_square_sum(3, 2).scale(1e8)
    assert not q.is_symmetric(certify.SYMMETRY_TOL)
    cert = certify_sos(q, 2)
    assert verify_certificate(q, cert) <= RESIDUAL_TOL * q.r_norm(1.0)
    # A defect of 2 * 0.05 in l1 is above 1e-10 * ||p||_1 = 0.02, and one of
    # 2 * 0.005 is below it.
    p = commutator_square_poly().scale(1e8)
    assert p.r_norm(1.0) == 2e8
    with pytest.raises(ValueError, match="polynomial is not self-adjoint"):
        build_gram_problem(p + NCPoly(2, {(1, 2): 0.05}), 2)
    build_gram_problem(p + NCPoly(2, {(1, 2): 0.005}), 2)
    # Up to ||p||_1 = 1 the gate is the absolute one.
    small = NCPoly(1, {(1, 1): 0.5, (1,): 1e-10})
    build_gram_problem(small, 1)
    with pytest.raises(ValueError, match="polynomial is not self-adjoint"):
        build_gram_problem(small + NCPoly(1, {(1,): 1e-10j}), 1)


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


# -- the Newton cut -----------------------------------------------------------


def _bmv(m: int, k: int) -> NCPoly:
    """S_{m,k}(Y1^2, Y2^2): every word of m - k letters Y1^2 and k letters
    Y2^2, each with coefficient 1."""
    terms = {}
    for picks in itertools.combinations(range(m), k):
        terms[sum(((2, 2) if j in picks else (1, 1) for j in range(m)), ())] = 1.0
    return NCPoly(2, terms)


def _rank_two_draw(draw: int) -> NCPoly:
    """The draw-th sum b1* b1 + b2* b2 of two random_poly(rng, 3, 2, n_terms=5)
    from make_rng(72)."""
    rng = make_rng(72)
    for _ in range(draw):
        p = NCPoly.zero(3)
        for _ in range(2):
            b = random_poly(rng, 3, 2, n_terms=5)
            p = p + star_product(b.adjoint(), b)
    return p


def _cut_inputs() -> list:
    """(name, p, d): the families and their negations at every cell,
    random sums of rank 1, 2 and 8 of sparse squares and of dense ones, and
    the zero polynomial, whose cut keeps no word."""
    cases = [("zero", NCPoly.zero(2), 2)]
    for family, terms in sorted(FAMILIES.items()):
        for nvars, d in [(2, 2), (3, 2), (2, 3)]:
            q = NCPoly(nvars, {**terms, **({(3, 3): 1.0} if nvars == 3 else {})})
            cases += [(f"{family} {nvars} {d}", q, d), (f"-{family} {nvars} {d}", -1 * q, d)]
    rng = make_rng(38)
    for rank in (1, 2, 8):
        q = NCPoly.zero(2)
        for _ in range(rank):
            b = random_poly(rng, 2, 2, n_terms=6)
            q = q + star_product(b.adjoint(), b)
        cases += [(f"sparse rank {rank}", q, 2), (f"dense rank {rank}", _dense_square_sum(rank, rank), 2)]
    return cases


@pytest.mark.parametrize("nvars,d", [(1, 3), (2, 2), (3, 2), (2, 3), (5, 1)])
def test_letters_are_those_of_the_words(nvars, d):
    index = certify.cyclic_classes(nvars, d).index
    rows, letters, counts = certify._letters(index, np.arange(len(index)))
    words = words_up_to(nvars, 2 * d)
    expected = [(r, i - 1, w.count(i)) for r, w in enumerate(words) for i in sorted(set(w))]
    assert list(zip(rows.tolist(), letters.tolist(), counts.tolist())) == expected


def _kept_by_every_functional(classes, rhs) -> list:
    """The basis positions w with 2 l(w) <= max l(c) over the classes c of
    nonzero sum, for every l among +-(length), +-e_i and +-(e_i - e_j),
    each functional evaluated on word tuples."""
    n = classes.index.n
    units = [[int(k == i) for k in range(n)] for i in range(n)]
    functionals = [[1] * n] + units + [[a - b for a, b in zip(u, v)] for u in units for v in units]
    functionals += [[-a for a in f] for f in functionals]
    support = [classes.index.word(int(r)) for r in classes.reps[np.flatnonzero(rhs)]]

    def value(f, word):
        return sum(f[letter - 1] for letter in word)

    highest = [max(value(f, c) for c in support) for f in functionals]
    return [
        k for k, w in enumerate(classes.basis)
        if all(2 * value(f, w) <= top for f, top in zip(functionals, highest))
    ]


@pytest.mark.parametrize("nvars,d", [(1, 3), (2, 2), (3, 2), (2, 3), (4, 1)])
def test_newton_cut_is_that_of_every_functional(nvars, d):
    # Random supports, from one class to every class.
    classes = certify.cyclic_classes(nvars, d)
    rng = np.random.default_rng(nvars * 10 + d)
    for size in [1, 2, 3, 5, 8, len(classes.reps) // 2, len(classes.reps)]:
        for _ in range(10):
            rhs = np.zeros(len(classes.reps), complex)
            rhs[rng.choice(len(classes.reps), min(size, len(classes.reps)), replace=False)] = 1.0
            expected = _kept_by_every_functional(classes, rhs)
            assert certify._newton_kept(classes, rhs).tolist() == expected


def test_newton_cut_at_the_largest_cell_is_sparse():
    # b* b with b = Y1 + ... + Y590, the largest n the size limit admits:
    # 174,345 classes of nonzero sum.  A classes-by-letters array of their
    # letter counts would take 820 MB, and a pass over it per letter minutes.
    classes = certify.cyclic_classes(590, 1)
    rhs = (classes.index.lengths[classes.reps] == 2).astype(complex)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        kept, _ = certify._cut_problem(classes, rhs)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept.tolist() == list(range(1, 591))
    assert peak < 64 * 2**20
    assert seconds < 10


def test_newton_cut_decisions_equal_the_full_solve():
    # The cut problem is feasible exactly when the full one is, so certify
    # decides as the full Gram problem, solved directly, does.
    kinds = {Certificate: "feasible", InfeasibilityReport: "infeasible-at-tolerance"}
    cut = 0
    for name, p, d in _cut_inputs():
        problem = build_gram_problem(p, d)
        full = feasibility_solve(problem.constraints, max_iter=20_000)
        assert kinds[type(certify_sos(p, d))] == full.status, name
        cut += certify._cut_problem(certify.cyclic_classes(p.nvars, d), problem.rhs) is not None
    assert cut == 8  # the six positive families and the two sparse low-rank sums


@pytest.mark.parametrize(
    "name,p,d,max_iter,words",
    [
        ("commutator square", commutator_square_poly(), 2, 5, 2),
        ("commutator square", commutator_square_poly(), 3, 5, 2),
        ("commutator square", commutator_square_poly(), 4, 5, 2),
        ("rank-2 draw 1", _rank_two_draw(1), 2, 1000, 11),
        ("rank-2 draw 3", _rank_two_draw(3), 2, 1000, 8),
        ("S_{4,1}", _bmv(4, 1), 4, 1000, 4),
        ("S_{5,2}", _bmv(5, 2), 5, 1000, 10),
        ("S_{6,2}", _bmv(6, 2), 6, 1000, 15),
    ],
)
def test_newton_cut_certifies_what_the_full_basis_could_not(name, p, d, max_iter, words):
    # On the whole basis these took 24, 24 and 206 iterations; the cap of
    # 200,000 and 123,560 iterations; and 20,000 or more (ROADMAP item 2).
    cert = certify_sos(p, d, max_iter=max_iter)
    assert isinstance(cert, Certificate), name
    assert len(cert.factors.words) == words
    assert verify_certificate(p, cert) <= RESIDUAL_TOL * max(1.0, p.r_norm(1.0))


def test_a_stall_after_the_cut_solve_counts_both_solves():
    # max_iter caps the cut solve and then the whole-basis solve.
    from nctrace.certify import SolverStalled

    with pytest.raises(SolverStalled, match="after 10 iterations") as stalled:
        certify_sos(_rank_two_draw(1), 2, max_iter=5)
    assert stalled.value.report.iterations == 10


def test_negated_bmv_keeps_a_full_basis_separator():
    # -S_{5,2} has a diagonal-only class of negative sum on its cut, so the
    # whole basis decides it and carries the separator.
    p = -1 * _bmv(5, 2)
    report = certify_sos(p, 5)
    assert isinstance(report, InfeasibilityReport)
    assert report.separator.shape == (63, 63)
    assert_gram_separator(p, 5, report.separator)


def test_an_input_the_cut_keeps_whole_takes_the_full_solve_bit_for_bit():
    # A full-rank sum has the empty word and every Y_i^(2d) in its support.
    from nctrace.sdp import DEFAULT_MAX_ITER

    for nvars, d in [(2, 2), (3, 2), (2, 3)]:
        p = _dense_square_sum(5, len(words_up_to(nvars, d)), nvars, d)
        classes = certify.cyclic_classes(nvars, d)
        scale = certify._scale(p.r_norm(1.0))
        problem = build_gram_problem(p, d, scale)
        assert certify._cut_problem(classes, problem.rhs) is None
        report = feasibility_solve(problem.constraints, 1e-9, DEFAULT_MAX_ITER, lambda: classes.anchor)
        expected = certify.extract_factors(scale * report.solution, problem.basis, nvars)
        factors = certify_sos(p, d).factors
        assert factors.words == expected.words
        assert factors.matrix.tobytes() == expected.matrix.tobytes()


def test_certify_is_scale_free():
    # The solves are those of p / 2^round(log2 ||p||_1).  Before, 1e8 times
    # the commutator square ran to the 200,000-iteration cap on its stopping
    # test, which was absolute, and so did a dense sum times 1e8.
    from nctrace.certify import SolverStalled

    p = commutator_square_poly()
    for factor in (1e6, 1e8, 1e10):
        q = p.scale(factor)
        cert = certify_sos(q, 2, max_iter=5)
        assert verify_certificate(q, cert) <= RESIDUAL_TOL * q.r_norm(1.0)
    report = certify_sos(p.scale(-1e8), 2)
    assert isinstance(report, InfeasibilityReport) and report.iterations == 10
    assert_gram_separator(p.scale(-1e8), 2, report.separator)
    # A power of 2 (2^26, near 1e8) scales every step of the solve exactly:
    # the factors by 2^13 and a stall's gap by 2^26, to the bit.
    q = _dense_square_sum(3, 2)
    q = (q + q.adjoint()).scale(0.5)  # exactly self-adjoint, at any scale
    big = q.scale(2.0**26)
    assert big.r_norm(1.0) == 2.0**26 * q.r_norm(1.0)
    cert, expected = certify_sos(big, 2, max_iter=1000), certify_sos(q, 2)
    assert cert.factors.matrix.tobytes() == (2.0**13 * expected.factors.matrix).tobytes()
    with pytest.raises(SolverStalled) as stalled:
        certify_sos(big, 2, max_iter=5)
    with pytest.raises(SolverStalled) as unscaled:
        certify_sos(q, 2, max_iter=5)
    assert stalled.value.report.gap == 2.0**26 * unscaled.value.report.gap


def test_certify_builds_no_factor_polynomial_it_does_not_hand_out():
    # The writer and the re-check read the factor matrix; a caller reading
    # the factors gets the polynomials of its rows.
    p = _dense_square_sum(5, 7)
    cert = certify_sos(p, 2)
    texts = format_polys(cert.factors)
    assert cert.factors._polys is None
    expected = [NCPoly(2, dict(zip(cert.factors.words, row))) for row in cert.factors.matrix]
    assert [term_bits(b) for b in cert.factors] == [term_bits(b) for b in expected]
    assert texts == [reference_format_poly(b) for b in expected]


# -- verify_certificate -------------------------------------------------------


def test_verify_exact_certificate():
    p = NCPoly(1, {(1, 1): 1.0})
    cert = Certificate(
        degree=1,
        factors=[NCPoly(1, {(1,): 1.0})],
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
        residual_l1=0.0,
    )
    assert verify_certificate(p, cert) == pytest.approx(2 * eps + eps**2, rel=1e-9)


def test_verify_empty_certificate_of_zero():
    cert = Certificate(degree=1, factors=[], residual_l1=0.0)
    assert verify_certificate(NCPoly.zero(2), cert) == 0.0


@pytest.mark.parametrize("nvars,D", [(1, 7), (2, 6), (3, 4), (4, 3)])
def test_rotation_table_is_the_position_of_each_least_rotation(nvars, D):
    words = words_up_to(nvars, D)
    position = {w: k for k, w in enumerate(words)}
    table = certify._rotation_table.__wrapped__(nvars, D)
    assert table.tolist() == [position[cyclic_canonical(w)] for w in words]
    assert not table.flags.writeable


def test_verify_refuses_other_variables_and_words_past_the_size_limit():
    # Word positions are numerals in p's variables, and the re-check's
    # rotation table covers the words up to twice the half-degree they need.
    square = Certificate(degree=1, factors=[NCPoly(2, {(2,): 1.0})])
    with pytest.raises(ValueError, match="mismatched variable counts: 1 vs 2"):
        verify_certificate(NCPoly(1, {(1, 1): 1.0}), square)
    with pytest.raises(ValueError, match="Gram problem too large: half-degree 15 in 2"):
        verify_certificate(NCPoly(2, {(1,) * 30: 1.0}), Certificate(degree=15, factors=[]))


@pytest.mark.parametrize("nvars,d", [(1, 3), (2, 2), (3, 2), (2, 3)])
def test_square_sum_matches_product_reference(nvars, d):
    rng = make_rng(900 + 10 * nvars + d)
    for count in (1, 3, 8):
        factors = [random_poly(rng, nvars, d, n_terms=7) for _ in range(count)]
        got = square_sum(factors, nvars)
        expected = reference_sum_of_squares(factors, nvars)
        # Each coefficient's rounding is relative to the magnitudes it sums.
        magnitudes = reference_sum_of_squares(
            [NCPoly(nvars, {w: abs(c) for w, c in b.terms.items()}) for b in factors],
            nvars,
        )
        assert set(got.terms) == set(expected.terms)
        for word, coeff in expected.terms.items():
            assert abs(got.terms[word] - coeff) <= 1e-14 * magnitudes.terms[word].real


def _square_sum_cases():
    """Factor lists where the Gram product has far more entries than the
    products of terms, or none, or sums that cancel below COEFF_PRUNE."""
    rng = make_rng(910)
    words = words_up_to(2, 5)[1:51]
    one_term = [NCPoly(2, {w: complex(rng.normal(), rng.normal())}) for w in words]
    basis = words_up_to(2, 3)
    disjoint = [
        NCPoly(2, {w: complex(rng.normal(), rng.normal()) for w in basis[k::3]})
        for k in range(3)
    ]
    tiny = [NCPoly(2, {(1,): 1.0, (2,): 1e-8})]  # conj(1e-8) 1e-8 is below COEFF_PRUNE
    cancelling = [  # cross terms cancel exactly on Y1 Y2, to 1.4e-17 on Y1^2 Y2
        NCPoly(2, {(1,): 1.0, (2,): 1.0}),
        NCPoly(2, {(1,): 1.0, (2,): -1.0}),
        NCPoly(2, {(1,): 0.1, (1, 2): 0.9}),
        NCPoly(2, {(1,): 0.3, (1, 2): -0.3}),
    ]
    return {"one-term": one_term, "disjoint": disjoint, "empty": [], "tiny": tiny,
            "cancelling": cancelling}


@pytest.mark.parametrize("case", ["one-term", "disjoint", "empty", "tiny", "cancelling"])
def test_square_sum_of_sparse_and_cancelling_factors(case):
    factors = _square_sum_cases()[case]
    got = square_sum(factors, 2)
    expected = reference_sum_of_squares(factors, 2)
    assert set(got.terms) == set(expected.terms)
    for word, coeff in expected.terms.items():
        assert abs(got.terms[word] - coeff) <= 1e-15 * abs(coeff)
    if case == "one-term":
        assert len(got.terms) == 50  # reverse(w) + w differs for distinct w
    if case == "empty":
        assert got.terms == {}
    if case == "tiny":
        assert (2, 2) not in got.terms
    if case == "cancelling":
        assert not {(1, 2), (2, 1), (1, 1, 2), (2, 1, 1)} & set(got.terms)


def _assert_square_sum_equals_gram_loop(factors, nvars):
    got = square_sum(factors, nvars)
    assert term_bits(got) == term_bits(reference_gram_sum_of_squares(factors, nvars))
    return got


def test_square_sum_equals_the_gram_loop_bit_for_bit():
    # The random factors use words in no basis order, many not prefixes of
    # the basis (Y2 Y1^2 before Y1), and some share none; the cases of
    # _square_sum_cases have entries that vanish, so words take their place
    # at their first nonzero entry, not their first entry.
    rng = make_rng(930)
    for nvars, count, n_terms in ((1, 4, 3), (2, 1, 9), (2, 6, 4), (3, 5, 7)):
        words = [w for w in words_up_to(nvars, 4) if rng.random() < 0.3]
        for _ in range(3):
            factors = []
            for _ in range(count):
                chosen = rng.choice(len(words), size=min(n_terms, len(words)), replace=False)
                factors.append(NCPoly(nvars, {
                    words[k]: complex(rng.normal(), rng.normal()) for k in chosen.tolist()}))
            _assert_square_sum_equals_gram_loop(factors, nvars)
    for factors in _square_sum_cases().values():
        _assert_square_sum_equals_gram_loop(factors, 2)
    # Y1 Y2 is first seen at entry (1, Y1 Y2), before Y1^2 at (Y1, Y1), but
    # that entry vanishes: Y1 Y2 takes its place at (Y1, Y2), after Y1^2.
    factors = [NCPoly(2, {(): 1.0, (1,): 2.0}), NCPoly(2, {(1, 2): 1.0, (2,): 3.0}),
               NCPoly(2, {(1,): 1.0, (2,): 1.0})]
    got = _assert_square_sum_equals_gram_loop(factors, 2)
    order = list(got.terms)
    assert order.index((1, 1)) < order.index((1, 2))


def test_square_sum_of_every_certify_grid_certificate_equals_the_gram_loop():
    for p, cert in workload_certificates(98):
        _assert_square_sum_equals_gram_loop(cert.factors, p.nvars)


def _tampered(p, cert) -> dict:
    """Three wrong copies of a certificate's factors, each Factors over the
    certificate's words (and one more): the last factor dropped, the
    largest coefficient of the first factor scaled by 1 + 1e-3, and an
    extra factor Y1^(2d+1), a word outside p's support."""
    factors, d = cert.factors, cert.degree
    words, B = factors.words, factors.matrix
    k = int(np.argmax(np.abs(B[0])))
    scaled = B.copy()
    scaled[0, k] *= 1 + 1e-3
    outside = (1,) * (2 * d + 1)
    assert p.degree() <= 2 * d < len(outside)
    extra = np.zeros((len(B) + 1, len(words) + 1), dtype=complex)
    extra[:-1, :-1], extra[-1, -1] = B, 1.0
    return {
        "dropped": Factors(p.nvars, words, B[:-1].copy()),
        "scaled": Factors(p.nvars, words, scaled),
        "extra": Factors(p.nvars, (*words, outside), extra),
    }


def test_the_re_check_refuses_every_tampered_certify_grid_certificate():
    # The re-check of a wrong certificate is the term-by-term residual to the
    # bit, from the factor matrix and from the written factors parsed back,
    # and it is above the acceptance limit.  The one exception is a last
    # factor whose own reduced square is below the limit (one of the 103, of
    # weight 2.7e-6): the certificate without it is still a certificate.
    certs = workload_certificates(98)
    assert len(certs) == 103
    kept = 0
    for p, cert in certs:
        # p's terms in reverse order sum the residual in another order.
        backwards = NCPoly(p.nvars, dict(reversed(p.terms.items())))
        assert verify_certificate(backwards, cert) == reference_residual(backwards, cert.factors)
        limit = RESIDUAL_TOL * max(1.0, p.r_norm(1.0))
        last = reference_residual(NCPoly.zero(p.nvars), cert.factors[-1:])
        for name, factors in _tampered(p, cert).items():
            plain = [parse_poly(text, p.nvars) for text in format_polys(factors)]
            expected = reference_residual(p, plain)
            assert verify_certificate(p, Certificate(cert.degree, factors)) == expected, name
            assert verify_certificate(p, Certificate(cert.degree, plain)) == expected, name
            if name == "dropped" and last <= limit:
                assert expected <= limit
                kept += 1
            else:
                assert expected > limit, (name, expected, limit)
    assert kept == 1


def test_certify_walks_a_bulk_read_polynomial_once(monkeypatch):
    # p's word positions are read off its words on first use and kept: the
    # class totals walk p once, the re-check reads what they kept, and no
    # least rotation is taken per word.  The re-check's own walk is over the
    # certificate's basis words and their reversals.  A second certify of
    # the same p walks none of its words.
    wl = workload("certify-grid", 98)
    op = next(op for op in wl.ops if op.group == "sos" and op.cell == (2, 3))
    text = strip_comments(wl.files[op.input])
    expected = certify_sos(parse_poly(text, 2), 3)
    p = parse_poly(text, 2)
    bad = parse_poly("Y2^2 + 1e308*Y1 Y2 + 1e308*Y2 Y1 + 1e308*Y1^2", 2).scale(10.0)
    asymmetric = parse_poly("Y1 Y2 + Y1^2", 2)
    walked, walk = [], algebra.word_positions

    def recording(words, nvars):
        words = list(words)
        walked.append(len(words))
        return walk(words, nvars)

    def refused(*args):
        raise AssertionError("took a least rotation")

    monkeypatch.setattr(algebra, "_least_rotation", refused)
    monkeypatch.setattr(algebra, "word_positions", recording)
    monkeypatch.setattr(certify, "word_positions", recording)
    cert = certify_sos(p, 3)
    assert format_polys(cert.factors) == format_polys(expected.factors)
    assert cert.residual_l1.hex() == expected.residual_l1.hex()
    basis = 2 * len(cert.factors.words)
    assert walked == [len(p.terms), basis] and len(p.terms) > basis
    assert certify_sos(p, 3).residual_l1.hex() == expected.residual_l1.hex()
    assert walked == [len(p.terms), basis, basis]
    message = re.escape("coefficient (inf+0j) of word (1, 2) is not finite")
    with pytest.raises(ValueError, match=message):
        certify_sos(bad, 1)
    with pytest.raises(ValueError, match="polynomial is not self-adjoint"):
        certify_sos(asymmetric, 1)


# -- the factor matrix --------------------------------------------------------


def _assert_factor_matrix_reads_as_its_polynomials(p, G, basis, nvars):
    """extract_factors against the term-by-term reference: the same factors
    bit for bit, and from the factor matrix the same written text and the
    same residual as from the reference's plain list of polynomials."""
    factors = certify.extract_factors(G, basis, nvars)
    expected = reference_extract_factors(G, basis, nvars)
    assert [term_bits(b) for b in factors] == [term_bits(b) for b in expected]
    assert np.array_equal(factors.matrix != 0, [[w in b.terms for w in basis] for b in expected])
    assert format_polys(factors) == [reference_format_poly(b) for b in expected]
    residual = verify_certificate(p, Certificate(2, factors))
    assert residual == reference_residual(p, expected)
    assert verify_certificate(p, Certificate(2, expected)) == residual
    return factors


@pytest.mark.parametrize("seed", [98, 3])
def test_every_certify_grid_certificate_is_written_and_checked_as_its_polynomials(
    seed, monkeypatch
):
    # The Gram matrix of each certificate nctrace certify prints, recorded as
    # certify_sos hands it to extract_factors.
    extract, solutions = certify.extract_factors, []

    def recording(G, basis, nvars):
        solutions.append((G, basis))
        return extract(G, basis, nvars)

    monkeypatch.setattr(certify, "extract_factors", recording)
    wl = workload("certify-grid", seed)
    certified = 0
    for op in wl.ops:
        if op.expect == (0,):
            nvars = wl.polys[op.source][0]
            p = parse_poly(strip_comments(wl.files[op.input]), nvars)
            cert = certify_sos(p, op.cell[1])
            G, basis = solutions[-1]
            expected = reference_extract_factors(G, basis, nvars)
            assert format_polys(cert.factors) == [reference_format_poly(b) for b in expected]
            assert cert.residual_l1 == reference_residual(p, expected)
            certified += 1
    assert certified == 103


def _gram(vectors, values) -> np.ndarray:
    """sum_k values[k] v_k v_k^H over the rows v_k of vectors."""
    vectors = np.asarray(vectors, dtype=complex)
    return (vectors.T * np.asarray(values)) @ vectors.conj()


def _factor_cases() -> dict:
    """(nvars, basis, G): Gram matrices whose factors have entries zeroed by
    the 1e-14 cut, coefficients pruned at COEFF_PRUNE, rank 1, one variable."""
    rng = make_rng(940)
    basis = words_up_to(2, 2)
    # Two blocks: the larger eigenvalues' factors use only Y2 Y1 and Y2^2,
    # so the later factors' words come first in first-seen order.
    blocks = np.zeros((7, 7), dtype=complex)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    C = 10 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    blocks[:5, :5], blocks[5:, 5:] = A @ A.conj().T, C @ C.conj().T
    # An eigenvector 3e-13 off a basis word, at eigenvalue 1e-6: the entry
    # passes the 1e-14 cut, and 1e-3 times it is pruned.
    theta = 3e-13
    tilted = [[np.cos(theta), np.sin(theta), 0], [-np.sin(theta), np.cos(theta), 0], [0, 0, 1]]
    b = rng.normal(size=7) + 1j * rng.normal(size=7)
    one = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    return {
        "blocks": (2, basis, blocks),
        "pruned": (1, words_up_to(1, 2), _gram(tilted, [1.0, 1e-6, 0.5])),
        "rank one": (2, basis, np.outer(b.conj(), b)),
        "one variable": (1, words_up_to(1, 3), _gram(one, [2.0, 0.7])),
    }


@pytest.mark.parametrize("case", ["blocks", "pruned", "rank one", "one variable"])
def test_factor_matrix_reads_as_its_polynomials(case):
    nvars, basis, G = _factor_cases()[case]
    expected = reference_extract_factors(G, basis, nvars)
    p = reference_sum_of_squares(expected, nvars) + NCPoly(nvars, {(): 1e-9})
    factors = _assert_factor_matrix_reads_as_its_polynomials(p, G, basis, nvars)
    eigvecs = np.linalg.eigh((G + G.conj().T) / 2)[1][:, ::-1][:, : len(factors)].T
    cut = np.abs(eigvecs) > 1e-14
    if case == "blocks":
        assert (~cut).any() and list(factors.words) == basis
        assert set(factors[0].terms) == {(2, 1), (2, 2)}
    if case == "pruned":
        assert np.count_nonzero(factors.matrix) < np.count_nonzero(cut)
    if case == "rank one":
        assert len(factors) == 1 and factors.matrix.shape == (1, 7)


def test_a_changed_factor_list_is_read_from_its_polynomials():
    # Factors are read-only, and a list made from them and then changed is
    # read from the polynomials it holds.
    nvars, basis, G = _factor_cases()["blocks"]
    changes = [
        lambda f: f.append(NCPoly(2, {(1,): 1.0})),
        lambda f: f.__setitem__(0, f[1]),
        lambda f: f.reverse(),
        lambda f: f.pop(),
    ]
    for change in changes:
        factors = certify.extract_factors(G, basis, nvars)
        with pytest.raises((AttributeError, TypeError)):
            change(factors)
        plain = list(factors)
        change(plain)
        factors = plain
        assert format_polys(factors) == [reference_format_poly(b) for b in plain]
        got = square_sum(factors, nvars)
        assert term_bits(got) == term_bits(reference_gram_sum_of_squares(plain, nvars))


def test_square_sums_over_short_and_long_column_tuples_equal_the_gram_loop():
    small = [NCPoly(1, {(1,) * k: 1.0 for k in range(8)})]
    # 181 columns: 32,761 entries over 361 words of 2 to 362 letters.
    large = [NCPoly(1, {(1,) * k: 1.0 for k in range(1, 182)})]
    for factors in (small, large, small):
        _assert_square_sum_equals_gram_loop(factors, 1)
    # 8 columns: 64 entries over 15 words.
    assert len(square_sum(small, 1).terms) == 15


@pytest.mark.parametrize("nvars,d", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_constraints_from_a_cell_equal_constraints_from_its_raw_labels(nvars, d):
    rng = make_rng(940 + 10 * nvars + d)
    classes = certify.cyclic_classes(nvars, d)
    raw = np.array(classes.checked.labels)
    q = random_poly(rng, nvars, 2 * d, n_terms=10)
    rhs = build_gram_problem(q + q.adjoint(), d).constraints.rhs
    radii = 1.5 ** classes.index.lengths[classes.reps].astype(float)
    m = len(raw)
    G = random_hermitian(rng, m)
    # Moving one class of a transposed pair leaves the sums inconsistent.
    paired = np.flatnonzero(classes.checked.partner != np.arange(len(rhs)))
    moved = rhs.astype(complex)
    moved[paired[:1]] += 0.5j
    for kwargs in ({"rhs": rhs}, {"rhs": moved}, {"pinned": 0}, {"pinned": 0, "radii": radii}):
        cell = ClassConstraints(classes.checked, **kwargs)
        plain = ClassConstraints(raw, **kwargs)
        assert len(cell) == len(plain) == len(classes.reps)
        assert cell.dim == plain.dim == m
        for name in ("consistent", "defect", "start_scale", "pinned"):
            assert getattr(cell, name) == getattr(plain, name), name
        for name in ("labels", "counts", "_parts", "rhs", "radii"):
            a, b = getattr(cell, name), getattr(plain, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
        assert cell.project(G).tobytes() == plain.project(G).tobytes()
        assert cell.residuals(G).tobytes() == plain.residuals(G).tobytes()
    with pytest.raises(ValueError, match=re.escape(f"{len(rhs) - 1} class sums for {len(rhs)} classes")):
        ClassConstraints(classes.checked, rhs=rhs[:-1])
    with pytest.raises(ValueError, match="one entry per class"):
        ClassConstraints(classes.checked, pinned=0, radii=radii[:-1])
    assert not classes.checked.labels.flags.writeable and not classes.checked.partner.flags.writeable


def _answer(found):
    """A falsify answer as bytes-comparable data."""
    if found is None:
        return None
    return found.source, found.index, found.trace, [m.tobytes() for m in found.tuple.matrices]


@pytest.mark.parametrize("seed", [98, 3])
def test_falsify_plans_its_words_once_and_screens_as_a_plan_per_chunk(seed, monkeypatch):
    # Every chunk of the default search on the moments-gns falsify inputs is
    # screened bit for bit as when each chunk made its own plan.
    wl = workload("moments-gns", seed)
    polys = [NCPoly(*wl.polys[op.source]) for op in wl.ops if op.command == "falsify"]
    for p in polys:
        plan = certify._trace_plan(p)
        rng = make_rng(0)
        for start in range(0, 1000, certify.FALSIFY_CHUNK):
            drawn = sampling._draw_hermitians(rng, (min(64, 1000 - start), p.nvars), 4)
            norms = np.abs(np.linalg.eigvalsh(drawn)).max(axis=-1)
            stack = sampling._scale_to_radius(drawn, norms, 1.0)
            got = certify._real_traces(p, stack, plan)
            assert got.tobytes() == reference_chunk_traces(p, stack).tobytes()
    # Every answer, index, tuple and trace, is the one of the per-chunk plan:
    # none on these inputs, the library's on the refute inputs, and a random
    # trial's on q.
    refute = workload("refute", seed)
    polys += [NCPoly(*refute.polys[op.source]) for op in refute.ops if op.command == "falsify"]
    q = NCPoly(1, {(1, 1, 1, 1): 1.0, (1, 1): -1.0, (): 0.2})
    runs = [lambda p=p: falsify(p) for p in polys] + [lambda: falsify(q, trials=200, N=3, R=0.8)]
    answers = [_answer(run()) for run in runs]
    assert answers[-1][0] == "random" and answers[0] is None
    monkeypatch.setattr(
        certify, "_real_traces", lambda p, stack, plan: reference_chunk_traces(p, stack)
    )
    assert [_answer(run()) for run in runs] == answers


def test_falsify_screens_the_moments_gns_draws_as_drawn(monkeypatch):
    # The draws are exactly Hermitian, so the screened stack is its own
    # Hermitian part, and falsify answers as it did when it screened the
    # Hermitian parts; the trace-positive inputs search every trial.
    wl = workload("moments-gns", 98)
    sources = [op.source for op in wl.ops if op.command == "falsify"]
    assert len(sources) == 9
    for nvars in sorted({wl.polys[source][0] for source in sources}):
        rng = make_rng(0)
        for start in range(0, 1000, certify.FALSIFY_CHUNK):
            drawn = sampling._draw_hermitians(rng, (min(64, 1000 - start), nvars), 4)
            norms = np.abs(np.linalg.eigvalsh(drawn)).max(axis=-1)
            stack = sampling._scale_to_radius(drawn, norms, 1.0)
            assert hermitian_parts(stack).tobytes() == stack.tobytes()
    polys = [NCPoly(*wl.polys[source]) for source in sources]
    answers = [falsify(p) for p in polys]
    screen = certify._real_traces
    monkeypatch.setattr(
        certify, "_real_traces", lambda p, stack, plan: screen(p, hermitian_parts(stack), plan)
    )
    for p, answer in zip(polys, answers):
        assert answer is None and falsify(p) is None
    # A search that finds a random trial: index, tuple and trace are kept.
    q = NCPoly(1, {(1, 1, 1, 1): 1.0, (1, 1): -1.0, (): 0.2})
    found = falsify(q, trials=200, N=3, R=0.8)
    monkeypatch.setattr(certify, "_real_traces", screen)
    again = falsify(q, trials=200, N=3, R=0.8)
    assert found.source == again.source == "random"
    assert (found.index, found.trace) == (again.index, again.trace)
    assert all(np.array_equal(a, b) for a, b in zip(found.tuple.matrices, again.tuple.matrices))


@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
def test_certificate_residual_matches_product_reference(nvars, d):
    # Full-rank random sums, as in the benchmark's certify grid.
    rng = make_rng(920 + 10 * nvars + d)
    m = len(words_up_to(nvars, d))
    for _ in range(2):
        p = NCPoly.zero(nvars)
        for _ in range(m):
            b = random_poly(rng, nvars, d, n_terms=m)
            p = p + star_product(b.adjoint(), b)
        cert = certify_sos(p, d)
        expected = (p - reference_sum_of_squares(cert.factors, nvars)).cyclic_reduce().r_norm(1.0)
        magnitudes = reference_sum_of_squares(
            [NCPoly(nvars, {w: abs(c) for w, c in b.terms.items()}) for b in cert.factors],
            nvars,
        )
        # Each coefficient of the sum rounds within 1e-14 of its magnitudes.
        bound = 1e-14 * (p.r_norm(1.0) + magnitudes.r_norm(1.0))
        assert abs(cert.residual_l1 - expected) <= bound
        assert verify_certificate(p, cert) == cert.residual_l1


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
    assert got.rhs.tobytes() == expected.rhs.tobytes()
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


def _solver_calls(monkeypatch, name: str) -> list:
    """The (args, kwargs) of each call certify makes to its solver ``name``."""
    calls, solve = [], getattr(certify, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(certify, name, spy)
    return calls


def _assert_decided_alike(real, complex_, constraints, tol):
    """The two solves of one problem end alike: the same status and value
    to tol; feasible points that meet the set to tol and are PSD to tol, or
    PSD separators that pair negatively with the set."""
    assert real.solution.dtype == float and complex_.solution.dtype == complex
    assert real.status == complex_.status
    assert abs(real.value - complex_.value) <= tol * max(1.0, abs(real.value))
    for report in (real, complex_):
        if report.feasible and constraints.radii is None:
            assert np.linalg.norm(constraints.residuals(report.solution)) <= tol
        if report.feasible:
            assert np.linalg.eigvalsh(report.solution)[0] >= -tol
        if report.separator is not None:
            Y = report.separator
            assert np.linalg.eigvalsh(Y)[0] >= 0
            on_set = constraints.project(np.zeros((constraints.dim, constraints.dim)))
            assert np.real(np.vdot(Y, on_set)) < 0


@pytest.mark.parametrize("name,p,d", _cut_inputs(), ids=[case[0] for case in _cut_inputs()])
def test_real_problems_decide_alike_in_complex_arithmetic(name, p, d, monkeypatch):
    # Every fixture here has real class sums and objective, so certify and
    # witness hand the solver real data and it runs on real symmetric
    # matrices.  The same data with the objective passed as complex keeps
    # the loop complex, as it ran on every problem before: both decide alike.
    gram = _solver_calls(monkeypatch, "feasibility_solve")
    box = _solver_calls(monkeypatch, "minimize_linear")
    certify_sos(p, d)
    witness_search(p, d)
    assert gram and len(box) == 1
    for (constraints, tol, max_iter, anchor), _ in gram:
        assert constraints.dtype is np.float64
        zero = np.zeros((constraints.dim, constraints.dim), dtype=complex)
        real = feasibility_solve(constraints, tol, max_iter, anchor)
        complex_ = minimize_linear(zero, constraints, tol, max_iter, anchor)
        _assert_decided_alike(real, complex_, constraints, tol)
    (objective, constraints), kwargs = box[0]
    assert objective.dtype == float
    real = minimize_linear(objective, constraints, **kwargs)
    complex_ = minimize_linear(objective.astype(complex), constraints, **kwargs)
    _assert_decided_alike(real, complex_, constraints, kwargs["tol"])


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
    # A cap within the first 20 iterations, which the solver takes without
    # Anderson extrapolation, so where it leaves the point does not depend on it.
    w = dual_witness(p, 2, R=1.0, max_iter=20)
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
    assert w.degree == 4


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
    if result.source == "random":
        drawn = sampling.random_hermitians(make_rng(seed), (trials, p.nvars), N, R)
        assert np.array_equal(np.stack(result.tuple.matrices), drawn[result.index])
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


@pytest.mark.parametrize(
    "text,nvars,trials,N,R,seed,index",
    [
        # Negative only where the eigenvalues' magnitudes are near 1/sqrt(2),
        # so on no library tuple (magnitudes 0 and 1).
        ("Y1^4 - Y1^2 + 0.2", 1, 200, 1, 0.8, 0, 0),
        ("Y1^4 - Y1^2 + 0.2", 1, 200, 3, 0.8, 0, 36),
        ("Y1 Y2^2 Y1 - 0.5*Y1^2 - 0.5*Y2^2 + 0.3", 2, 300, 3, 1.0, 1, 3),
        # The first hit's draw has norm below R / the largest float, so it is
        # divided by its norm before it is scaled, at N = 1 and at N = 2.
        ("Y1", 1, 50, 1, 5e307, 0, 0),
        ("Y1", 1, 50, 2, 5e307, 916, 0),
    ],
)
def test_falsify_random_hits_equal_the_trial_by_trial_search(
    text, nvars, trials, N, R, seed, index
):
    p = parse_poly(text, nvars)
    hit = _assert_falsify_equals_reference(p, trials, N, R, seed)
    assert (hit.source, hit.index) == ("random", index)
    if R > 1e300:
        draw = sampling._draw_hermitians(make_rng(seed), (), N)
        assert np.linalg.norm(draw, 2) < R / np.finfo(float).max


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "0"])
def test_falsify_refuses_a_bad_seed_before_any_probe(seed, monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("probed a tuple before refusing the seed")

    monkeypatch.setattr(certify, "_library", no_probe)
    monkeypatch.setattr(certify, "_draw_hermitians", no_probe)
    message = re.escape(f"seed must be a nonnegative integer, got {seed}")
    for p in (-1 * commutator_square_poly(), NCPoly(1, {(1, 1): 1.0})):
        with pytest.raises(ValueError, match=message):
            falsify(p, trials=5, seed=seed)


def test_a_negative_half_degree_is_refused_by_name_before_any_structure():
    misses = certify.cyclic_classes.cache_info().misses
    message = re.escape("half-degree d must be nonnegative, got -1")
    for p in (commutator_square_poly(), NCPoly(2, {(): 3.0})):
        for run in (build_gram_problem, certify_sos, witness_search):
            with pytest.raises(ValueError, match=message):
                run(p, -1)
    assert certify.cyclic_classes.cache_info().misses == misses


def test_cached_classes_are_read_only_and_each_basis_a_fresh_list():
    classes = certify.cyclic_classes(2, 2)
    assert certify.cyclic_classes(2, 2) is classes
    index = classes.index
    for array in (classes.word_labels, classes.reps, classes.checked.partner,
                  classes.checked.labels, index.offsets, index.lengths):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    p = commutator_square_poly()
    first = build_gram_problem(p, 2).basis
    assert type(first) is list and first == list(classes.basis)
    first.append((9,))
    assert build_gram_problem(p, 2).basis == list(classes.basis)


@pytest.mark.parametrize("nvars,d", [(1, 3), (2, 2), (3, 2)])
def test_a_cell_keeps_no_python_object_per_class(nvars, d):
    # A cell and its checked labels keep numpy arrays, the WordIndex, the
    # m-word basis tuple and the float ties; a class's least word is made
    # on demand from its position in reps.
    classes = certify.cyclic_classes(nvars, d)
    classes.anchor
    m = len(classes.checked.labels)
    assert set(vars(classes)) == {
        "index", "word_labels", "reps", "checked", "basis", "corners", "anchor"
    }
    for name, value in vars(classes).items():
        if name == "basis":
            assert type(value) is tuple and len(value) == m
        elif name == "checked":
            assert type(value) is ClassLabels
        else:
            assert isinstance(value, (np.ndarray, WordIndex)), name
    for name, value in vars(classes.checked).items():
        assert isinstance(value, np.ndarray) or (name == "ties" and type(value) is float), name
    # The index keeps two integers, two arrays and its offsets once more.
    for name, value in vars(classes.index).items():
        assert isinstance(value, (int, np.ndarray)) or (
            name == "_starts" and value == tuple(classes.index.offsets.tolist())
        ), name


@pytest.mark.parametrize("d", [2.0, 2.5, True, np.bool_(True)])
def test_half_degrees_that_are_not_integers_are_refused(d):
    p = commutator_square_poly()
    message = re.escape(f"half-degree d must be an integer, got {d!r}")
    for run in (
        lambda: build_gram_problem(p, d),
        lambda: certify_sos(p, d),
        lambda: witness_search(-1 * p, d),
        lambda: certify_sos(NCPoly(1, {(1, 1): 1.0}), d),
    ):
        with pytest.raises(ValueError, match=message):
            run()
    assert isinstance(certify_sos(p, np.int64(2)), Certificate)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"trials": 1.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"N": 2.5}, "matrix size N"),
        ({"N": 2.0}, "matrix size N"),
        ({"N": np.bool_(True)}, "matrix size N"),
    ],
)
def test_falsify_refuses_sizes_that_are_not_integers(kwargs, name):
    (value,) = kwargs.values()
    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(ValueError, match=message):
        falsify(commutator_square_poly(), **kwargs)
    assert falsify(NCPoly(1, {(1, 1): 1.0}), trials=np.int64(5), N=np.int32(2)) is None


@pytest.mark.parametrize("seed", [True, False])
def test_falsify_refuses_a_bool_seed(seed):
    message = re.escape(f"seed must be a nonnegative integer, got {seed}")
    with pytest.raises(ValueError, match=message):
        falsify(commutator_square_poly(), trials=5, seed=seed)


@pytest.mark.parametrize("coeff", [np.nan, complex(1, np.nan), np.inf, complex(0, -np.inf)])
def test_non_finite_coefficients_and_factors_are_refused(coeff):
    # A NaN term used to vanish, so certify certified NaN*Y1^2 + Y2^2, and
    # a NaN factor turned every polynomial into the certifiable zero.
    message = re.escape(f"coefficient {complex(coeff)} of word (1, 1) is not finite")
    with pytest.raises(ValueError, match=message):
        certify_sos(NCPoly(2, {(1, 1): coeff, (2, 2): 1.0}), 1)
    p = parse_poly("Y1^2 - 3*Y2^2", 2)
    message = re.escape(f"scale factor {coeff} is not finite")
    for run in (lambda: p.scale(coeff), lambda: coeff * p, lambda: p * coeff):
        with pytest.raises(ValueError, match=message):
            run()
    assert p.scale(np.float64(0.0)).is_zero()


@pytest.mark.parametrize("value", [2.0, 1.5, True, np.bool_(True)])
def test_variable_counts_and_letters_that_are_not_integers_are_refused(value):
    # Each used to be accepted, to fail later in numpy or range, or, as a
    # bool, to stand for one variable.
    for name, build in (
        ("nvars", lambda: NCPoly(value, {(1, 1): 1.0})),
        ("nvars", lambda: parse_poly("Y1^2", value)),
        ("nvars", lambda: words_up_to(value, 2)),
        ("degree", lambda: words_up_to(2, value)),
        ("variable count n", lambda: MomentSequence.from_array(value, 2, [1.0, 0.0, 1.0])),
        (f"letter in word {(1, value)}", lambda: NCPoly(2, {(1, value): 1.0})),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            build()
    assert NCPoly(np.int64(2), {(np.int32(1), 2): 1.0}) == parse_poly("Y1 Y2", np.int64(2))
    assert MomentSequence.from_array(np.int64(1), 2, [1.0, 0.0, 1.0]).n == 1
    assert words_up_to(np.int64(2), np.int32(1)) == [(), (1,), (2,)]


def test_falsify_accepts_numpy_integer_seeds():
    p = NCPoly(1, {(1, 1): 1.0})
    assert falsify(p, trials=5, seed=np.int64(3)) is None
    assert falsify(p, trials=5, seed=np.uint64(2**64 - 1)) is None


def test_falsify_rejects_infinite_radius():
    with pytest.raises(ValueError, match="radius R must be positive and finite"):
        falsify(commutator_square_poly(), trials=5, R=float("inf"))


@pytest.mark.parametrize("R,reason", [(1e100, "R^4 is not finite"), (1e77, "the traces")])
def test_falsify_refuses_a_radius_whose_traces_overflow(R, reason, monkeypatch):
    # R^4 overflows at 1e100; at 1e77 it does not, but 4 x 4 traces can.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a tuple before refusing the radius")

    monkeypatch.setattr(certify, "_draw_hermitians", no_draw)
    with pytest.raises(ValueError, match=re.escape(f"radius R = {R} is too large")):
        falsify(commutator_square_poly(), R=R)
    with pytest.raises(ValueError, match=re.escape(reason)):
        falsify(commutator_square_poly(), R=R)
    # The largest radius at which nothing overflows still runs.
    assert falsify(commutator_square_poly(), trials=0, N=4, R=1e76) is None


def test_falsify_refuses_a_radius_above_half_the_largest_float(monkeypatch):
    # Y1 at size 1: N R^deg p stays finite up to the largest float, but a
    # drawn entry of magnitude R would be refused by hermitian_parts.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a tuple before refusing the radius")

    monkeypatch.setattr(certify, "_draw_hermitians", no_draw)
    half = np.finfo(float).max / 2
    for R in (np.nextafter(half, np.inf), 1e308):
        with pytest.raises(ValueError) as err:
            falsify(NCPoly(1, {(1,): 1.0}), N=1, R=R)
        assert str(err.value) == (
            f"radius R = {R} is too large: matrices of norm R may have entries "
            "above half the largest float"
        )


@pytest.mark.parametrize("size", [1, 2])
def test_random_hermitians_divide_small_draws_by_their_norm_first(size):
    # At R = 5e307, R / norm overflows for draws of norm below about 0.28:
    # those are (h / norm) R, and every other draw keeps the bits of h (R / norm).
    R = 5e307
    drawn = sampling.random_hermitians(make_rng(11), (96, 2), size, R)
    rng = make_rng(11)
    small = 0
    for got in drawn.reshape(-1, size, size):
        h = random_hermitian(rng, size)
        norm = np.linalg.norm(h, 2)
        with np.errstate(over="ignore"):
            scale = R / norm
        if np.isinf(scale):
            small += 1
            assert np.array_equal(got, (h / norm) * R)
        else:
            assert np.array_equal(got, h * scale)
        assert np.linalg.norm(got / R, 2) == pytest.approx(1.0, rel=1e-12)
    assert 0 < small < 192


@pytest.mark.parametrize(
    "p,largest",
    [(commutator_square_poly(), 136), (NCPoly(3, {(1, 2, 3, 3, 2, 1): 1.0}), 57)],
)
def test_falsify_size_limit_edges(p, largest, monkeypatch):
    # FALSIFY_CHUNK tuples of the products of every word up to ceil(deg p / 2),
    # word count times N^2 + that degree each, against MAX_MOMENT_SIZE:
    # N <= 136 at (n, deg p) = (2, 4) and N <= 57 at (3, 6).
    monkeypatch.setattr(certify, "_library", lambda nvars, N: ())
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
        drawn = sampling.random_hermitians(rng, (11, n), N, R)
        traces = certify._real_traces(p, hermitian_parts(drawn))
        for k, X in enumerate(drawn):
            expected = certify._real_trace(p, certify.as_matrix_tuple(X))
            assert abs(traces[k] - expected) <= 1e-12 * p.r_norm(R)


def test_batched_traces_of_the_zero_polynomial_and_a_constant():
    stack = sampling.random_hermitians(make_rng(71), (3, 2), 4, 1.0)
    assert np.array_equal(certify._real_traces(NCPoly(2, {}), stack), np.zeros(3))
    constant = certify._real_traces(NCPoly(2, {(): 1.5 + 2j}), stack)
    assert np.array_equal(constant, np.full(3, 1.5))


def test_batched_traces_of_one_word_pair_its_halves():
    # tr(X1 X2 X1 X2 X3) = tr((X1 X2) (X1 X2 X3)): a pairing that dropped the
    # transpose of the right half or split the word anywhere else than in
    # its middle would change it.
    drawn = sampling.random_hermitians(make_rng(72), (4, 3), 3, 1.0)
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
    stack = hermitian_parts(sampling.random_hermitians(make_rng(73), (64, 3), 8, 1.0))
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


@pytest.mark.parametrize(
    "run",
    [
        lambda p: certify_sos(p, 1),
        lambda p: witness_search(p, 1),
        lambda p: falsify(p, trials=5),
    ],
    ids=["certify_sos", "witness_search", "falsify"],
)
def test_an_overflowed_coefficient_is_refused_by_word(run):
    # Arithmetic on finite coefficients can overflow.  The symmetry test
    # dropped the NaN defect, so certify then refused "class sums", witness
    # warned and failed on a NaN asymmetry, and falsify refused its radius.
    p = NCPoly(2, {(1, 1): 1e308, (2, 2): 1.0}).scale(10.0)
    with pytest.raises(ValueError, match=re.escape("coefficient (inf+0j) of word (1, 1) is not finite")):
        run(p)


def _capped_solves(max_iter):
    p = -1 * commutator_square_poly()
    constraints = build_gram_problem(p, 2).constraints
    box = ClassConstraints(np.zeros((2, 2), dtype=int), pinned=0)
    return [
        lambda: feasibility_solve(constraints, max_iter=max_iter),
        lambda: minimize_linear(np.eye(2), box, max_iter=max_iter),
        lambda: certify_sos(p, 2, max_iter=max_iter),
        lambda: witness_search(p, 2, max_iter=max_iter),
        lambda: dual_witness(p, 2, max_iter=max_iter),
    ]


@pytest.mark.parametrize("max_iter", [2.5, 40.0, True, np.bool_(True), 0, -3])
def test_iteration_caps_follow_the_integer_rule(max_iter):
    # A fraction died in range, True ran one iteration, and a cap below 1
    # reported "undecided after 0 iterations" or returned the start point's
    # pairing as if solved.
    if isinstance(max_iter, int) and not isinstance(max_iter, bool):
        message = f"max_iter must be at least 1, got {max_iter}"
    else:
        message = f"max_iter must be an integer, got {max_iter!r}"
    for run in _capped_solves(max_iter):
        with pytest.raises(ValueError, match=re.escape(message)):
            run()


def test_numpy_integer_iteration_caps_are_accepted():
    reports = [run() for run in _capped_solves(np.int64(40))[:2]]
    assert [r.status for r in reports] == ["infeasible-at-tolerance", "feasible"]
    assert all(r.iterations <= 40 for r in reports)


def test_witness_search_refuses_a_box_radius_below_one():
    with pytest.raises(ValueError, match=re.escape("witness box radius must be at least 1, got 0.5")):
        witness_search(-1 * commutator_square_poly(), 2, R=0.5)


def test_a_cell_builds_its_anchor_once_and_keeps_it(monkeypatch):
    build, calls = certify._tracial_anchor, []

    def counted(nvars, d):
        calls.append((nvars, d))
        return build(nvars, d)

    monkeypatch.setattr(certify, "_tracial_anchor", counted)
    p = -1 * commutator_square_poly()
    certify.cyclic_classes.cache_clear()
    try:
        # The witness at this radius stalls and mixes in the anchor; the
        # certify of the same cell reads the one it left.
        _, value = witness_search(p, 2, R=1e20)
        assert value < 0 and calls == [(2, 2)]
        assert isinstance(certify_sos(p, 2), InfeasibilityReport)
        assert calls == [(2, 2)]
        certify.cyclic_classes.cache_clear()
        assert isinstance(certify_sos(p, 2), InfeasibilityReport)
        assert calls == [(2, 2)] * 2
        classes = certify.cyclic_classes(2, 2)
        anchor = classes.anchor
    finally:
        certify.cyclic_classes.cache_clear()
    assert classes.anchor is anchor and calls == [(2, 2)] * 2
    assert anchor.tobytes() == build(2, 2).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        anchor[0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        classes.anchor = anchor.copy()


def test_mix_anchor_refuses_an_anchor_that_is_not_positive_definite(monkeypatch):
    # The projected zero anchor is 1 at the empty word and 0 elsewhere:
    # singular at either scale.  A cell of its own builds its anchor on
    # first read, from the patch.
    classes = certify.cyclic_classes.__wrapped__(1, 1)
    constraints = ClassConstraints(classes.checked.labels, pinned=0)
    monkeypatch.setattr(certify, "_tracial_anchor", lambda nvars, d: np.zeros((2, 2)))
    message = (
        "solver stopped at eigenvalue -1.000e-03 and the anchor is not positive "
        "definite (eigenvalue 0.000e+00)"
    )
    with pytest.raises(NoFeasiblePoint, match=re.escape(message)):
        certify._mix_anchor(np.eye(2), -1e-3, constraints, classes, 1.0, 1e-9)
