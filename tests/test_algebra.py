import numpy as np
import pytest

from nctrace.algebra import (
    NCPoly,
    concat,
    cyclic_canonical,
    evaluate,
    involute_word,
    normalized_trace,
    pair,
    star_product,
    words_up_to,
)
from nctrace.moments import moment_sequence, as_matrix_tuple

from helpers import (
    commutator_square_poly,
    make_rng,
    pauli_pair,
    random_poly,
    reference_is_symmetric,
    term_bits,
)


def brute_least_rotation(word):
    """Oracle: enumerate every rotation and take the smallest."""
    if not word:
        return word
    return min(word[s:] + word[:s] for s in range(len(word)))


# -- words -----------------------------------------------------------------


def test_involute_word():
    assert involute_word((1, 2, 3)) == (3, 2, 1)
    assert involute_word(()) == ()
    assert involute_word((1, 1)) == (1, 1)


def test_involute_word_is_involutive():
    rng = make_rng(1)
    for _ in range(50):
        w = tuple(int(x) for x in rng.integers(1, 4, size=rng.integers(0, 9)))
        assert involute_word(involute_word(w)) == w


def test_concat():
    assert concat((1, 2), (3,)) == (1, 2, 3)
    assert concat((), (1, 2)) == (1, 2)
    assert concat((1, 2), ()) == (1, 2)


def test_concat_involution_antihomomorphism():
    assert involute_word(concat((1, 2), (3,))) == concat(
        involute_word((3,)), involute_word((1, 2))
    ) == (3, 2, 1)


def test_cyclic_canonical_examples():
    assert cyclic_canonical((2, 1, 2, 1)) == (1, 2, 1, 2)
    assert cyclic_canonical((1,)) == (1,)
    assert cyclic_canonical((2, 1, 1)) == (1, 1, 2)
    assert cyclic_canonical(()) == ()


def test_cyclic_canonical_matches_brute_force():
    rng = make_rng(2)
    for _ in range(500):
        w = tuple(int(x) for x in rng.integers(1, 5, size=rng.integers(0, 13)))
        assert cyclic_canonical(w) == brute_least_rotation(w)


def test_cyclic_canonical_rotation_invariant():
    rng = make_rng(3)
    for _ in range(100):
        w = tuple(int(x) for x in rng.integers(1, 4, size=rng.integers(1, 10)))
        rep = cyclic_canonical(w)
        for s in range(len(w)):
            assert cyclic_canonical(w[s:] + w[:s]) == rep


def test_words_up_to_order():
    ws = words_up_to(2, 2)
    assert ws == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


# -- polynomial arithmetic ---------------------------------------------------


def test_star_product_hand_expansion():
    a = NCPoly(2, {(1,): 1.0, (2,): 1.0})
    b = NCPoly(2, {(1,): 1.0, (2,): -1.0})
    expected = NCPoly(2, {(1, 1): 1.0, (1, 2): -1.0, (2, 1): 1.0, (2, 2): -1.0})
    assert star_product(a, b) == expected


def test_star_product_unit_and_scalars():
    a = random_poly(make_rng(4), 2, 4)
    one = NCPoly.one(2)
    assert star_product(one, a) == a
    assert star_product(a, one) == a
    iy = NCPoly(1, {(1,): 1j})
    assert star_product(iy, iy) == NCPoly(1, {(1, 1): -1.0})


def test_star_product_rejects_mismatched_nvars():
    with pytest.raises(ValueError):
        star_product(NCPoly.one(2), NCPoly.one(3))


def test_star_product_associative():
    rng = make_rng(5)
    for _ in range(20):
        a = random_poly(rng, 3, 2, n_terms=4)
        b = random_poly(rng, 3, 2, n_terms=4)
        c = random_poly(rng, 3, 2, n_terms=4)
        left = star_product(star_product(a, b), c)
        right = star_product(a, star_product(b, c))
        assert (left - right).r_norm(1.0) < 1e-12


def test_adjoint_definition_and_antihomomorphism():
    p = NCPoly(2, {(1, 2): 1j})
    assert p.adjoint() == NCPoly(2, {(2, 1): -1j})
    palindrome = NCPoly(2, {(1, 2, 1): 2.0, (2,): -3.0})
    assert palindrome.adjoint() == palindrome

    rng = make_rng(6)
    for _ in range(30):
        a = random_poly(rng, 3, 3)
        b = random_poly(rng, 3, 3)
        lhs = star_product(a, b).adjoint()
        rhs = star_product(b.adjoint(), a.adjoint())
        assert (lhs - rhs).r_norm(1.0) < 1e-12


def test_adjoint_is_isometry_for_every_radius():
    rng = make_rng(7)
    for _ in range(20):
        a = random_poly(rng, 3, 4)
        for radius in (0.5, 1.0, 2.0, 10.0):
            assert a.adjoint().r_norm(radius) == pytest.approx(
                a.r_norm(radius), rel=1e-14
            )


def test_r_norm_examples():
    a = NCPoly(2, {(1,): 2.0, (1, 2): 3.0})
    assert a.r_norm(2.0) == pytest.approx(16.0)
    assert NCPoly.one(2).r_norm(7.3) == pytest.approx(1.0)
    assert NCPoly.zero(2).r_norm(0.1) == 0.0
    with pytest.raises(ValueError):
        a.r_norm(0.0)


def test_r_norm_submultiplicative():
    rng = make_rng(8)
    for _ in range(50):
        a = random_poly(rng, 3, 5)
        b = random_poly(rng, 3, 5)
        prod = star_product(a, b)
        for radius in (0.5, 1.0, 2.0, 10.0):
            bound = a.r_norm(radius) * b.r_norm(radius)
            assert prod.r_norm(radius) <= bound * (1 + 1e-12)


def test_is_symmetric():
    assert NCPoly(2, {(1, 2): 1.0, (2, 1): 1.0}).is_symmetric()
    assert not NCPoly(2, {(1, 2): 1.0}).is_symmetric()
    assert NCPoly(2, {(1, 2): 1j, (2, 1): -1j}).is_symmetric()


def test_is_symmetric_counts_a_missing_adjoint_too():
    # The adjoint's term on the missing word is a defect as large again.
    assert not NCPoly(2, {(1, 2): 6e-11}).is_symmetric(1e-10)
    assert NCPoly(2, {(1, 2): 4e-11}).is_symmetric(1e-10)
    # A palindrome's defect is twice its imaginary part.
    assert not NCPoly(2, {(1, 2, 1): 1 + 6e-11j}).is_symmetric(1e-10)
    assert NCPoly(2, {(1, 2, 1): 1 + 4e-11j}).is_symmetric(1e-10)
    # A paired defect counts on both words.
    assert not NCPoly(2, {(1, 2): 1 + 6e-11, (2, 1): 1.0}).is_symmetric(1e-10)
    assert NCPoly(2, {(1, 2): 1 + 4e-11, (2, 1): 1.0}).is_symmetric(1e-10)


def _symmetry_cases(rng):
    """Random polynomials, symmetric ones with small defects, and ones with
    unpaired words."""
    for _ in range(60):
        nvars = int(rng.integers(1, 4))
        q = random_poly(rng, nvars, 4, n_terms=int(rng.integers(1, 8)))
        yield q
        sym = q + q.adjoint()
        yield sym
        scale = 10.0 ** float(rng.integers(-13, -8))
        yield sym + random_poly(rng, nvars, 4, n_terms=int(rng.integers(1, 3))).scale(scale)
        word = tuple(int(x) for x in rng.integers(1, nvars + 1, size=int(rng.integers(2, 5))))
        if word != word[::-1]:
            terms = dict(sym.terms)
            terms.pop(word[::-1], None)
            terms[word] = complex(rng.normal() * scale)
            yield NCPoly(nvars, terms)


def test_is_symmetric_decides_as_the_adjoint_difference():
    rng = make_rng(40)
    for p in _symmetry_cases(rng):
        norm = (p - p.adjoint()).r_norm(1.0)
        tols = [0.0, 1e-10, 1e-12, 1.0, norm, np.nextafter(norm, 0), np.nextafter(norm, 1),
                0.5 * norm, 2 * norm]
        for tol in tols:
            assert p.is_symmetric(tol) == reference_is_symmetric(p, tol), (p, tol)


def test_is_symmetric_builds_no_polynomial(monkeypatch):
    p = commutator_square_poly() + NCPoly(2, {(1, 2): 1e-3})
    made = []
    monkeypatch.setattr(NCPoly, "_from_valid", lambda *a: made.append(a))
    assert not p.is_symmetric()
    assert made == []


def test_unchecked_constructor_equals_checked_one():
    values = [1, 1.5, -0.0, complex(-0.0, -0.0), complex(2, -0.0), complex(-0.0, 3),
              1e-15, -1e-15, 1.0000001e-15, 1e-16j, float("nan"), complex(float("nan"), 1),
              float("inf"), complex(1, -float("inf")), np.float64(2.5), np.complex128(1 - 2j),
              np.int64(3), np.conj(np.complex128(-0.0 + 2j))]
    words = words_up_to(2, 4)[: len(values)]
    terms = dict(zip(words, values))
    assert term_bits(NCPoly._from_valid(2, terms)) == term_bits(NCPoly(2, terms))
    assert all(type(c) is complex for c in NCPoly._from_valid(2, terms).terms.values())


def test_arithmetic_equals_checked_constructor():
    """Each operation's terms, bit for bit, as the checked constructor makes
    them from the same coefficient table."""
    rng = make_rng(41)
    for _ in range(40):
        nvars = int(rng.integers(1, 4))
        p = random_poly(rng, nvars, 4, n_terms=8)
        q = random_poly(rng, nvars, 4, n_terms=8)
        q = q + p.scale(-1.0)  # cancellations
        merged = dict(p.terms)
        for w, c in q.terms.items():
            merged[w] = merged.get(w, 0.0) + c
        reduced = {}
        for w, c in p.terms.items():
            reduced[cyclic_canonical(w)] = reduced.get(cyclic_canonical(w), 0.0) + c
        product = {}
        for wa, ca in p.terms.items():
            for wb, cb in q.terms.items():
                product[wa + wb] = product.get(wa + wb, 0.0) + ca * cb
        s = complex(rng.normal(), rng.normal())
        cases = [
            (p + q, merged),
            (-p, {w: -c for w, c in p.terms.items()}),
            (p.scale(s), {w: s * c for w, c in p.terms.items()}),
            (p.scale(np.float64(0.5)), {w: np.float64(0.5) * c for w, c in p.terms.items()}),
            (p.adjoint(), {involute_word(w): np.conj(c) for w, c in p.terms.items()}),
            (p.cyclic_reduce(), reduced),
            (star_product(p, q), product),
        ]
        for got, table in cases:
            assert term_bits(got) == term_bits(NCPoly(nvars, table))


def test_cyclic_reduce_examples():
    p = NCPoly(2, {(1, 2): 1j, (2, 1): -1j})
    assert p.cyclic_reduce() == NCPoly.zero(2)

    q = commutator_square_poly()
    assert q.cyclic_reduce() == NCPoly(2, {(1, 1, 2, 2): 1.0, (1, 2, 1, 2): -1.0})

    y1 = NCPoly.variable(2, 1)
    assert y1.cyclic_reduce() == y1


def test_cyclic_reduce_idempotent_and_kills_rotation_differences():
    rng = make_rng(9)
    for _ in range(30):
        a = random_poly(rng, 3, 5)
        red = a.cyclic_reduce()
        assert red.cyclic_reduce() == red
    for _ in range(30):
        w = tuple(int(x) for x in rng.integers(1, 4, size=rng.integers(1, 7)))
        s = int(rng.integers(0, len(w)))
        diff = NCPoly(3, {w: 1.0}) - NCPoly(3, {w[s:] + w[:s]: 1.0})
        assert diff.cyclic_reduce() == NCPoly.zero(3)


def test_cyclic_reduce_linear():
    rng = make_rng(10)
    a = random_poly(rng, 2, 4)
    b = random_poly(rng, 2, 4)
    lhs = (a + 2.5 * b).cyclic_reduce()
    rhs = a.cyclic_reduce() + 2.5 * b.cyclic_reduce()
    assert (lhs - rhs).r_norm(1.0) < 1e-12


# -- pairing and evaluation ---------------------------------------------------


def test_pair_scalar_moments():
    t = moment_sequence(as_matrix_tuple([np.array([[2.0]])]), 3)
    assert pair(NCPoly(1, {(1, 1): 1.0}), t) == pytest.approx(4.0)
    assert pair(NCPoly.one(1), t) == pytest.approx(1.0)


def test_pair_pauli_moments():
    t = moment_sequence(as_matrix_tuple(pauli_pair()), 4)
    assert pair(NCPoly(2, {(1, 2, 1, 2): 1.0}), t) == pytest.approx(-1.0)


def test_pair_degree_overflow():
    t = moment_sequence(as_matrix_tuple([np.array([[2.0]])]), 2)
    with pytest.raises(ValueError):
        pair(NCPoly(1, {(1, 1, 1): 1.0}), t)


def test_pair_respects_cyclic_reduction():
    rng = make_rng(11)
    t = moment_sequence(as_matrix_tuple(pauli_pair()), 6)
    for _ in range(20):
        a = random_poly(rng, 2, 6)
        assert pair(a, t) == pytest.approx(pair(a.cyclic_reduce(), t), abs=1e-11)


def test_evaluate_examples():
    p = NCPoly(1, {(1, 1): 1.0})
    out = evaluate(p, [np.array([[2.0]])])
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(4.0)

    rng = make_rng(12)
    a = random_poly(rng, 2, 3)
    ident = [np.eye(3), np.eye(3)]
    total = sum(a.terms.values())
    assert np.allclose(evaluate(a, ident), total * np.eye(3))

    comm = NCPoly(2, {(1, 2): 1j, (2, 1): -1j})
    out = evaluate(comm, pauli_pair())
    assert np.allclose(out, out.conj().T)


def test_trace_compatibility_with_moments():
    rng = make_rng(13)
    for _ in range(10):
        mats = [
            (lambda m: (m + m.conj().T) / 2)(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            )
            for _ in range(2)
        ]
        tup = as_matrix_tuple(mats)
        a = random_poly(rng, 2, 4)
        t = moment_sequence(tup, a.degree())
        lhs = normalized_trace(evaluate(a, tup))
        assert abs(lhs - pair(a, t)) < 1e-10


def test_pruning_and_term_roundtrip():
    p = NCPoly(2, {(1,): 1.0, (2,): 1e-16})
    assert p.terms == {(1,): 1.0}
    q = p + NCPoly(2, {(1,): -1.0})
    assert q.is_zero()
    assert q == NCPoly.zero(2)
