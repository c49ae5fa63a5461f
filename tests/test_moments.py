import json

import numpy as np
import pytest

from nctrace.algebra import NCPoly, involute_word, pair, star_product, words_up_to
from nctrace.moments import (
    MomentSequence,
    WordIndex,
    as_matrix_tuple,
    check_w_membership,
    growth_radius,
    moment_matrix,
    moment_sequence,
    psd_check,
)

from helpers import (
    make_rng,
    pauli_pair,
    random_hermitian_tuple,
    random_poly,
    reference_membership,
    reference_moment_matrix,
    reference_moment_sequence,
)


def test_as_matrix_tuple_validates_and_symmetrizes():
    X = as_matrix_tuple([np.array([[1.0, 2.0], [2.0, 3.0]])])
    assert X.n == 1 and X.N == 2
    with pytest.raises(ValueError):
        as_matrix_tuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        as_matrix_tuple([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        as_matrix_tuple([])


def test_moment_sequence_scalar_powers():
    t = moment_sequence([np.array([[2.0]])], 3)
    assert t[(1,)] == pytest.approx(2.0)
    assert t[(1, 1)] == pytest.approx(4.0)
    assert t[(1, 1, 1)] == pytest.approx(8.0)
    assert t[()] == pytest.approx(1.0)


def test_moment_sequence_pauli_oracle():
    """Check the stored values against direct 2x2 trace arithmetic."""
    sx, sz = pauli_pair()
    t = moment_sequence([sx, sz], 4)
    assert t[(1, 1)] == pytest.approx(np.trace(sx @ sx) / 2)
    assert t[(1, 2)] == pytest.approx(np.trace(sx @ sz) / 2)
    assert t[(1, 1, 2, 2)] == pytest.approx(np.trace(sx @ sx @ sz @ sz) / 2)
    assert t[(1, 2, 1, 2)] == pytest.approx(np.trace(sx @ sz @ sx @ sz) / 2)
    assert t[(1, 1)] == pytest.approx(1.0)
    assert t[(1, 2)] == pytest.approx(0.0)
    assert t[(1, 1, 2, 2)] == pytest.approx(1.0)
    assert t[(1, 2, 1, 2)] == pytest.approx(-1.0)


def test_moment_sequence_identity_tuple():
    t = moment_sequence([np.eye(3), np.eye(3)], 3)
    assert all(v == pytest.approx(1.0) for v in t.values.values())


def test_moment_sequence_completeness_enforced():
    with pytest.raises(ValueError):
        MomentSequence(2, 2, {(): 1.0, (1,): 0.5})
    with pytest.raises(ValueError):
        MomentSequence(1, 0, {(): 2.0})


def test_check_w_membership_passes_on_matrix_moments():
    rng = make_rng(30)
    for size in (2, 3):
        t = moment_sequence(random_hermitian_tuple(rng, 2, size), 6)
        report = check_w_membership(t, tol=1e-10)
        assert report.passed
        assert report.max_cyclic_violation <= 1e-10
        assert report.max_conjugate_violation <= 1e-10


def test_check_w_membership_flags_cyclic_violation():
    t = moment_sequence(pauli_pair(), 2)
    broken = dict(t.values)
    broken[(1, 2)] = 1.0
    broken[(2, 1)] = 0.0
    report = check_w_membership(MomentSequence(2, 2, broken), tol=1e-10)
    assert not report.cyclic_ok
    assert report.worst_cyclic_word == (1, 2)
    assert report.max_cyclic_violation == pytest.approx(1.0)


def test_real_symmetric_matrices_give_real_moments():
    rng = make_rng(31)
    mats = [
        (lambda a: (a + a.T) / 2)(rng.normal(size=(3, 3))) for _ in range(2)
    ]
    t = moment_sequence(mats, 5)
    assert check_w_membership(t).passed
    assert max(abs(v.imag) for v in t.values.values()) < 1e-12


def test_moment_matrix_scalar():
    t = moment_sequence([np.array([[2.0]])], 2)
    M = moment_matrix(t, 1)
    assert M.basis == [(), (1,)]
    assert np.allclose(M.entries, [[1.0, 2.0], [2.0, 4.0]])
    ok, min_eig = psd_check(M)
    assert ok
    assert np.linalg.matrix_rank(M.entries, tol=1e-10) == 1


def test_moment_matrix_pauli_identity():
    t = moment_sequence(pauli_pair(), 2)
    M = moment_matrix(t, 1)
    assert np.allclose(M.entries, np.eye(3))


def test_moment_matrix_degree_zero_and_errors():
    t = moment_sequence([np.eye(2)], 2)
    assert np.allclose(moment_matrix(t, 0).entries, [[1.0]])
    with pytest.raises(ValueError):
        moment_matrix(t, 2)


def test_moment_matrix_hermitian_and_psd_for_random_tuples():
    rng = make_rng(32)
    for _ in range(10):
        t = moment_sequence(random_hermitian_tuple(rng, 2, 3), 6)
        M = moment_matrix(t, 3)
        assert np.allclose(M.entries, M.entries.conj().T)
        ok, min_eig = psd_check(M, tol=1e-9)
        assert ok, min_eig


def test_psd_check_raw_matrices():
    ok, min_eig = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not ok
    assert min_eig == pytest.approx(-1.0)
    ok, min_eig = psd_check(np.array([[1.0]]))
    assert ok and min_eig == pytest.approx(1.0)


def test_growth_radius_examples():
    assert growth_radius(moment_sequence([np.array([[2.0]])], 6)) == pytest.approx(2.0)
    assert growth_radius(moment_sequence([np.eye(3), np.eye(3)], 4)) == pytest.approx(1.0)
    assert growth_radius(moment_sequence(pauli_pair(), 4)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        growth_radius(moment_sequence([np.eye(2)], 1))


def test_growth_radius_bounds_all_moments():
    rng = make_rng(33)
    for _ in range(10):
        t = moment_sequence(random_hermitian_tuple(rng, 2, 3), 8)
        radius = growth_radius(t)
        for word, value in t.values.items():
            assert abs(value) <= radius ** len(word) * (1 + 1e-9)


def test_growth_radius_lower_bounds_operator_norm():
    rng = make_rng(34)
    mats = random_hermitian_tuple(rng, 2, 4, radius=1.7)
    t = moment_sequence(mats, 8)
    true_norm = max(np.linalg.norm(m, 2) for m in mats)
    assert growth_radius(t) <= true_norm * (1 + 1e-12)


def test_squares_pair_nonnegatively():
    rng = make_rng(35)
    for _ in range(10):
        t = moment_sequence(random_hermitian_tuple(rng, 2, 3), 8)
        for _ in range(20):
            a = random_poly(rng, 2, 4, n_terms=4)
            square = star_product(a.adjoint(), a)
            assert pair(square, t).real >= -1e-9


def test_restricted():
    t = moment_sequence(pauli_pair(), 4)
    t2 = t.restricted(2)
    assert t2.max_degree == 2
    assert t2[(1, 2)] == t[(1, 2)]
    with pytest.raises(ValueError):
        t2.restricted(3)


# -- level-batched code against the word-by-word references ------------------


def test_word_index_matches_word_operations():
    for n, D in ((1, 4), (2, 5), (3, 4)):
        words = words_up_to(n, D)
        index = WordIndex(n, D)
        position = {w: i for i, w in enumerate(words)}
        assert len(index) == len(words)
        assert [index.word(i) for i in range(len(words))] == words
        assert index.reversals().tolist() == [position[involute_word(w)] for w in words]
        pairs = [
            (position[w], position[w[s:] + w[:s]])
            for w in words
            for s in range(1, len(w))
        ]
        assert list(zip(*(a.tolist() for a in index.rotation_pairs()))) == pairs
        short = [i for i, w in enumerate(words) if 2 * len(w) <= D]
        got = index.concat(np.array(short)[:, None], np.array(short)[None, :])
        assert got.tolist() == [
            [position[words[i] + words[j]] for j in short] for i in short
        ]


CASES = [
    (n, N, D) for n in (1, 2, 3) for N in (1, 2, 5) for D in (0, 1, 2, 5)
] + [(2, 2, 8), (2, 3, 8)]


@pytest.mark.parametrize("n,N,D", CASES)
def test_moment_sequence_and_matrix_equal_word_loop(n, N, D):
    rng = make_rng(40 + 100 * n + 10 * N + D)
    mats = random_hermitian_tuple(rng, n, N, radius=1.3)
    t = moment_sequence(mats, D)
    ref = reference_moment_sequence(mats, D)
    assert list(t.values) == list(ref.values)
    assert np.array_equal(t.as_array(), ref.as_array())
    for d in range(D // 2 + 1):
        M = moment_matrix(t, d)
        assert M.basis == words_up_to(n, d)
        assert np.array_equal(M.entries, reference_moment_matrix(ref, d))


def _assert_membership_equals_reference(t, tol=1e-10):
    report = check_w_membership(t, tol=tol)
    cyc, cyc_word, conj, conj_word = reference_membership(t)
    assert report.worst_cyclic_word == cyc_word
    assert report.worst_conjugate_word == conj_word
    assert abs(report.max_cyclic_violation - cyc) <= 1e-15
    assert abs(report.max_conjugate_violation - conj) <= 1e-15
    assert report.cyclic_ok is bool(cyc <= tol)
    assert report.conjugate_ok is bool(conj <= tol)
    return report


def test_membership_equals_word_loop():
    rng = make_rng(41)
    for n, N, D in ((1, 3, 6), (2, 3, 6), (3, 2, 5), (2, 5, 8)):
        t = moment_sequence(random_hermitian_tuple(rng, n, N), D)
        _assert_membership_equals_reference(t)
    exact = _assert_membership_equals_reference(moment_sequence(pauli_pair(), 6))
    assert exact.worst_cyclic_word is None and exact.worst_conjugate_word is None
    assert exact.max_cyclic_violation == 0.0 and exact.max_conjugate_violation == 0.0


def test_membership_equals_word_loop_on_perturbations():
    t = moment_sequence(random_hermitian_tuple(make_rng(42), 2, 3), 6)
    one = dict(t.values)
    one[(1, 2, 2, 1, 2)] += 1e-3 + 2e-3j
    report = _assert_membership_equals_reference(MomentSequence(2, 6, one))
    assert report.worst_cyclic_word == (1, 2, 1, 2, 2)
    assert report.worst_conjugate_word in ((1, 2, 2, 1, 2), (2, 1, 2, 2, 1))
    pair_ = dict(t.values)
    delta = 3e-3 - 1e-3j
    pair_[(1, 1, 2, 2, 2)] += delta
    pair_[(2, 2, 2, 1, 1)] += np.conj(delta)
    report = _assert_membership_equals_reference(MomentSequence(2, 6, pair_))
    assert report.conjugate_ok and not report.cyclic_ok
    assert report.worst_cyclic_word == (1, 1, 2, 2, 2)


def test_membership_report_is_plain_json():
    t = moment_sequence(random_hermitian_tuple(make_rng(43), 3, 3), 4)
    report = check_w_membership(t)
    assert max(abs(v.imag) for v in t.values.values()) > 1e-3
    for name in ("cyclic_ok", "conjugate_ok"):
        assert type(getattr(report, name)) is bool
    for name in ("max_cyclic_violation", "max_conjugate_violation", "growth_radius"):
        assert type(getattr(report, name)) is float
    json.dumps(report.as_dict(), allow_nan=False)


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_check_w_membership_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        check_w_membership(moment_sequence(pauli_pair(), 2), tol=tol)


def test_moment_sequence_rejects_non_finite_values():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"non-finite value at word \(1, 2\)"):
            MomentSequence(2, 2, {**moment_sequence(pauli_pair(), 2).values, (1, 2): bad})
    with pytest.raises(ValueError, match="needs 7 values"):
        MomentSequence.from_array(2, 2, np.ones(6))
