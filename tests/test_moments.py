import dataclasses
import json
import re
import time

import numpy as np
import pytest

from nctrace.algebra import NCPoly, involute_word, pair, star_product, word_positions, words_up_to
from nctrace.moments import (
    MAX_MOMENT_SIZE,
    MomentSequence,
    WordIndex,
    _class_plan,
    as_matrix_tuple,
    check_moment_size,
    check_radius,
    check_w_membership,
    growth_radius,
    moment_matrix,
    moment_sequence,
    moment_size,
    psd_check,
    real_pairs,
)

from helpers import (
    make_rng,
    pauli_pair,
    random_hermitian_tuple,
    random_poly,
    reference_class_moment_sequence,
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


def test_a_zero_dimensional_matrix_is_refused_by_its_place():
    for call in (lambda: as_matrix_tuple([2.0]), lambda: moment_sequence([2.0], 2)):
        with pytest.raises(ValueError, match=re.escape("matrix 1 has shape ()")):
            call()


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


def test_entries_whose_adjoint_sum_overflows_are_refused():
    # Runs under the suite's filterwarnings = error: the refusal comes before
    # the sum, so numpy warns of no overflow.
    half = np.finfo(float).max / 2
    for entry in (1.5e308, complex(0, np.nextafter(half, np.inf)), -np.finfo(float).max):
        x = np.array([[1.0, entry], [np.conj(entry), 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="matrix 2 has entries too large"):
            as_matrix_tuple([np.eye(2), x])
    # Off the Hermitian matrices too: the difference with the adjoint is not
    # taken either.
    with pytest.raises(ValueError, match="matrix 1 has entries too large: 1.500e\\+308"):
        as_matrix_tuple([[[1.5e308j]]])
    # At half the largest float and below, and for subnormals, the Hermitian
    # part is the exact (X + X^*) / 2.
    tiny = np.nextafter(0.0, 1.0)
    for entry in (half, -half, complex(half, -half), tiny, 3 * tiny, complex(tiny, tiny)):
        x = np.array([[entry.real, entry], [np.conj(entry), -half]], dtype=complex)
        (got,) = as_matrix_tuple([x]).matrices
        assert np.array_equal(got, (x + x.conj().T) / 2)
        assert np.array_equal(got, x)


def test_moment_matrix_scalar():
    t = moment_sequence([np.array([[2.0]])], 2)
    M = moment_matrix(t, 1)
    assert np.allclose(M, [[1.0, 2.0], [2.0, 4.0]])
    ok, min_eig = psd_check(M)
    assert ok
    assert np.linalg.matrix_rank(M, tol=1e-10) == 1


def test_moment_matrix_pauli_identity():
    t = moment_sequence(pauli_pair(), 2)
    M = moment_matrix(t, 1)
    assert np.allclose(M, np.eye(3))


def test_moment_matrix_degree_zero_and_errors():
    t = moment_sequence([np.eye(2)], 2)
    assert np.allclose(moment_matrix(t, 0), [[1.0]])
    with pytest.raises(ValueError):
        moment_matrix(t, 2)


def test_moment_matrix_hermitian_and_psd_for_random_tuples():
    rng = make_rng(32)
    for _ in range(10):
        t = moment_sequence(random_hermitian_tuple(rng, 2, 3), 6)
        M = moment_matrix(t, 3)
        assert np.allclose(M, M.conj().T)
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
    assert repr(t2) == "MomentSequence(n=2, max_degree=2)"


# -- level-batched code against the word-by-word references ------------------


def test_word_index_matches_word_operations():
    for n, D in ((1, 4), (2, 5), (3, 4)):
        words = words_up_to(n, D)
        index = WordIndex(n, D)
        position = {w: i for i, w in enumerate(words)}
        positions = np.arange(len(words))
        assert len(index) == len(words)
        assert [index.word(i) for i in range(len(words))] == words
        assert word_positions(words, n) == positions.tolist()
        shuffled = [words[i] for i in make_rng(n).permutation(len(words))]
        assert word_positions(shuffled, n) == [position[w] for w in shuffled]
        assert word_positions([], n) == []
        reversals = [position[involute_word(w)] for w in words]
        assert index.reversed(positions).tolist() == reversals
        short = int(index.offsets[3])  # an array that stops after length 2
        assert index.reversed(positions[:short]).tolist() == reversals[:short]
        pairs = [
            (position[w], position[w[s:] + w[:s]])
            for w in words
            for s in range(1, len(w))
        ]
        rotations = [
            (int(level[k]), int(index.rotated(level, s)[k]))
            for L, level in index.levels(positions)
            for k in range(len(level))
            for s in range(1, L)
        ]
        assert rotations == pairs
        short = [i for i, w in enumerate(words) if 2 * len(w) <= D]
        got = index.concat(np.array(short)[:, None], np.array(short)[None, :])
        assert got.tolist() == [
            [position[words[i] + words[j]] for j in short] for i in short
        ]


# Odd and even D, one letter and N = 1 included; N = 9 and 65 give rows of
# 81 and 4,225 entries in each length's matmul.
CASES = [
    (n, N, D) for n in (1, 2, 3) for N in (1, 2, 5) for D in (0, 1, 2, 5)
] + [(2, 2, 8), (2, 3, 8), (3, 8, 8), (3, 4, 6), (1, 4, 6), (2, 9, 4), (1, 65, 2), (2, 3, 7)]


def _bits(values) -> list:
    """The bits of complex values, signed zeros told apart."""
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.int64).tolist()


@pytest.mark.parametrize("n,N,D", CASES)
def test_moment_sequence_and_matrix_equal_word_loop(n, N, D):
    rng = make_rng(40 + 100 * n + 10 * N + D)
    mats = random_hermitian_tuple(rng, n, N, radius=1.3)
    t = moment_sequence(mats, D)
    ref = reference_class_moment_sequence(mats, D)
    assert list(t.values) == list(ref.values)
    # Bit for bit, signed zeros included, with the class-by-class loop over
    # blocks of each length formed from word-by-word products ...
    assert _bits(t.as_array()) == _bits(ref.as_array())
    # ... and within rounding of the trace of each word's own product:
    # |t_w - tr(X_w) / N| <= 8 L eps R^L for a word of length L, R = 1.3.
    direct = reference_moment_sequence(mats, D)
    lengths = t.index.lengths
    bound = 8 * lengths * np.finfo(float).eps * 1.3**lengths
    assert np.all(np.abs(t.as_array() - direct.as_array()) <= bound)
    for d in range(D // 2 + 1):
        # The reference is over the words of words_up_to(n, d), in order.
        assert np.array_equal(moment_matrix(t, d), reference_moment_matrix(t, d))


@pytest.mark.parametrize("n,N,D", [(2, 3, 6), (3, 4, 5), (3, 1, 4), (1, 3, 7), (2, 5, 1)])
def test_a_class_reads_one_value(n, N, D):
    t = moment_sequence(random_hermitian_tuple(make_rng(70 + n + N + D), n, N), D)
    for word in t.values:
        value = t[word]
        reversed_value = t[involute_word(word)]
        for s in range(1, len(word)):
            assert t[word[s:] + word[:s]] == value  # rotations exactly equal
        rotations = {word[s:] + word[:s] for s in range(len(word))} or {()}
        if involute_word(word) in rotations:
            # A class that is its own reversal is real, and reads one value.
            assert _bits(reversed_value) == _bits(value)
            assert value.imag == 0.0 and not np.signbit(value.imag)
        else:
            # Reversals are exact conjugates, the sign of a zero part included.
            assert _bits(reversed_value) == _bits(value.conjugate())
    report = check_w_membership(t, tol=0.0)
    assert report.passed
    assert report.max_cyclic_violation == report.max_conjugate_violation == 0.0
    assert report.worst_cyclic_word is None and report.worst_conjugate_word is None
    if n > 1 and N > 1 and D >= 4:
        # Not every class is real: some values need the conjugation.
        assert any(value.imag != 0 for value in t.values.values())


def test_class_plan_numbers_the_dihedral_classes():
    for n, D in ((1, 6), (2, 6), (3, 4)):
        picks, real, first = _class_plan(n, D)
        words = words_up_to(n, D)
        least = {}
        for w in words:
            rotations = [w[s:] + w[:s] for s in range(len(w))] or [()]
            least[w] = min(rotations + [involute_word(r) for r in rotations])
        reps = sorted(set(least.values()), key=words.index)
        count = len(reps)
        assert len(real) == count
        assert [words[k] for k in first.tolist()] == reps
        for w, pick in zip(words, picks.tolist()):
            rotations = {w[s:] + w[:s] for s in range(len(w))} or {()}
            assert pick == reps.index(least[w]) + count * (least[w] not in rotations)
        for rep, is_real in zip(reps, real.tolist()):
            rotations = {rep[s:] + rep[:s] for s in range(len(rep))} or {()}
            assert is_real == (involute_word(rep) in rotations)
        for array in (picks, real, first):
            assert not array.flags.writeable


def test_least_rotations_are_those_of_the_words():
    for n, D in ((1, 7), (2, 6), (3, 4)):
        words = words_up_to(n, D)
        position = {w: i for i, w in enumerate(words)}
        expected = [position[min([w[s:] + w[:s] for s in range(len(w))] or [()])] for w in words]
        assert WordIndex(n, D).least_rotations().tolist() == expected


def test_one_letter_needs_no_rotated_views(monkeypatch):
    # At n = 1 every word is its own rotation: the D^2 / 2 rotated views of
    # a sequence at the size limit are not made.
    def refuse(*args):
        raise AssertionError("rotated view made for one letter")

    monkeypatch.setattr(WordIndex, "rotated", refuse)
    assert WordIndex(1, 40).least_rotations().tolist() == list(range(41))
    _class_plan.cache_clear()
    try:
        t = moment_sequence([np.array([[0.5]])], 2895)
    finally:
        _class_plan.cache_clear()
    assert t[(1,) * 2895] == 0.5**2895


def test_largest_single_variable_sequence_takes_milliseconds():
    # A single variable at the size limit, its plan built anew each time:
    # about 10 ms on a 2-vCPU x86-64 VM, where one rotated view per shift
    # (4.2 million views) took 0.5 s.
    X = [np.array([[1.0]])]
    best = min(_timed_without_plans(lambda: moment_sequence(X, 2895)) for _ in range(3))
    assert best < 0.25


def _timed_without_plans(call) -> float:
    _class_plan.cache_clear()
    start = time.perf_counter()
    call()
    elapsed = time.perf_counter() - start
    _class_plan.cache_clear()
    return elapsed


@pytest.mark.parametrize("n,N", [(1, 1), (2, 1), (3, 1), (2, 8), (3, 8), (1, 64)])
def test_size_refusals_are_those_of_check_moment_size(n, N):
    # The largest D the limit allows is computed and refused one past it.
    D = 0
    while moment_size(n, D + 1, N) <= MAX_MOMENT_SIZE:
        D += 1
    check_moment_size(n, D, N)
    t = moment_sequence(random_hermitian_tuple(make_rng(n + N), n, N, radius=0.9), D)
    assert t.max_degree == D
    with pytest.raises(ValueError, match="moment sequence too large"):
        check_moment_size(n, D + 1, N)
    with pytest.raises(ValueError, match="moment sequence too large"):
        moment_sequence(random_hermitian_tuple(make_rng(n + N), n, N), D + 1)


# Every branch of numpy's pairwise order: in turn (N < 8), eight running
# sums with each rest N % 8 (8 <= N <= 128), and the split in halves
# (N > 128), once and twice.
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64, 65, 129, 200])
def test_pairwise_sum_equals_numpys_row_sum(N):
    # Numpy sums each row of a C-contiguous array, in a chunk of any number
    # of rows, in the pairwise order of its own 1-D sum.  Moment values no
    # longer rest on this (each word length's traces are one matmul); the
    # test checks numpy alone.
    rng = make_rng(500 + N)
    shape = (50, N)
    scaled = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    signs = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    for rows in (scaled, signs):
        sums = np.array([row.copy().sum() for row in rows])
        for chunk in (1, 7, 50):
            got = np.concatenate([rows[k : k + chunk].sum(axis=1) for k in range(0, 50, chunk)])
            assert np.array_equal(got.view(np.int64), sums.view(np.int64))


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


def _perturbed_pauli(D, words, delta=0.5):
    """The exact Pauli-pair sequence with ``delta`` added at each word; the
    values are 0 and +-1, so equal perturbations give equal gaps."""
    values = dict(moment_sequence(pauli_pair(), D).values)
    for word in words:
        values[word] += delta
    return MomentSequence(2, D, values)


@pytest.mark.parametrize(
    "words,cyclic,conjugate",
    [
        # Word (1, 2, 1, 2) has equal largest gaps at shifts 1 and 3.
        ([(2, 1, 2, 1)], (1, 2, 1, 2), (1, 2, 1, 2)),
        # Two words of one level in different classes; in (shift, word)
        # order the first largest gap would be in the class of (1, 2, 1, 2).
        ([(1, 2, 1, 2), (2, 2, 1, 1)], (1, 1, 2, 2), (1, 1, 2, 2)),
        # Equal largest gaps in levels 2 and 3.
        ([(2, 1, 1), (2, 1)], (1, 2), (1, 2)),
    ],
)
def test_membership_ties_report_the_first_word(words, cyclic, conjugate):
    report = _assert_membership_equals_reference(_perturbed_pauli(4, words))
    assert report.worst_cyclic_word == cyclic
    assert report.worst_conjugate_word == conjugate
    assert report.max_cyclic_violation == report.max_conjugate_violation == 0.5


def test_membership_report_is_plain_json():
    t = moment_sequence(random_hermitian_tuple(make_rng(43), 3, 3), 4)
    report = check_w_membership(t)
    assert max(abs(v.imag) for v in t.values.values()) > 1e-3
    for name in ("cyclic_ok", "conjugate_ok"):
        assert type(getattr(report, name)) is bool
    for name in ("max_cyclic_violation", "max_conjugate_violation", "growth_radius"):
        assert type(getattr(report, name)) is float
    json.dumps(report.as_dict(), allow_nan=False)


def test_membership_report_as_dict_is_its_fields_and_passed():
    broken = dict(moment_sequence(pauli_pair(), 2).values)
    broken[(1, 2)] += 0.5
    report = check_w_membership(MomentSequence(2, 2, broken))
    assert not report.passed and report.worst_cyclic_word is not None
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    assert report.as_dict() == {**fields, "passed": False}
    assert set(report.as_dict()) == {
        "passed", "cyclic_ok", "conjugate_ok", "max_cyclic_violation",
        "max_conjugate_violation", "worst_cyclic_word", "worst_conjugate_word",
        "growth_radius", "tol",
    }


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_check_w_membership_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        check_w_membership(moment_sequence(pauli_pair(), 2), tol=tol)


def test_moment_sequence_rejects_non_finite_values():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"non-finite value at word \(1, 2\)"):
            MomentSequence(2, 2, {**moment_sequence(pauli_pair(), 2).values, (1, 2): bad})
    with pytest.raises(ValueError, match="needs 7 values"):
        MomentSequence.from_array(2, 2, np.ones(6))


def test_sequence_is_one_read_only_array_with_a_mapping_built_from_it():
    t = moment_sequence(random_hermitian_tuple(make_rng(80), 2, 3), 4)
    values = t.as_array()
    assert t.as_array() is values and not values.flags.writeable
    with pytest.raises(ValueError):
        values[1] = 0.0
    assert list(t.values) == words_up_to(2, 4)
    assert list(t.values.values()) == values.tolist()
    assert t.values is t.values
    for position, word in enumerate(words_up_to(2, 4)):
        assert type(t[word]) is complex
        assert t[word] == t.values[word] == values[position]
    for word in [(3,), (0,), (1, 1, 1, 1, 1), (1, -1)]:
        with pytest.raises(KeyError):
            t[word]
    assert np.array_equal(t.restricted(2).as_array(), values[:7])


@pytest.mark.parametrize("letter", [True, 1.5, np.float64(1.0), "1", None], ids=repr)
def test_a_letter_that_is_not_an_integer_is_refused_as_an_out_of_range_one(letter):
    # True would read Y1, and 1.5 would escape as numpy's IndexError.
    t = moment_sequence(random_hermitian_tuple(make_rng(81), 2, 2), 2)
    with pytest.raises(KeyError) as refused:
        t[(letter,)]
    assert refused.value.args == ((letter,),)
    with pytest.raises(KeyError):
        t[(1, letter)]
    assert t[(np.int64(2),)] == t[(2,)]
    assert t[(np.int32(1), np.uint8(2))] == t[(1, 2)]


def test_check_radius_refuses_overflowing_powers_of_any_number_type():
    for R, power in [(1e77, 4), (0.5, 10**6), (10**77, 4), (2, 1023)]:
        check_radius(R, power)
    for R, power in [(1e78, 4), (10**78, 4), (2, 1024), (1.5, 10**6)]:
        with pytest.raises(ValueError, match=f"too large: R\\^{power} is not finite"):
            check_radius(R, power)
    for R in [0, -1.0, float("nan"), float("inf")]:
        with pytest.raises(ValueError, match="radius R must be positive and finite"):
            check_radius(R, 2)


def test_moment_sequence_refuses_matrices_whose_traces_could_overflow():
    with pytest.raises(ValueError, match=r"degree 2: N R\^D is not finite for N = 1 "):
        moment_sequence([np.array([[1e200]])], 2)
    # R^2 = 1e308 is finite, but a trace of two such entries is not.
    with pytest.raises(ValueError, match="for N = 2 and the largest norm R = 1.0+e\\+154"):
        moment_sequence([np.eye(2), 1e154 * np.eye(2)], 2)
    assert moment_sequence([np.array([[1e100]])], 2)[(1, 1)] == 1e200
    assert moment_sequence([np.zeros((2, 2))], 3)[(1, 1, 1)] == 0


def test_sequence_copies_the_values_it_is_given():
    given = np.array([1.0, 0.5, 0.25])
    t = MomentSequence.from_array(1, 2, given)
    given[1] = 7.0
    assert t[(1,)] == 0.5
    assert given.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("D", [0, 1, 5, 9])
def test_moment_size_counts_words(n, D):
    for N in (1, 4):
        assert moment_size(n, D, N) == len(words_up_to(n, D)) * (N * N + D)


def test_moment_size_caps_the_power_past_the_limit():
    # Exact up to D = 63; beyond, n^64 stands in for n^(D+1), already over.
    assert moment_size(2, 63) == (2**64 - 1) * 64
    assert moment_size(2, 10**6) > MAX_MOMENT_SIZE
    assert moment_size(1, 10**6) == (10**6 + 1) ** 2
    assert moment_size(3, 8, 8) <= MAX_MOMENT_SIZE  # the benchmark's largest


@pytest.mark.parametrize(
    "build",
    [
        lambda: moment_sequence(pauli_pair(), 10**6),
        lambda: moment_sequence([np.eye(1)], 2896),
        lambda: MomentSequence(2, 10**6, {(): 1.0}),
    ],
)
def test_oversized_sequences_are_refused_before_allocating(build):
    with pytest.raises(ValueError, match="moment sequence too large"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: MomentSequence(1, -1, {}),
        lambda: MomentSequence(2, -3, {(): 1.0}),
        lambda: MomentSequence.from_array(1, -3, []),
        lambda: MomentSequence.from_array(1, 1, [1.0, 0.0]).restricted(-2),
        lambda: moment_sequence(pauli_pair(), -1),
    ],
)
def test_negative_degrees_are_refused(build):
    with pytest.raises(ValueError, match="degree must be nonnegative, got -"):
        build()


@pytest.mark.parametrize("D", [2.0, 2.5, True, np.bool_(False)])
def test_degrees_that_are_not_integers_are_refused(D):
    message = re.escape(f"degree D must be an integer, got {D!r}")
    for build in (
        lambda: moment_sequence(pauli_pair(), D),
        lambda: MomentSequence(1, D, {(): 1.0, (1,): 0.0, (1, 1): 1.0}),
        lambda: MomentSequence.from_array(1, D, [1.0, 0.0, 1.0]),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    assert moment_sequence(pauli_pair(), np.int64(2)).max_degree == 2


def test_largest_single_variable_sequence_is_allowed():
    assert len(moment_sequence([np.eye(1)], 2895).values) == 2896


def test_real_pairs():
    z = np.array([[1 + 2j, -0.0 - 3j]])
    assert real_pairs(z).tolist() == [[[1.0, 2.0], [-0.0, -3.0]]]
    assert real_pairs(z).shape == (1, 2, 2)
