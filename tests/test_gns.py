import dataclasses
import json
import re

import numpy as np
import pytest

from nctrace.algebra import words_up_to
from nctrace.certify import dual_witness
from nctrace.cli import main
from nctrace.gns import (
    GnsModel,
    ModelRejected,
    _vacuum_values,
    gns_build,
    norm_bound_check,
    unitary_group,
    verify_moments,
    verify_trace_property,
)
from nctrace.moments import (
    MomentSequence,
    as_matrix_tuple,
    moment_matrix,
    moment_sequence,
    psd_check,
)

from helpers import (
    commutator_square_poly,
    make_rng,
    pauli_pair,
    random_hermitian_tuple,
    reference_matrix_tuple_json,
    reference_vacuum_values,
)


def test_scalar_model():
    t = moment_sequence([np.array([[2.0]])], 4)
    m = gns_build(t, 2)
    assert m.rank == 1
    assert m.operators[0][0, 0] == pytest.approx(2.0)
    assert abs(m.vacuum[0]) == pytest.approx(1.0)
    assert verify_moments(m, t, 2) < 1e-12


def test_identity_tuple_model():
    t = moment_sequence([np.eye(3), np.eye(3)], 4)
    m = gns_build(t, 2)
    assert m.rank == 1
    for y in m.operators:
        assert y[0, 0] == pytest.approx(1.0)


def test_pauli_model_rank_four():
    t = moment_sequence(pauli_pair(), 4)
    m = gns_build(t, 2)
    assert m.rank == 4
    assert verify_moments(m, t, 2) <= 1e-8
    assert verify_trace_property(m, t, 4) <= 1e-8
    assert max(m.hermiticity_defects) <= 1e-10
    assert m.shift_residual <= 1e-10


def test_vacuum_normalized():
    rng = make_rng(60)
    t = moment_sequence(random_hermitian_tuple(rng, 2, 3), 4)
    m = gns_build(t, 2)
    assert np.vdot(m.vacuum, m.vacuum).real == pytest.approx(1.0, abs=1e-9)


def test_psd_gate_refuses_indefinite_sequences():
    values = {(): 1.0, (1,): 0.0, (1, 1): -1.0}
    theta = MomentSequence(1, 2, values)
    with pytest.raises(ModelRejected, match="not PSD"):
        gns_build(theta, 1)


def test_membership_gate_refuses_broken_sequences():
    t = moment_sequence(pauli_pair(), 2)
    vals = dict(t.values)
    vals[(1, 2)] = 0.5
    with pytest.raises(ModelRejected, match="membership"):
        gns_build(MomentSequence(2, 2, vals), 1)


def _input_error(call) -> ValueError:
    """The ValueError a call raises, checked not to be a model refusal."""
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, ModelRejected)
    return info.value


def test_insufficient_degree():
    t = moment_sequence(pauli_pair(), 2)
    error = _input_error(lambda: gns_build(t, 2))
    assert str(error).startswith("insufficient degree")


@pytest.mark.parametrize("d", [0, -1])
def test_half_degree_below_one_is_an_input_error(d):
    t = moment_sequence(pauli_pair(), 2)
    error = _input_error(lambda: gns_build(t, d))
    assert str(error) == f"model half-degree must be at least 1, got {d}"


@pytest.mark.parametrize("d", [1.5, 2.0, True, np.bool_(True)])
def test_half_degree_that_is_not_an_integer_is_an_input_error(d):
    t = moment_sequence(pauli_pair(), 4)
    error = _input_error(lambda: gns_build(t, d))
    assert str(error) == f"model half-degree d must be an integer, got {d!r}"
    assert gns_build(t, np.int64(2)).rank == gns_build(t, 2).rank


def test_values_too_large_for_moment_matrix_arithmetic_are_refused():
    for big in (1e300, 1e154):
        theta = MomentSequence(1, 2, {(): 1.0, (1,): 0.0, (1, 1): big})
        error = _input_error(lambda: gns_build(theta, 1))
        assert str(error).startswith("moment values too large: arithmetic on the 2 x 2")
    theta = MomentSequence(1, 2, {(): 1.0, (1,): 0.0, (1, 1): 1e150})
    assert gns_build(theta, 1).rank >= 1


def test_verify_moments_degree_guard_and_trivial_degree():
    t = moment_sequence(pauli_pair(), 4)
    m = gns_build(t, 2)
    assert verify_moments(m, t, 0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        verify_moments(m, t, 3)


def test_trace_property_degree_one_is_exact():
    t = moment_sequence(pauli_pair(), 4)
    m = gns_build(t, 2)
    assert verify_trace_property(m, t, 1) == 0.0


def test_trace_property_detects_broken_cyclicity():
    # Lower the value on one palindromic degree-4 word; conjugate symmetry
    # survives, PSD survives (full-rank base), cyclic invariance does not.
    rng = make_rng(77)
    t = moment_sequence(random_hermitian_tuple(rng, 2, 3), 4)
    _, min_eig = psd_check(moment_matrix(t, 2))
    delta = min(2e-3, min_eig / 4)
    assert delta > 0
    vals = dict(t.values)
    vals[(2, 1, 1, 2)] = vals[(2, 1, 1, 2)] - delta
    broken = MomentSequence(2, 4, vals)
    model = gns_build(broken, 2, membership_tol=1.0)
    assert verify_trace_property(model, broken, 4) >= delta * 0.99


def test_round_trip_random_tuples():
    rng = make_rng(61)
    for _ in range(8):
        size = int(rng.integers(2, 4))
        t = moment_sequence(random_hermitian_tuple(rng, 2, size), 6)
        m = gns_build(t, 3)
        assert verify_moments(m, t, 3) <= 1e-8
        assert verify_trace_property(m, t, 6) <= 1e-8


def test_unitary_group_scalar():
    t = moment_sequence([np.array([[2.0]])], 4)
    m = gns_build(t, 2)
    u3 = unitary_group(m, 1, 0.3)
    u4 = unitary_group(m, 1, 0.4)
    u7 = unitary_group(m, 1, 0.7)
    assert u3[0, 0] == pytest.approx(np.exp(2j * 0.3))
    assert (u3 @ u4)[0, 0] == pytest.approx(u7[0, 0])
    assert np.allclose(unitary_group(m, 1, 0.0), np.eye(1))


@pytest.mark.parametrize("j", [0, 3])
def test_unitary_group_refuses_a_variable_index_out_of_range(j):
    m = gns_build(moment_sequence(pauli_pair(), 4), 2)
    with pytest.raises(ValueError, match=re.escape(f"variable index {j} out of range 1..2")):
        unitary_group(m, j, 0.1)


@pytest.mark.parametrize("j", [1.5, True])
def test_unitary_group_refuses_a_non_integer_variable_index(j):
    m = gns_build(moment_sequence(pauli_pair(), 4), 2)
    message = f"variable index j must be an integer, got {j!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        unitary_group(m, j, 0.1)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_unitary_group_refuses_a_non_finite_t(t):
    # It used to return an all-NaN matrix as the "unitary".
    m = gns_build(moment_sequence(pauli_pair(), 4), 2)
    with pytest.raises(ValueError, match=f"t must be finite, got {t}"):
        unitary_group(m, 1, t)


def test_unitary_group_pauli_isometry_and_group_law():
    t = moment_sequence(pauli_pair(), 4)
    m = gns_build(t, 2)
    for j in (1, 2):
        for tt in (0.1, 1.0, 10.0):
            U = unitary_group(m, j, tt)
            assert np.linalg.norm(U @ U.conj().T - np.eye(m.rank)) <= 1e-10
    for s, tt in ((0.2, 0.5), (1.0, -0.7), (3.0, 3.0)):
        U = unitary_group(m, 1, tt) @ unitary_group(m, 1, s)
        assert np.linalg.norm(U - unitary_group(m, 1, tt + s)) <= 1e-10


def test_unitary_group_rejects_non_hermitian_generator():
    bad = GnsModel(
        degree=1,
        rank=2,
        operators=[np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)],
        vacuum=np.array([1.0, 0.0], dtype=complex),
        reconstruction_error=0.0,
        shift_residual=0.0,
        hermiticity_defects=[1.0],
    )
    with pytest.raises(ValueError, match="not Hermitian"):
        unitary_group(bad, 1, 1.0)


def test_norm_bound_check_scalar():
    t = moment_sequence([np.array([[2.0]])], 4)
    m = gns_build(t, 2)
    assert norm_bound_check(m, t, 2.0).passed
    report = norm_bound_check(m, t, 1.0)
    assert not report.passed
    assert report.worst_moment_word == (1, 1, 1, 1)
    assert report.worst_moment_excess == pytest.approx(15.0, rel=1e-6)


def test_norm_bound_check_tie_keeps_the_first_word():
    # tr(X^4) = tr(Z^4) = 1 on the Pauli pair, so (1,1,1,1) and (2,2,2,2) tie.
    t = moment_sequence(pauli_pair(), 4)
    report = norm_bound_check(gns_build(t, 2), t, 0.5)
    assert not report.passed
    assert report.worst_moment_word == (1, 1, 1, 1)
    assert report.worst_moment_excess == 1.0 - 0.5**4 * (1 + 1e-9)


def test_norm_bound_check_identity():
    t = moment_sequence([np.eye(2)], 4)
    m = gns_build(t, 2)
    report = norm_bound_check(m, t, 1.0)
    assert report.passed
    assert report.operator_slack <= 1e-9


def test_norm_bound_check_random_with_true_radius():
    rng = make_rng(62)
    mats = random_hermitian_tuple(rng, 2, 3, radius=1.3)
    t = moment_sequence(mats, 6)
    m = gns_build(t, 3)
    report = norm_bound_check(m, t, max(np.linalg.norm(x, 2) for x in mats))
    assert report.passed


def test_model_export_shape(tmp_path, capsys):
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(reference_matrix_tuple_json(as_matrix_tuple(pauli_pair()))))
    assert main(["gns-check", str(path), "--degree", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] == 4
    assert len(data["basis"]) == 7
    assert len(data["operators"]) == 2
    assert len(data["operators"][0]) == 4
    assert len(data["operators"][0][0]) == 4
    assert len(data["operators"][0][0][0]) == 2
    assert len(data["vacuum"]) == 4
    assert len(data["vacuum"][0]) == 2
    assert set(data["diagnostics"]) == {
        "reconstruction_error",
        "shift_residual",
        "hermiticity_defects",
    }


def test_norm_bound_report_as_dict_is_its_fields():
    t = moment_sequence(pauli_pair(), 4)
    report = norm_bound_check(gns_build(t, 2), t, 0.5)
    assert not report.passed and report.worst_moment_word is not None
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    assert report.as_dict() == fields
    assert set(report.as_dict()) == {
        "passed", "radius", "worst_moment_excess", "worst_moment_word",
        "operator_norms", "operator_slack",
    }


# -- level-batched code against the word-by-word reference -------------------


@pytest.mark.parametrize("n,N,d", [(1, 3, 2), (2, 2, 1), (2, 3, 2), (2, 3, 3), (3, 2, 2)])
def test_vacuum_checks_equal_word_loop(n, N, d):
    t = moment_sequence(random_hermitian_tuple(make_rng(63 + 10 * n + N + d), n, N), 2 * d)
    model = gns_build(t, d)
    for deg in range(d + 1):
        ref = reference_vacuum_values(model, deg)
        expected = max(abs(ref[w] - t.values[w]) for w in ref)
        assert abs(verify_moments(model, t, deg) - expected) <= 1e-14
    for deg in range(2 * d + 1):
        ref = reference_vacuum_values(model, deg)
        expected = max(
            (abs(v - ref[w[s:] + w[:s]]) for w, v in ref.items() for s in range(1, len(w))),
            default=0.0,
        )
        assert abs(verify_trace_property(model, t, deg) - expected) <= 1e-14


def _broken_sequence() -> MomentSequence:
    t = moment_sequence(random_hermitian_tuple(make_rng(64), 2, 3), 4)
    vals = dict(t.values)
    vals[(2, 1, 1, 2)] -= 1e-3
    return MomentSequence(2, 4, vals)


def test_trace_property_equals_word_loop_on_broken_sequence():
    broken = _broken_sequence()
    model = gns_build(broken, 2, membership_tol=1.0)
    ref = reference_vacuum_values(model, 4)
    expected = max(
        abs(v - ref[w[s:] + w[:s]]) for w, v in ref.items() for s in range(1, len(w))
    )
    assert expected > 1e-6
    assert max(model.hermiticity_defects) > 0
    assert abs(verify_trace_property(model, broken, 4) - expected) <= 1e-14


@pytest.mark.parametrize("n,rank", [(1, 3), (2, 4), (3, 5)])
def test_vacuum_values_equal_word_loop_for_non_hermitian_operators(n, rank):
    # <vacuum, Y_J Y_K vacuum> = <Y_J^* vacuum, Y_K vacuum> holds for any
    # operators; with non-Hermitian ones, a split that used Y_J where Y_J^*
    # belongs, or put the letters of either half in the wrong order, fails.
    rng = make_rng(65 + n)
    ops = rng.normal(size=(n, rank, rank)) + 1j * rng.normal(size=(n, rank, rank))
    vacuum = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    model = GnsModel(
        degree=3,
        rank=rank,
        operators=list(ops / np.sqrt(rank)),
        vacuum=vacuum,
        reconstruction_error=0.0,
        shift_residual=0.0,
    )
    assert min(np.abs(y - y.conj().T).max() for y in model.operators) > 0.1
    for degree in range(7):
        ref = reference_vacuum_values(model, degree)
        expected = np.array([ref[w] for w in words_up_to(n, degree)])
        np.testing.assert_allclose(
            _vacuum_values(model, degree), expected, rtol=1e-12, atol=0
        )


@pytest.mark.parametrize("R", [float("nan"), 0.0, -1.0, float("inf")])
def test_norm_bound_check_rejects_bad_radius(R):
    t = moment_sequence(pauli_pair(), 4)
    with pytest.raises(ValueError, match="radius R must be positive and finite"):
        norm_bound_check(gns_build(t, 2), t, R)


def test_norm_bound_check_refuses_a_radius_whose_powers_overflow():
    t = moment_sequence(pauli_pair(), 4)
    model = gns_build(t, 2)
    assert norm_bound_check(model, t, 1e77).passed
    with pytest.raises(ValueError, match=r"radius R = 1e\+78 is too large: R\^4 is not finite"):
        norm_bound_check(model, t, 1e78)


def test_norm_bound_check_needs_degree_two():
    model = gns_build(moment_sequence(pauli_pair(), 2), 1)
    t = moment_sequence(pauli_pair(), 1)
    with pytest.raises(ValueError, match="degree at least 2"):
        norm_bound_check(model, t, 1.0)


# -- exactly self-adjoint operators and their norms ---------------------------

# A tuple's sequence, the witness the refute commands feed to gns-check (the
# negated commutator square at radius 3), and a sequence broken off the
# trace property, whose data is not self-adjoint on the shift domain.
MODEL_INPUTS = {
    "tuple": lambda: (moment_sequence(random_hermitian_tuple(make_rng(66), 3, 3), 4), 1e-8),
    "witness": lambda: (dual_witness(-1 * commutator_square_poly(), 2, R=3.0).theta, 1e-8),
    "broken": lambda: (_broken_sequence(), 1.0),
}


@pytest.mark.parametrize("name", list(MODEL_INPUTS))
def test_every_operator_equals_its_adjoint_exactly(name):
    theta, membership_tol = MODEL_INPUTS[name]()
    model = gns_build(theta, theta.max_degree // 2, membership_tol)
    assert model.rank > 1
    for y in model.operators:
        assert np.array_equal(y, y.conj().T)
    # The defects are the data's, not the emitted operators'.
    if name == "broken":
        assert max(model.hermiticity_defects) > 0


def test_unitary_group_refuses_a_model_of_data_that_is_not_self_adjoint():
    # A tracial state weighted 3e-8 into another: the moment matrix's
    # eigenvalues of that weight fall below the rank tolerance, and dropping
    # them leaves the data's shift about 2.8e-8 off self-adjoint.  The
    # emitted operator equals its adjoint; the refusal reads the data.
    a = moment_sequence(random_hermitian_tuple(make_rng(64), 2, 2), 4)
    b = moment_sequence(random_hermitian_tuple(make_rng(65), 2, 3), 4)
    mixed = {w: (1 - 3e-8) * a.values[w] + 3e-8 * b.values[w] for w in a.values}
    model = gns_build(MomentSequence(2, 4, mixed), 2)
    assert model.hermiticity_defects[0] > 2e-8
    assert np.array_equal(model.operators[0], model.operators[0].conj().T)
    with pytest.raises(ValueError, match="generator 1 is not Hermitian"):
        unitary_group(model, 1, 1.0)
