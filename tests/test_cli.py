import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from nctrace import algebra, certify, cli, parsing
from nctrace.algebra import NCPoly, star_product, words_up_to
from nctrace.certify import (
    DualWitness,
    Falsification,
    SolverStalled,
    dual_witness,
    falsify,
    validate_witness,
)
from nctrace.cli import main
from nctrace.gns import gns_build, norm_bound_check, verify_moments, verify_trace_property
from nctrace.moments import (
    MatrixTuple,
    MomentSequence,
    as_matrix_tuple,
    check_w_membership,
    moment_sequence,
)
from nctrace.parsing import format_poly, parse_poly
from nctrace.sampling import pauli_pair
from nctrace.sdp import NoFeasiblePoint

from helpers import (
    assert_same_text,
    checkout_env,
    make_rng,
    random_hermitian_tuple,
    reference_build_parser,
    reference_matrix_tuple_json,
    reference_model_json,
    reference_theta_json,
    stdlib_json,
)

COMMUTATOR = (
    "# squared commutator identity\n"
    "0.5*Y1^2 Y2^2 + 0.5*Y2^2 Y1^2 - 0.5*Y1 Y2 Y1 Y2 - 0.5*Y2 Y1 Y2 Y1\n"
)
NEGATED = (
    "0.5*Y1 Y2 Y1 Y2 + 0.5*Y2 Y1 Y2 Y1 - 0.5*Y1^2 Y2^2 - 0.5*Y2^2 Y1^2\n"
)


@pytest.fixture
def poly_file(tmp_path):
    def write(text, name="poly.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def pauli_json(tmp_path):
    def pairs(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    sx, sz = pauli_pair()
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps({"n": 2, "N": 2, "matrices": [pairs(sx), pairs(sz)]}))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_certify_square(poly_file, capsys):
    code, data = run_cli(["certify", poly_file("Y1^2")], capsys)
    assert code == 0
    assert data["degree"] == 1
    assert len(data["factors"]) == 1
    assert "Y1" in data["factors"][0]
    assert data["residual_l1"] <= 1e-8


def test_certify_commutator_scaled(poly_file, capsys):
    code, data = run_cli(["certify", poly_file(COMMUTATOR)], capsys)
    assert code == 0
    assert data["degree"] == 2
    assert data["residual_l1"] <= 1e-6


def test_certify_rejects_bad_certificate(poly_file, capsys, monkeypatch):
    monkeypatch.setattr(
        certify, "extract_factors", lambda G, basis, nvars: [NCPoly(nvars, {(1,): 1.0})]
    )
    code = main(["certify", poly_file(COMMUTATOR)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("nctrace: solver failed: certificate residual")


def test_certify_rejects_non_symmetric(poly_file, capsys):
    code = main(["certify", poly_file("Y1 Y2")])
    captured = capsys.readouterr()
    assert code == 1
    assert "self-adjoint" in captured.err


def test_certify_infeasible_exit_two(poly_file, capsys):
    code, data = run_cli(["certify", poly_file(NEGATED)], capsys)
    assert code == 2
    assert data["status"] == "infeasible-at-tolerance"
    assert data["degree"] == 2
    assert data["gap"] > 0


def test_witness_found_exit_two(poly_file, capsys):
    code, data = run_cli(
        ["witness", poly_file(NEGATED), "--degree", "2", "--radius", "1"], capsys
    )
    assert code == 2
    assert data["degree"] == 4
    assert data["R"] == 1.0
    assert data["value"] <= -1.0
    words = {tuple(item["word"]): complex(item["re"], item["im"]) for item in data["theta"]}
    assert words[()] == 1.0
    assert len(words) == 31  # all words of length <= 4 in two letters


def test_witness_absent_exit_zero(poly_file, capsys):
    code, data = run_cli(["witness", poly_file("Y1^2")], capsys)
    assert code == 0
    assert data["witness_found"] is False
    assert data["optimum"] >= -1e-6


def test_witness_solver_failure_is_exit_one(poly_file, capsys, monkeypatch):
    def no_point(*args, **kwargs):
        raise NoFeasiblePoint("no feasible iterate found within 20000 iterations")

    monkeypatch.setattr(cli, "witness_search", no_point)
    code = main(["witness", poly_file(NEGATED)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("nctrace: solver failed: no feasible iterate")


def test_invalid_witness_is_not_emitted(poly_file, capsys, monkeypatch):
    # theta(Y1^2) = -1 pairs negatively but is not positive on squares.
    theta = MomentSequence(1, 2, {(): 1.0, (1,): 0.0, (1, 1): -1.0})
    monkeypatch.setattr(cli, "witness_search", lambda *a, **k: (theta, -1.0))
    code = main(["witness", poly_file("-1*Y1^2")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("nctrace: solver failed: witness failed validation")


@pytest.mark.parametrize("command", ["certify", "witness"])
def test_nan_tol_fails_fast(poly_file, capsys, command):
    start = time.perf_counter()
    code = main([command, poly_file(NEGATED), "--tol", "nan"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert "tol must be positive" in captured.err
    assert elapsed < 1.0


def test_falsify_finds_pauli(poly_file, capsys):
    code, data = run_cli(
        ["falsify", poly_file(NEGATED), "--trials", "10", "--seed", "0"], capsys
    )
    assert code == 2
    assert data["falsified"] is True
    assert data["trace"] == pytest.approx(-2.0, abs=1e-12)
    assert data["source"] == "library"
    assert data["tuple"]["N"] == 2


def test_falsify_none_exit_zero(poly_file, capsys):
    code, data = run_cli(
        ["falsify", poly_file("Y1^2"), "--trials", "20", "--size", "3"], capsys
    )
    assert code == 0
    assert data["falsified"] is False


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--trials", "-5"], "trials must be nonnegative"),
        (["--radius", "nan"], "radius R must be positive"),
        (["--radius", "-1"], "radius R must be positive"),
        (["--size", "0"], "size N must be at least 1"),
    ],
)
def test_falsify_rejects_bad_options(poly_file, capsys, flags, message):
    code = main(["falsify", poly_file(NEGATED), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("text", [NEGATED, "Y1^2"])
def test_falsify_refuses_a_negative_seed(poly_file, capsys, text):
    # The negated square is falsified by the library, before any draw, and
    # Y1^2 would reach the random draws: both refuse the seed first.
    code = main(["falsify", poly_file(text), "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "nctrace: seed must be a nonnegative integer, got -1\n"


def test_moments_rejects_nan_matrix(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"n": 1, "N": 2, "matrices": [[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]]}'
    )
    code = main(["moments", str(path), "--degree", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_moments_pauli(pauli_json, capsys):
    code, data = run_cli(["moments", pauli_json, "--degree", "4"], capsys)
    assert code == 0
    assert data["membership"]["passed"] is True
    values = {tuple(item["word"]): item["re"] for item in data["values"]}
    assert values[(1, 2, 1, 2)] == pytest.approx(-1.0)
    assert values[(1, 1, 2, 2)] == pytest.approx(1.0)


def test_moments_rejects_non_hermitian(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"n": 1, "N": 2, "matrices": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]}
        )
    )
    code = main(["moments", str(path), "--degree", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Hermitian" in captured.err


def test_moments_complex_tuple_writes_json(tmp_path, capsys):
    mats = random_hermitian_tuple(make_rng(70), 3, 3)
    path = tmp_path / "complex.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "N": 3,
                "matrices": [
                    [[[float(v.real), float(v.imag)] for v in row] for row in m]
                    for m in mats
                ],
            }
        )
    )
    code, data = run_cli(["moments", str(path), "--degree", "4"], capsys)
    assert code == 0
    assert data["membership"]["passed"] is True
    values = {tuple(e["word"]): complex(e["re"], e["im"]) for e in data["values"]}
    assert max(abs(v.imag) for v in values.values()) > 1e-3
    for word, value in values.items():
        product = np.eye(3, dtype=complex)
        for letter in word:
            product = product @ mats[letter - 1]
        assert abs(value - np.trace(product) / 3) <= 1e-12


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--degree", "0"], "half-degree must be at least 1, got 0"),
        (["--degree", "-1"], "half-degree must be at least 1, got -1"),
        (["--radius", "nan"], "radius R must be positive and finite, got nan"),
        (["--radius", "0"], "radius R must be positive and finite, got 0.0"),
        (["--radius", "-1"], "radius R must be positive and finite, got -1.0"),
    ],
)
def test_gns_check_rejects_bad_options(pauli_json, capsys, flags, message):
    code = main(["gns-check", pauli_json, *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "command,text,radius,message",
    [
        ("falsify", COMMUTATOR, "1e100", "R^4 is not finite"),
        ("falsify", COMMUTATOR, "1e77", "the traces of 4 x 4 matrices of that norm overflow"),
        ("witness", NEGATED, "1e100", "R^4 is not finite"),
    ],
)
def test_huge_radius_exits_one_naming_it(command, text, radius, message, poly_file, capsys):
    code = main([command, poly_file(text), "--radius", radius])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"nctrace: radius R = {float(radius)} is too large: {message}\n"


def test_falsify_below_half_the_largest_float_finds_a_verified_tuple(poly_file, capsys):
    # N R^deg p = 5e307 is finite, and draws of norm below 5e307 / max float
    # are divided by their norm before they are scaled.
    code = main(["falsify", poly_file("Y1"), "--radius", "5e307", "--size", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    data = json.loads(captured.out)
    assert data["falsified"] is True and data["source"] == "random"
    (re_part, im_part), = data["tuple"]["matrices"][0][0]
    X = as_matrix_tuple([np.array([[complex(re_part, im_part)]])])
    assert data["trace"] == certify._real_trace(NCPoly(1, {(1,): 1.0}), X) < 0
    assert abs(re_part) == 5e307


def test_falsify_above_half_the_largest_float_exits_one(poly_file, capsys):
    code = main(["falsify", poly_file("Y1"), "--radius", "1e308", "--size", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        "nctrace: radius R = 1e+308 is too large: matrices of norm R may have "
        "entries above half the largest float\n"
    )


def _assert_validated_witness(data: dict, radius: float) -> None:
    """The witness a ``witness`` payload writes passes validate_witness."""
    theta = cli._theta_from_json(data, "witness")
    assert validate_witness(DualWitness(theta, data["value"], radius)).passed


def test_witness_radius_past_the_scaled_anchor_mixes_the_unscaled_one(poly_file, capsys):
    # R^4 = 1e308 is finite at R = 1e77, so the radius passes its check, and
    # the solve needs its anchor.  The scaled anchor's least eigenvalue is
    # below eigvalsh's resolution at these R, so the unscaled one, feasible
    # for every R >= 1, is mixed in; no trace of a tuple of norm R is taken,
    # so nothing overflows.
    for radius in ("1e20", "1e77"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, data = run_cli(["witness", poly_file(NEGATED), "--radius", radius], capsys)
        assert code == 2 and data["R"] == float(radius) and data["value"] < 0
        _assert_validated_witness(data, float(radius))


def _negated_random_square(seed: int) -> str:
    """The text of -b^* b for b with complex coefficients on every word of
    length <= 2 in two variables."""
    rng = make_rng(seed)
    basis = words_up_to(2, 2)
    b = NCPoly(2, dict(zip(basis, rng.normal(size=7) + 1j * rng.normal(size=7))))
    return format_poly(-1.0 * star_product(b.adjoint(), b)) + "\n"


@pytest.mark.parametrize("radius", ["1e3", "1e5"])
def test_witness_pairing_at_large_radius_is_real_to_its_scale(radius, poly_file, capsys):
    # The pairing's imaginary part is rounding of the size of p's R-norm
    # times the float precision (1024 on -2.5e20 at R = 1e5), past any
    # absolute bound.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run_cli(
            ["witness", poly_file(_negated_random_square(0)), "--degree", "2",
             "--radius", radius], capsys,
        )
    assert code == 2 and data["value"] < -1e11
    _assert_validated_witness(data, float(radius))


def test_witness_complex_pairing_is_one_solver_failure_line(poly_file, monkeypatch, capsys):
    monkeypatch.setattr(certify, "pair", lambda p, theta: complex(-2.0, 1e-3))
    code = main(["witness", poly_file(NEGATED)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "nctrace: solver failed: pairing unexpectedly complex: (-2+0.001j)\n"


@pytest.mark.parametrize("radius", ["3", "100"])
def test_witness_at_large_radius_uses_the_scaled_anchor(radius, poly_file, capsys):
    # At R = 100 the anchor's traces, taken of a tuple of norm R, were not
    # Hermitian to the absolute tolerance and the search exited 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run_cli(["witness", poly_file(NEGATED), "--radius", radius], capsys)
    R = float(radius)
    assert code == 2 and data["R"] == R
    # The optimum of the negated halved commutator square in the box of
    # radius R is -2 R^4.
    assert data["value"] == pytest.approx(-2 * R**4, rel=1e-6)


def test_gns_check_huge_radius_exits_one_naming_it(pauli_json, tmp_path, capsys):
    code = main(["gns-check", pauli_json, "--radius", "1e100"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "nctrace: radius R = 1e+100 is too large: R^4 is not finite\n"
    # A sequence of degree 6 is checked at its own degree, not the model's.
    theta = moment_sequence(pauli_pair(), 6)
    entries = [{"word": list(w), "re": v.real, "im": v.imag} for w, v in theta.values.items()]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"theta": entries}))
    code = main(["gns-check", str(path), "--degree", "2", "--radius", "1e60"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "nctrace: radius R = 1e+60 is too large: R^6 is not finite\n"
    code, data = run_cli(["gns-check", str(path), "--degree", "2", "--radius", "1e50"], capsys)
    assert code == 0 and data["checks"]["norm_bound"]["passed"] is True


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_moments_rejects_bad_tol(pauli_json, capsys, tol):
    code = main(["moments", pauli_json, "--degree", "2", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "tol must be nonnegative" in captured.err


@pytest.mark.parametrize(
    "radius,message",
    [
        ("nan", "radius must be positive and finite, got nan"),
        ("inf", "radius must be positive and finite, got inf"),
        ("1e300", "result is not finite"),
    ],
)
def test_norm_rejects_bad_radius(poly_file, capsys, radius, message):
    code = main(["norm", poly_file("Y1^2 Y2^2"), "--radius", radius])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err


def test_gns_check_matrix_input(pauli_json, capsys):
    code, data = run_cli(["gns-check", pauli_json, "--degree", "2"], capsys)
    assert code == 0
    assert data["rank"] == 4
    assert data["checks"]["moment_error"] <= 1e-8
    assert data["checks"]["trace_error"] <= 1e-8
    assert data["checks"]["norm_bound"]["passed"] is True


def test_gns_check_theta_entries_in_any_order(tmp_path, capsys):
    theta = moment_sequence(pauli_pair(), 4)
    entries = [
        {"word": list(w), "re": v.real, "im": v.imag} for w, v in theta.values.items()
    ]
    outputs = []
    for order in (entries, entries[::-1], entries[1::2] + entries[::2]):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"degree": 4, "theta": order}))
        assert main(["gns-check", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_gns_check_witness_input(tmp_path, capsys):
    theta = moment_sequence(pauli_pair(), 4)
    payload = {
        "degree": 4,
        "R": 1.0,
        "value": -2.0,
        "theta": [
            {"word": list(w), "re": v.real, "im": v.imag}
            for w, v in theta.values.items()
        ],
    }
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(payload))
    code, data = run_cli(["gns-check", str(path)], capsys)
    assert code == 0
    assert data["rank"] == 4


def test_gns_check_rejects_indefinite_theta(tmp_path, capsys):
    payload = {
        "degree": 2,
        "theta": [
            {"word": [], "re": 1.0, "im": 0.0},
            {"word": [1], "re": 0.0, "im": 0.0},
            {"word": [1, 1], "re": -1.0, "im": 0.0},
        ],
    }
    path = tmp_path / "bad_witness.json"
    path.write_text(json.dumps(payload))
    assert main(["gns-check", str(path), "--degree", "1"]) == 2
    assert capsys.readouterr().out == (
        '{\n  "reason": "moment matrix is not PSD: min eigenvalue -1.000000e+00",\n'
        '  "status": "rejected"\n}\n'
    )


def test_norm_command(poly_file, capsys):
    code, data = run_cli(
        ["norm", poly_file("2*Y1 + 3*Y1 Y2"), "--radius", "2"], capsys
    )
    assert code == 0
    assert data["norm"] == pytest.approx(16.0)


def test_out_flag_and_determinism(poly_file, tmp_path, capsys):
    src = poly_file(NEGATED)
    out1, out2 = str(tmp_path / "w1.json"), str(tmp_path / "w2.json")
    assert main(["witness", src, "--degree", "2", "--out", out1]) == 2
    assert main(["witness", src, "--degree", "2", "--out", out2]) == 2
    with open(out1, "rb") as fh1, open(out2, "rb") as fh2:
        assert fh1.read() == fh2.read()
    stdout = []
    for _ in range(2):
        assert main(["witness", src, "--degree", "3"]) == 2
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]


THREE_SQUARES = "Y1^2 + Y2^2 + Y1 Y2 + Y2 Y1 + 2*Y3 Y1 Y1 Y3 + Y3^2\n"


@pytest.mark.parametrize(
    "command,text,extra",
    [
        ("certify", THREE_SQUARES, ("--degree", "2")),
        ("certify", NEGATED, ()),
        ("witness", NEGATED, ("--degree", "3")),
    ],
    ids=["certificate", "infeasible", "witness"],
)
def test_output_same_under_any_hash_seed(command, text, extra, poly_file):
    # String hashes, and so set and dict-of-str orders, vary with the seed;
    # the output must not.
    argv = [sys.executable, "-m", "nctrace.cli", command, poly_file(text), *extra]
    runs = []
    for seed in ("0", "1"):
        env = {**checkout_env(), "PYTHONHASHSEED": seed}
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0][0] in (0, 2)
    assert runs[0][1]
    assert runs[0] == runs[1]


def test_certificate_json_round_trips_through_parser(poly_file, tmp_path, capsys):
    # The factors in the emitted JSON are normative interchange strings:
    # parsing them back must reproduce a certificate with the same residual.
    from nctrace.algebra import NCPoly, star_product
    from nctrace.parsing import parse_poly

    src = poly_file(COMMUTATOR)
    out = str(tmp_path / "cert.json")
    assert main(["certify", src, "--out", out]) == 0
    with open(out) as fh:
        data = json.load(fh)
    p = parse_poly(
        "0.5*Y1^2 Y2^2 + 0.5*Y2^2 Y1^2 - 0.5*Y1 Y2 Y1 Y2 - 0.5*Y2 Y1 Y2 Y1", 2
    )
    total = NCPoly.zero(2)
    for text in data["factors"]:
        b = parse_poly(text, 2)
        total = total + star_product(b.adjoint(), b)
    residual = (p - total).cyclic_reduce().r_norm(1.0)
    assert residual == pytest.approx(data["residual_l1"], abs=1e-12)


# Every process-wide cache of the library.
CACHES = (
    algebra._least_rotation,
    parsing._letters,
    parsing._format_word,
    certify.cyclic_classes,
    certify._tracial_anchor,
    cli._theta_template,
)


def test_certify_writes_the_same_bytes_with_warm_and_cleared_caches(poly_file, capsys):
    path = poly_file(COMMUTATOR)
    main(["certify", path])
    first = capsys.readouterr()
    for cache in (None, *CACHES):
        if cache is not None:
            cache.cache_clear()
        assert main(["certify", path]) == 0
        assert capsys.readouterr() == first


@pytest.mark.parametrize("cache", CACHES, ids=lambda cache: cache.__name__)
def test_each_process_cache_is_bounded(cache):
    assert 1 <= cache.cache_info().maxsize <= 4096


@pytest.mark.parametrize("command", ["certify", "witness"])
@pytest.mark.parametrize("text", [COMMUTATOR, "3"])
def test_a_negative_degree_exits_one_naming_it(command, text, poly_file, capsys):
    code = main([command, poly_file(text), "--degree", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "nctrace: half-degree d must be nonnegative, got -1\n"


def test_missing_file_is_input_error(capsys):
    code = main(["certify", "/nonexistent/poly.txt"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read" in captured.err


def test_parse_error_reports_offset(poly_file, capsys):
    code = main(["norm", poly_file("Y1 + + Y2")])
    captured = capsys.readouterr()
    assert code == 1
    assert "offset" in captured.err


@pytest.mark.parametrize("command", ["certify", "witness", "falsify", "norm"])
def test_lone_index_zero_is_a_parse_error(command, poly_file, capsys):
    code = main([command, poly_file("# only Y0\nY0^2\n")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("nctrace: ")
    # The offset indexes the file: the comment line is 10 characters.
    assert "index 0 outside 1..1 at offset 10" in captured.err


@pytest.mark.parametrize("command", ["certify", "witness", "falsify", "norm"])
def test_huge_power_exits_one_without_allocating(command, poly_file, capsys):
    src = poly_file("Y1^99999999999\n")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main([command, src])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "word longer than 64 letters at offset 0" in captured.err
    assert elapsed < 0.5
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["certify", "witness", "falsify", "norm"])
@pytest.mark.parametrize(
    "text,message",
    [
        ("Y" + "1" * 5000, "index longer than 18 digits at offset 1"),
        ("Y1^" + "1" * 5000, "power longer than 18 digits at offset 3"),
        ("# big\nY1 Y" + "2" * 4400 + " + Y2", "index longer than 18 digits at offset 10"),
    ],
)
def test_oversized_digit_runs_exit_one(command, text, message, poly_file, capsys):
    # int() of these runs raises a plain ValueError past 4,300 digits.
    src = poly_file(text)
    code = main([command, src])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"nctrace: {src}: {message}\n"


@pytest.mark.parametrize("command", ["certify", "witness", "falsify", "norm"])
@pytest.mark.parametrize(
    "text,offset",
    [
        ("1e999*Y1^2", 0),
        ("(0,1e999)*Y1 Y2 - (0,1e999)*Y2 Y1", 0),
        ("1e308*Y1^2 + 1e308*Y1^2", 13),
    ],
)
def test_non_finite_coefficients_exit_one(command, text, offset, poly_file, capsys):
    # falsify used to search 1e999*Y1^2 and report "falsified": false.
    src = poly_file(text)
    code = main([command, src])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"nctrace: {src}: coefficient is not finite at offset {offset}\n"


@pytest.mark.parametrize("command", ["certify", "witness"])
@pytest.mark.parametrize("tol", ["inf", "1e999", "0", "-1"])
def test_tol_outside_positive_reals_exits_one(command, tol, poly_file, capsys):
    code = main([command, poly_file("Y1^2 + Y2^2\n"), f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "tol must be positive and finite" in captured.err


def test_console_entry_point(poly_file):
    proc = subprocess.run(
        [sys.executable, "-m", "nctrace.cli", "norm", poly_file("Y1"), "--radius", "3"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["norm"] == pytest.approx(3.0)


# -- the JSON writer against the stdlib encoder --------------------------------


def _plain(value):
    """A CLI payload with its arrays and sequences as the reference lists."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, MomentSequence):
        return reference_theta_json(value)
    if isinstance(value, cli._Words):
        return [list(w) for w in words_up_to(value.n, value.D)]
    return value


def _tuple_file(tmp_path, mats, name="tuple.json"):
    path = tmp_path / name
    path.write_text(json.dumps(reference_matrix_tuple_json(as_matrix_tuple(mats))))
    return str(path)


@pytest.fixture
def indefinite_theta(tmp_path):
    path = tmp_path / "bad_witness.json"
    path.write_text(
        json.dumps(
            {
                "degree": 2,
                "theta": [
                    {"word": [], "re": 1.0, "im": 0.0},
                    {"word": [1], "re": 0.0, "im": 0.0},
                    {"word": [1, 1], "re": -1.0, "im": 0.0},
                ],
            }
        )
    )
    return str(path)


@pytest.mark.parametrize(
    "kind,expected_code",
    [
        ("certificate", 0),
        ("infeasible", 2),
        ("witness-found", 2),
        ("witness-absent", 0),
        ("falsify-hit", 2),
        ("falsify-miss", 0),
        ("moments", 0),
        ("gns-accepted", 0),
        ("gns-rejected", 2),
        ("norm", 0),
    ],
)
def test_emit_matches_stdlib_on_every_payload_kind(
    kind, expected_code, poly_file, pauli_json, indefinite_theta, tmp_path,
    monkeypatch, capsys,
):
    poly = {
        "certificate": COMMUTATOR, "infeasible": NEGATED, "witness-found": NEGATED,
        "witness-absent": "Y1^2", "falsify-hit": NEGATED, "falsify-miss": "Y1^2",
        "norm": "2*Y1 + (0,-3)*Y1 Y2",
    }.get(kind)
    src = poly_file(poly) if poly else None
    argv = {
        "certificate": ["certify", src],
        "infeasible": ["certify", src],
        "witness-found": ["witness", src, "--degree", "2"],
        "witness-absent": ["witness", src],
        "falsify-hit": ["falsify", src, "--trials", "10"],
        "falsify-miss": ["falsify", src, "--trials", "20", "--size", "3"],
        "moments": [
            "moments",
            _tuple_file(tmp_path, random_hermitian_tuple(make_rng(71), 3, 2)),
            "--degree", "5",
        ],
        "gns-accepted": ["gns-check", pauli_json],
        "gns-rejected": ["gns-check", indefinite_theta, "--degree", "1"],
        "norm": ["norm", src, "--radius", "2"],
    }[kind]
    payloads = []
    emit = cli._emit

    def spy(payload, out_path):
        payloads.append(payload)
        emit(payload, out_path)

    monkeypatch.setattr(cli, "_emit", spy)
    assert main(argv) == expected_code
    (payload,) = payloads
    assert_same_text(capsys.readouterr().out, stdlib_json(_plain(payload)))


EDGE_PAYLOADS = {
    "floats": [-0.0, 0.0, 1e-05, 1e-07, 1e16, 1e22, 5e-324, 1.7976931348623157e308, 0.1, -2.5],
    "ints": [0, -1, 2**63, -(2**70), 10**40],
    "constants": {"t": True, "f": False, "none": None},
    "empties": {"list": [], "dict": {}, "nested": [[], {}, [[]]], "tuple": ()},
    "strings": ['quote " mark', "back\\slash", "caf\u00e9 \u2603 \U0001f600", "tab\tnl\n\x00", ""],
    "key order": {"b": 1, "a": {"z": [1, 2.0], "y": None}, "A": "x", "": 0},
    "arrays": {
        "signed zero": np.array([[-0.0, 0.0], [1e-05, 5e-324]]),
        "empty": np.zeros(0),
        "empty rows": np.zeros((2, 0)),
        "no rows": np.zeros((0, 3)),
        "scalar": np.array(1e16),
        "cube": np.arange(24.0).reshape(2, 3, 4) / 7,
    },
    "degree-0 theta": {"theta": MomentSequence(2, 0, {(): 1.0})},
    # Magnitudes repeated with both signs, signed zeros in both parts, a
    # subnormal, and both sides of repr's exponent boundaries 1e-05 and 1e+16.
    "signed theta": {
        "theta": MomentSequence.from_array(
            2,
            3,
            [
                1.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                complex(1e-05, -1e-05), complex(-9.999999999999999e-06, 1e16),
                complex(1e16, -9999999999999998.0), complex(5e-324, -5e-324),
                complex(-0.1, 0.1), complex(0.1, -0.1), complex(-1.0, 1.0),
                complex(1.0, 1e-05), complex(-2.5, 1.7976931348623157e308),
                complex(0.0001, -0.0001), complex(-1e-05, 1e16),
            ],
        )
    },
    "class-constant theta d=2": {"theta": dual_witness(parse_poly(NEGATED, 2), d=2).theta},
    "class-constant theta d=3": {"theta": dual_witness(parse_poly(NEGATED, 2), d=3).theta},
    "n=1 theta": {"values": moment_sequence([np.array([[0.5, 1j], [-1j, -0.25]])], 6)},
    "n=1 N=1 tuple": {
        "matrices": cli._matrix_tuple_json(as_matrix_tuple([np.array([[-0.0]])]))
    },
    "N=1 tuple": cli._matrix_tuple_json(
        as_matrix_tuple([np.array([[2.0]]), np.array([[-1e-300]]), np.array([[3.0]])])
    ),
}


@pytest.mark.parametrize("name", list(EDGE_PAYLOADS))
def test_emit_matches_stdlib_on_edge_values(name, capsys):
    payload = EDGE_PAYLOADS[name]
    cli._emit(payload, None)
    assert_same_text(capsys.readouterr().out, stdlib_json(_plain(payload)))


# Sequences written through the cached entry templates: one word (two
# slots), signed zeros in both parts, and a full random sequence.
THETAS = {
    "degree 0": MomentSequence(2, 0, {(): 1.0}),
    "signed zeros": MomentSequence.from_array(
        2, 1, [complex(1.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
    ),
    "n=3 D=4": moment_sequence(random_hermitian_tuple(make_rng(72), 3, 2), 4),
}


@pytest.mark.parametrize("name", list(THETAS))
def test_a_theta_is_written_alike_from_warm_and_cleared_templates(name):
    theta, ref = THETAS[name], reference_theta_json(THETAS[name])
    # The sequence 0, 1 and 2 containers deep.
    nest = (lambda x: x, lambda x: {"values": x}, lambda x: {"a": [x]})
    expected = [json.dumps(wrap(ref), indent=2, sort_keys=True) for wrap in nest]
    for clear in (True, False):
        if clear:
            cli._theta_template.cache_clear()
        assert [cli._render(wrap(theta), 0) for wrap in nest] == expected
    assert cli._theta_template.cache_info().currsize == 3


def test_a_theta_past_the_template_bound_is_written_alike_and_not_kept(monkeypatch):
    theta = THETAS["n=3 D=4"]
    payload, expected = {"values": theta}, stdlib_json({"values": reference_theta_json(theta)})
    size = cli._theta_template_size(3, 4, 1)
    cli._theta_template.cache_clear()
    monkeypatch.setattr(cli, "_MAX_CACHED_TEMPLATE", size - 1)
    for _ in range(2):
        assert cli._render(payload, 0) + "\n" == expected
        assert cli._theta_template.cache_info().currsize == 0
    monkeypatch.setattr(cli, "_MAX_CACHED_TEMPLATE", size)
    assert cli._render(payload, 0) + "\n" == expected
    assert cli._theta_template.cache_info().currsize == 1


@pytest.mark.parametrize("n,D", [(1, 0), (1, 9), (2, 5), (3, 3), (9, 2), (10, 2), (12, 3), (101, 1)])
def test_theta_template_size_is_its_length(n, D):
    for level in (0, 1, 2):
        text = cli._theta_template.__wrapped__(n, D, level)
        assert cli._theta_template_size(n, D, level) == len(text)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_emit_refuses_non_finite_array_leaf(bad, tmp_path, capsys):
    leaf = np.ones((2, 2, 2))
    leaf[1, 0, 1] = bad
    out = tmp_path / "out.json"
    with pytest.raises(cli.InputError, match="result is not finite, not written"):
        cli._emit({"ok": [1.0], "matrices": leaf}, str(out))
    with pytest.raises(cli.InputError, match="result is not finite, not written"):
        cli._emit({"value": float(bad)}, None)
    with pytest.raises(ValueError, match="non-finite float"):
        cli._signed_texts(np.array([0.0, -1.0, bad]))
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tuple_exits_one_and_writes_nothing(
    bad, poly_file, tmp_path, monkeypatch, capsys
):
    mat = np.array([[1.0, bad], [bad, 0.0]], dtype=complex)
    hit = Falsification(tuple=MatrixTuple((mat,), 1, 2), trace=-1.0, source="random", index=0)
    monkeypatch.setattr(cli, "falsify", lambda *a, **k: hit)
    out = tmp_path / "out.json"
    for extra in (["--out", str(out)], []):
        code = main(["falsify", poly_file("-1*Y1^2"), *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "result is not finite, not written" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "n,N,D",
    [
        (1, 1, 0), (1, 1, 8), (1, 3, 8),
        (2, 1, 0), (2, 2, 3), (2, 3, 8),
        (3, 1, 8), (3, 2, 3), (3, 2, 8), (3, 3, 0),
    ],
)
def test_moments_stdout_equals_reference_lists(n, N, D, tmp_path, capsys):
    mats = random_hermitian_tuple(make_rng(500 + 10 * n + N + D), n, N)
    path = _tuple_file(tmp_path, mats)
    main(["moments", path, "--degree", str(D)])
    theta = moment_sequence(mats, D)
    expected = {
        "n": n,
        "N": N,
        "degree": D,
        "values": reference_theta_json(theta),
        "membership": check_w_membership(theta, tol=1e-9).as_dict(),
    }
    assert_same_text(capsys.readouterr().out, stdlib_json(expected))


@pytest.mark.parametrize("n,N,d", [(1, 3, 4), (2, 1, 2), (2, 3, 2), (3, 2, 2), (2, 4, 3)])
def test_gns_check_stdout_equals_reference_lists(n, N, d, tmp_path, capsys):
    mats = random_hermitian_tuple(make_rng(600 + 10 * n + N + d), n, N)
    path = _tuple_file(tmp_path, mats)
    code = main(["gns-check", path, "--degree", str(d)])
    theta = moment_sequence(mats, 2 * d)
    model = gns_build(theta, d)
    expected = reference_model_json(model)
    expected["checks"] = {
        "moment_error": verify_moments(model, theta, d),
        "trace_error": verify_trace_property(model, theta, 2 * d),
        "norm_bound": norm_bound_check(model, theta, 1.0).as_dict(),
    }
    assert_same_text(capsys.readouterr().out, stdlib_json(expected))
    assert code == 0


@pytest.mark.parametrize(
    "text,nvars,N",
    [
        ("-1*Y1^2", 1, 1),
        ("-1*Y1^2", 1, 3),
        (NEGATED, 2, 1),
        (NEGATED, 2, 3),
        ("Y1 Y2 Y3 + Y3 Y2 Y1 - 0.1*Y1^2", 3, 2),
    ],
)
def test_falsify_stdout_equals_reference_lists(text, nvars, N, poly_file, capsys):
    code = main(["falsify", poly_file(text), "--size", str(N), "--trials", "200"])
    result = falsify(parse_poly(text, nvars), trials=200, N=N)
    assert result is not None and code == 2
    expected = {
        "falsified": True,
        "trace": result.trace,
        "source": result.source,
        "index": result.index,
        "tuple": reference_matrix_tuple_json(result.tuple),
    }
    assert_same_text(capsys.readouterr().out, stdlib_json(expected))


# -- usage errors and size limits ----------------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (["certify", "F", "--bogus"], "unrecognized arguments: --bogus"),
        (["moments", "T.json"], "the following arguments are required: --degree"),
        (["falsify", "F", "--trials", "abc"], "invalid int value: 'abc'"),
        (["gns-check", "T.json", "--tol", "1e-9"], "unrecognized arguments: --tol 1e-9"),
    ],
)
def test_usage_errors_exit_one(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: nctrace")
    assert message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["gns-check", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: nctrace" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command,degree",
    [("moments", "1000000"), ("moments", "25"), ("gns-check", "500000")],
)
def test_oversized_degree_exits_one_without_allocating(command, degree, pauli_json, capsys):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main([command, pauli_json, "--degree", degree])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "moment sequence too large" in captured.err
    assert elapsed < 0.5
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "command,degree",
    [("certify", "1000000"), ("certify", "12"), ("witness", "1000000"), ("witness", "12")],
)
def test_oversized_gram_degree_exits_one_without_allocating(command, degree, poly_file, capsys):
    src = poly_file(COMMUTATOR)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main([command, src, "--degree", degree])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Gram problem too large" in captured.err
    assert elapsed < 0.5
    assert peak < 1_000_000


@pytest.mark.parametrize("size", ["137", "1000000", str(10**18)])
def test_oversized_falsify_size_exits_one_without_allocating(size, poly_file, capsys):
    # At (n, deg p) = (2, 4) the size limit admits N <= 136.
    src = poly_file(COMMUTATOR)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["falsify", src, "--size", size])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"nctrace: matrix size N = {size} too large")
    assert elapsed < 0.5
    assert peak < 1_000_000


def test_oversized_declared_theta_degree_exits_one(tmp_path, capsys):
    path = tmp_path / "huge_witness.json"
    path.write_text(json.dumps({"degree": 10**6, "theta": [{"word": [2], "re": 0.0, "im": 0.0}]}))
    code = main(["gns-check", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "moment sequence too large" in captured.err


# -- the command table against the full parser ----------------------------------


def _argparse_exit(parse, argv) -> tuple:
    """Exit code, stdout and stderr of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


COMMANDS = ["certify", "witness", "falsify", "moments", "gns-check", "norm"]
EXITING_ARGV = (
    [[], ["--help"], ["-h"], ["bogus"], ["bogus", "F"], ["--bogus"], ["--out", "x", "certify", "F"],
     ["--help", "certify"], ["Certify", "F"]]
    + [[command, "--help"] for command in COMMANDS]
    + [[command] for command in COMMANDS]
    + [[command, "F", "--bogus"] for command in COMMANDS]
    + [
        ["moments", "T.json"],
        ["falsify", "F", "--trials", "abc"],
        ["gns-check", "T.json", "--tol", "1e-9"],
        ["certify", "F", "--degree"],
        ["witness", "F", "--radius", "x", "--tol", "y"],
        ["norm", "F", "G"],
        ["certify", "F", "--deg", "2", "-h"],
    ]
)


@pytest.mark.parametrize("argv", EXITING_ARGV, ids=" ".join)
def test_help_and_usage_errors_read_as_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = _argparse_exit(main, argv)
    expected = _argparse_exit(lambda a: reference_build_parser().parse_args(a), argv)
    assert got == expected
    assert got[0] in (0, 1)


def test_each_subparser_is_built_once_per_process(poly_file, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    cli._parser.cache_clear()
    path = poly_file("Y1")
    for argv in (["norm", path], ["--help"], ["certify", path], ["norm", path], ["-h"]):
        if argv[0].startswith("-"):
            _argparse_exit(main, argv)
        else:
            main(argv)
    assert built == COMMANDS
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "add = argparse._SubParsersAction.add_parser\n"
        "argparse._SubParsersAction.add_parser = lambda *a, **k: built.append(a) or add(*a, **k)\n"
        "import nctrace.cli as cli\n"
        "print(len(built), cli._parser.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=checkout_env()
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 0\n", "")


@pytest.mark.parametrize("command", COMMANDS)
def test_named_command_parses_as_the_full_parser(command):
    argv = [command, "F", "--out", "o.json"]
    argv += [] if command in ("falsify", "norm") else ["--degree", "2"]
    expected = vars(reference_build_parser().parse_args(argv))
    del expected["func"]
    assert vars(cli._parser().parse_args(argv)) == expected


def test_a_handler_patched_after_the_first_call_runs(poly_file, capsys, monkeypatch):
    path = poly_file("Y1")
    assert main(["norm", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"norm": 1.0, "radius": 1.0}
    seen = []

    def patched(args):
        seen.append(args.polyfile)
        return {"patched": True}, 2

    monkeypatch.setattr(cli, "cmd_norm", patched)
    assert main(["norm", path]) == 2
    assert seen == [path]
    assert json.loads(capsys.readouterr().out) == {"patched": True}


# -- the exit-code boundary in main ---------------------------------------------

# Per command: the owner and name of a library call its handler makes, and
# the arguments after the command name.
LIBRARY_CALLS = {
    "certify": (cli, "certify_sos", "poly"),
    "witness": (cli, "witness_search", "poly"),
    "falsify": (cli, "falsify", "poly"),
    "moments": (cli, "moment_sequence", "tuple"),
    "gns-check": (cli, "moment_sequence", "tuple"),
    "norm": (NCPoly, "r_norm", "poly"),
}


def _raising(exc):
    def call(*args, **kwargs):
        raise exc

    return call


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "exc,line",
    [
        (ValueError("out of domain"), "nctrace: out of domain\n"),
        (NoFeasiblePoint("no point"), "nctrace: solver failed: no point\n"),
        (
            SolverStalled(SimpleNamespace(iterations=7, gap=0.5)),
            "nctrace: solver failed: solver undecided after 7 iterations (gap 5.000e-01)\n",
        ),
    ],
    ids=["ValueError", "NoFeasiblePoint", "SolverStalled"],
)
def test_library_errors_exit_one_with_one_line(
    command, exc, line, poly_file, pauli_json, tmp_path, monkeypatch, capsys
):
    owner, name, kind = LIBRARY_CALLS[command]
    monkeypatch.setattr(owner, name, _raising(exc))
    src = poly_file(COMMUTATOR) if kind == "poly" else pauli_json
    out = tmp_path / "out.json"
    degree = ["--degree", "2"] if kind == "tuple" else []
    code = main([command, src, *degree, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == line
    assert not out.exists()


def test_other_library_errors_propagate(poly_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "certify_sos", _raising(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        main(["certify", poly_file(COMMUTATOR)])
    assert capsys.readouterr().out == ""


def _theta_bytes(*extra, degree=2, value=0.0, square=1.0) -> bytes:
    """A valid degree-2 sequence in one variable, with ``square`` on [1, 1],
    and extra entries."""
    entries = [{"word": w, "re": v, "im": 0.0} for w, v in [([], 1.0), ([1], 0.0), ([1, 1], square)]]
    entries += [{"word": w, "re": value, "im": 0.0} for w in extra]
    return json.dumps({"degree": degree, "theta": entries}).encode()


def _tuple_bytes(n=1, N=1, entry=(1, 0)) -> bytes:
    """A one-entry matrix tuple file with the given header and entry."""
    return json.dumps({"n": n, "N": N, "matrices": [[[list(entry)]]]}).encode()


# command, file bytes, further arguments, and the message after "nctrace: ";
# {path} is the input file, {out} an --out path in a missing directory.
MALFORMED_INPUTS = {
    "unwritable-out": ("certify", COMMUTATOR.encode(), ["--out", "{out}"], "cannot write {out}: "),
    "non-utf8-poly": ("certify", b"\xff\xfeY1^2\n", [], "cannot read {path}: 'utf-8' codec"),
    "non-utf8-json": ("moments", b"\xff\xfe{}", ["--degree", "2"], "cannot read {path}: 'utf-8' codec"),
    "number-moments": ("moments", b"5", ["--degree", "2"], "{path}: expected a JSON object, found int"),
    "number-gns": ("gns-check", b"5", [], "{path}: expected a JSON object, found int"),
    "list-gns": ("gns-check", b"[]", [], "{path}: expected a JSON object, found list"),
    "matrices-number": (
        "moments", b'{"n": 1, "N": 1, "matrices": 5}', ["--degree", "2"],
        "{path}: 'matrices' must be a list",
    ),
    "theta-degree-negative": (
        "gns-check", _theta_bytes(degree=-3), [], "{path}: degree must be nonnegative, got -3"
    ),
    "theta-degree-null": ("gns-check", _theta_bytes(degree=None), [], "{path}: int() argument"),
    "theta-letter-zero": (
        "gns-check", _theta_bytes([0]), [], "{path}: theta entry 3 has a letter below 1: [0]"
    ),
    "theta-letter-negative": (
        "gns-check", _theta_bytes([1], [1, -1]), [],
        "{path}: theta entry 4 has a letter below 1: [1, -1]",
    ),
    "theta-word-past-degree": (
        "gns-check", _theta_bytes([1, 1, 1], value=5.0), [],
        "{path}: theta entry 3 is on [1, 1, 1], longer than the degree 2",
    ),
    "theta-word-repeated": (
        "gns-check", _theta_bytes([1, 1], value=7.0), [],
        "{path}: theta entry 3 repeats the word [1, 1]",
    ),
    "theta-degree-fraction": (
        "gns-check", _theta_bytes(degree=2.5), [], "{path}: degree must be an integer, got 2.5"
    ),
    "theta-letter-fraction": (
        "gns-check", _theta_bytes([1.7]), [],
        "{path}: theta entry 3 is malformed: a letter must be an integer, got 1.7",
    ),
    "theta-re-400-digits": (
        "gns-check", _theta_bytes([1, 1, 1], degree=3, value=10**400), [],
        "{path}: theta entry 3 is malformed: int too large to convert to float",
    ),
    "matrix-n-string": (
        "moments", _tuple_bytes(n="1"), ["--degree", "2"],
        "{path}: 'n' must be an integer, got '1'",
    ),
    "matrix-N-fraction": (
        "moments", _tuple_bytes(N=1.5), ["--degree", "2"],
        "{path}: 'N' must be an integer, got 1.5",
    ),
    "matrix-n-bool": (
        "moments", _tuple_bytes(n=True), ["--degree", "2"],
        "{path}: 'n' must be an integer, got True",
    ),
    "matrix-N-zero": (
        "moments", _tuple_bytes(N=0), ["--degree", "2"],
        "{path}: 'n' and 'N' must be at least 1, got 1 and 0",
    ),
    "matrix-missing-N": (
        "moments", b'{"n": 1, "matrices": []}', ["--degree", "2"], "{path}: missing key 'N'",
    ),
    "matrix-count": (
        "moments", _tuple_bytes(n=2), ["--degree", "2"], "{path}: expected 2 matrices, found 1",
    ),
    "matrix-shape": (
        "gns-check", _tuple_bytes(N=2), [],
        "{path}: matrix 1 has shape (1, 1), expected (2, 2)",
    ),
    "theta-not-a-list": (
        "gns-check", b'{"theta": {"word": [], "re": 1, "im": 0}}', [],
        "{path}: missing or malformed 'theta' list",
    ),
    "gns-neither": (
        "gns-check", b'{"n": 1, "N": 1}', [],
        "{path}: expected a matrix tuple ('matrices') or a moment sequence ('theta')",
    ),
    "matrix-entry-three-numbers": (
        "moments", _tuple_bytes(entry=(1, 0, 5)), ["--degree", "2"],
        "{path}: matrix 1 malformed: [re, im] must be a pair of numbers",
    ),
    "matrix-entry-bool": (
        "moments", _tuple_bytes(entry=(True, 0)), ["--degree", "2"],
        "{path}: matrix 1 malformed: [re, im] must be a pair of numbers",
    ),
    "matrix-entry-400-digits": (
        "moments", _tuple_bytes(entry=(10**400, 0)), ["--degree", "2"],
        "{path}: matrix 1 malformed: int too large to convert to float",
    ),
    # Finite values whose arithmetic would overflow, refused before it starts.
    "matrix-1e200-degree-2": (
        "moments", _tuple_bytes(entry=(1e200, 0)), ["--degree", "2"],
        "matrices too large for degree 2: N R^D is not finite for N = 1 and the "
        "largest norm R = 1.000000e+200",
    ),
    "theta-1e308": (
        "gns-check", _theta_bytes(square=1e308), [],
        "moment values too large: arithmetic on the 2 x 2 moment matrix",
    ),
    "theta-1e300": (
        "gns-check", _theta_bytes(square=1e300), [],
        "moment values too large: arithmetic on the 2 x 2 moment matrix",
    ),
    "matrix-1.5e308-degree-1": (
        "moments", _tuple_bytes(entry=(1.5e308, 0)), ["--degree", "1"],
        "{path}: matrix 1 has entries too large: 1.500e+308 is above half the largest float",
    ),
    # An input error of gns_build's, not a rejected model.
    "theta-insufficient-degree": (
        "gns-check", _theta_bytes(), ["--degree", "2"],
        "insufficient degree: matrix of degree 2 needs moments up to 4, have 2",
    ),
    "matrix-1e100-gns": (
        "gns-check", _tuple_bytes(entry=(1e100, 0)), ["--degree", "1"],
        "moment values too large: arithmetic on the 2 x 2 moment matrix",
    ),
    "json-nested-100000-deep": (
        "moments", b"[" * 100_000, ["--degree", "2"],
        "{path}: invalid JSON: maximum recursion depth exceeded",
    ),
}


@pytest.mark.parametrize("name", list(MALFORMED_INPUTS))
def test_malformed_inputs_exit_one_without_traceback(name, tmp_path, capsys):
    command, content, extra, message = MALFORMED_INPUTS[name]
    path = tmp_path / "input"
    path.write_bytes(content)
    out = tmp_path / "missing" / "x.json"
    code = main([command, str(path), *(a.format(out=out) for a in extra)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("nctrace: " + message.format(path=path, out=out))
    assert not out.parent.exists()


def test_large_values_inside_the_bounds_are_kept(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_bytes(_tuple_bytes(entry=(1e100, 0)))
    assert main(["moments", str(path), "--degree", "2"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert values[-1] == {"word": [1, 1], "re": 1e200, "im": 0.0}
