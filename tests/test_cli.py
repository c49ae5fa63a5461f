import json
import subprocess
import sys
import time

import numpy as np
import pytest

from nctrace import certify, cli
from nctrace.algebra import NCPoly
from nctrace.cli import main
from nctrace.moments import MomentSequence, moment_sequence
from nctrace.sampling import pauli_pair
from nctrace.sdp import NoFeasiblePoint

from helpers import checkout_env

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


def test_gns_check_matrix_input(pauli_json, capsys):
    code, data = run_cli(["gns-check", pauli_json, "--degree", "2"], capsys)
    assert code == 0
    assert data["rank"] == 4
    assert data["checks"]["moment_error"] <= 1e-8
    assert data["checks"]["trace_error"] <= 1e-8
    assert data["checks"]["norm_bound"]["passed"] is True


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
    code, data = run_cli(["gns-check", str(path), "--degree", "1"], capsys)
    assert code == 2
    assert data["status"] == "rejected"
    assert "PSD" in data["reason"]


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


def test_console_entry_point(poly_file):
    proc = subprocess.run(
        [sys.executable, "-m", "nctrace.cli", "norm", poly_file("Y1"), "--radius", "3"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["norm"] == pytest.approx(3.0)
