"""Independent checks of every op's output.

No check trusts the CLI's own claim.  Certificates are re-parsed and their
residual recomputed by polynomial arithmetic; witnesses are re-validated
and re-paired with the polynomial; falsifying tuples are re-evaluated;
moment values and GNS models are compared with traces computed directly
by numpy from the generated matrices.

A verdict's ``kind`` is None for a passing op, ``"error"`` when the program
raised or reported an input error, ``"stall"`` when a solve hit its
iteration cap, and ``"wrong"`` when an answer is contradicted: an exit code
other than the known one, or a failed check.  Only ``"wrong"`` makes a run
incorrect; every kind counts as a failed op.

Library entry points are looked up on their modules at call time, so a
traced run records ``verify_certificate`` and ``validate_witness`` as spans
of the op they check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from workloads import words_up_to

# Recomputed certificate residual allowed, relative to the input's l1 norm.
CERT_RESIDUAL_LIMIT = 1e-6
# Agreement required between a reported number and its recomputation.
VALUE_TOL = 1e-9
# Agreement required between rebuilt GNS expectations and the moments.
GNS_MOMENT_TOL = 1e-6
# The CLI's own threshold for a passing GNS rebuild.
GNS_PASS_TOL = 1e-8
FALSIFY_TRACE_TOL = 1e-10


@dataclass
class Verdict:
    kind: str | None = None
    detail: str = ""
    measures: dict = field(default_factory=dict)


def _wrong(detail: str, **measures) -> Verdict:
    return Verdict("wrong", detail, measures)


def judge(op, call, wl, work, nct) -> Verdict:
    """Classify one op from its exit code and output, and check its answer."""
    if call.error is not None:
        return Verdict("error", call.error)
    if call.code == 1:
        message = call.stderr.strip()
        return Verdict("stall" if "undecided" in message else "error", message)
    if call.code not in op.expect:
        return _wrong(f"exit code {call.code}, expected one of {op.expect}")
    try:
        payload = json.loads(call.stdout)
    except ValueError as exc:
        return _wrong(f"stdout is not JSON: {exc}")
    try:
        return _CHECKS[op.command](op, call.code, payload, wl, work, nct)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return _wrong(f"malformed output: {type(exc).__name__}: {exc}")


def _poly(op, wl, nct):
    nvars, terms = wl.polys[op.source]
    return nct.algebra.NCPoly(nvars, terms)


def _l1(terms: dict) -> float:
    return float(sum(abs(c) for c in terms.values()))


def check_certify(op, code, payload, wl, work, nct) -> Verdict:
    if code == 2:
        return Verdict()  # infeasible, and the input is a negated family
    p = _poly(op, wl, nct)
    factors = [nct.parsing.parse_poly(text, p.nvars) for text in payload["factors"]]
    residual = nct.certify.verify_certificate(p, SimpleNamespace(factors=factors))
    limit = CERT_RESIDUAL_LIMIT * max(1.0, _l1(wl.polys[op.source][1]))
    if not residual <= limit:
        return _wrong(f"recomputed residual {residual:.3e} exceeds {limit:.3e}",
                      residual=residual)
    return Verdict(measures={"residual": residual})


def _theta(entries, nvars: int, degree: int, nct):
    values = {tuple(int(x) for x in e["word"]): complex(e["re"], e["im"]) for e in entries}
    return nct.moments.MomentSequence(nvars, degree, values)


def check_witness(op, code, payload, wl, work, nct) -> Verdict:
    p = _poly(op, wl, nct)
    theta = _theta(payload["theta"], p.nvars, int(payload["degree"]), nct)
    value = float(payload["value"])
    witness = SimpleNamespace(theta=theta, value=value, radius=float(payload["R"]))
    validation = nct.certify.validate_witness(witness)
    if not validation.passed:
        return _wrong(f"witness fails validation: {validation}")
    pairing = nct.algebra.pair(p, theta).real
    if abs(pairing - value) > VALUE_TOL * max(1.0, abs(value)):
        return _wrong(f"reported value {value} but the pairing is {pairing}")
    if not value < 0:
        return _wrong(f"witness value {value} is not negative")
    floor = op.exact if op.exact is not None else -_l1(wl.polys[op.source][1])
    if value < floor - 1e-6:
        return _wrong(f"witness value {value} is below the optimum bound {floor}")
    measures = {} if op.exact is None else {"witness_err": abs(value - op.exact)}
    return Verdict(measures=measures)


def _pairs_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def _vacuum_expectations(payload, nvars: int) -> dict:
    """<vacuum, Y_w vacuum> for words up to the model degree, from the output."""
    ops = [_pairs_matrix(rows) for rows in payload["operators"]]
    vacuum = np.array([complex(re, im) for re, im in payload["vacuum"]])
    vecs = {(): vacuum}
    out = {}
    for word in words_up_to(nvars, int(payload["degree"])):
        if word:
            vecs[word] = ops[word[0] - 1] @ vecs[word[1:]]
        out[word] = complex(np.vdot(vacuum, vecs[word]))
    return out


def _compare_gns(code, payload, nvars: int, moment_of) -> Verdict:
    if code == 2:
        checks = payload.get("checks")
        if checks is None:
            return Verdict() if payload.get("status") == "rejected" else _wrong("exit 2 without checks")
        if max(checks["moment_error"], checks["trace_error"]) <= GNS_PASS_TOL:
            return _wrong("exit 2 although both reported errors pass")
        return Verdict()
    checks = payload["checks"]
    if max(checks["moment_error"], checks["trace_error"]) > GNS_PASS_TOL:
        return _wrong(f"exit 0 with reported errors {checks}")
    worst = max(
        abs(value - moment_of(word))
        for word, value in _vacuum_expectations(payload, nvars).items()
    )
    if not worst <= GNS_MOMENT_TOL:
        return _wrong(f"rebuilt operators miss the moments by {worst:.3e}")
    return Verdict()


def check_gns(op, code, payload, wl, work, nct) -> Verdict:
    if op.source in wl.tuples:
        mats = wl.tuples[op.source]
        nvars = len(mats)
        return _compare_gns(code, payload, nvars, lambda w: _trace(mats, w))
    nvars = wl.polys[op.source][0]
    witness = json.loads((work / op.input).read_text(encoding="utf-8"))
    values = {tuple(e["word"]): complex(e["re"], e["im"]) for e in witness["theta"]}
    return _compare_gns(code, payload, nvars, values.__getitem__)


def _trace(mats, word) -> complex:
    size = mats[0].shape[0]
    prod = np.eye(size, dtype=complex)
    for j in word:
        prod = prod @ mats[j - 1]
    return complex(np.trace(prod) / size)


def check_falsify(op, code, payload, wl, work, nct) -> Verdict:
    if code == 0:
        return Verdict() if payload["falsified"] is False else _wrong("exit 0 but falsified")
    p = _poly(op, wl, nct)
    mats = [_pairs_matrix(rows) for rows in payload["tuple"]["matrices"]]
    trace = nct.algebra.normalized_trace(nct.algebra.evaluate(p, mats)).real
    if not trace < -FALSIFY_TRACE_TOL:
        return _wrong(f"recomputed trace {trace} is not negative")
    if abs(trace - float(payload["trace"])) > VALUE_TOL:
        return _wrong(f"reported trace {payload['trace']} but recomputed {trace}")
    return Verdict()


def check_moments(op, code, payload, wl, work, nct) -> Verdict:
    mats = wl.tuples[op.source]
    worst = max(
        abs(complex(e["re"], e["im"]) - _trace(mats, e["word"])) for e in payload["values"]
    )
    if not worst <= VALUE_TOL:
        return _wrong(f"moments differ from direct traces by {worst:.3e}")
    if payload["membership"]["passed"] is not True:
        return _wrong("a genuine tuple failed the membership checks")
    return Verdict()


_CHECKS = {
    "certify": check_certify,
    "witness": check_witness,
    "gns-check": check_gns,
    "falsify": check_falsify,
    "moments": check_moments,
}
