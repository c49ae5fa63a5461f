"""The workload generator is a pure function of the seed.

Run with ``python3 -m pytest bench/tests``.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first, second = workloads.build(name, 7), workloads.build(name, 7)
    assert first.ops == second.ops
    first.write(tmp_path)
    for file_name, text in second.files.items():
        assert (tmp_path / file_name).read_bytes() == text.encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(second.files)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_changes_inputs_not_composition(name):
    first, second = workloads.build(name, 7), workloads.build(name, 8)
    random_files = [f for f in first.files if f.startswith(("sos", "negsos", "tuple"))]
    assert random_files
    assert all(first.files[f] != second.files[f] for f in random_files)
    assert first.composition() == second.composition()
    for key in ("command", "cell", "rank"):
        assert Counter(getattr(op, key) for op in first.ops) == Counter(
            getattr(op, key) for op in second.ops
        )


def test_certify_grid_composition():
    wl = workloads.build("certify-grid", 0)
    ranks = Counter((op.cell, op.rank) for op in wl.ops if op.rank is not None)
    assert ranks == {((2, 2), 1): 1, ((2, 2), 2): 3, ((2, 2), 7): 30, ((3, 2), 13): 30,
                     ((2, 3), 2): 3, ((2, 3), 15): 30}
    negated = [op for op in wl.ops if op.group == "family-neg"]
    assert len(negated) == 6 and all(op.expect == (2,) for op in negated)
    assert len(wl.ops) >= 100  # p90 of certify latency with ten samples beyond it


def test_low_rank_reference_sums_do_not_follow_the_seed():
    first, second = workloads.build("certify-grid", 7), workloads.build("certify-grid", 8)
    reference = [f for f in first.files if f.startswith("ref")]
    assert len(reference) == 7
    assert all(first.files[f] == second.files[f] for f in reference)


def test_random_sum_is_self_adjoint_and_positive_at_identity():
    terms = workloads.random_sos(np.random.default_rng(0), 2, 2, 2)
    # On the identity tuple the trace is the sum of the coefficients, which
    # for a sum of squares is sum_s |sum of b_s's coefficients|^2 >= 0.
    assert sum(terms.values()).real >= 0
    for word, coeff in terms.items():
        assert abs(terms[word[::-1]] - np.conj(coeff)) < 1e-12


def test_formatted_polynomial_round_trips():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from nctrace.parsing import parse_poly

    rng = np.random.default_rng(3)
    for terms in (workloads.random_sos(rng, 3, 2, 1), workloads.family_terms("comm", 3),
                  workloads.negate(workloads.family_terms("anti", 2))):
        nvars = max(max(w, default=1) for w in terms)
        parsed = parse_poly(workloads.format_terms(terms), nvars)
        assert parsed.terms == {w: complex(c) for w, c in terms.items() if c != 0}
