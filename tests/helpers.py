"""Shared generators for the test suite; all randomness is seed-driven."""

import os
import pathlib

import numpy as np

from nctrace.algebra import NCPoly, cyclic_canonical, involute_word, words_up_to
from nctrace.certify import FALSIFY_TRACE_TOL, _class_positions, _real_trace
from nctrace.moments import MomentSequence, as_matrix_tuple
from nctrace.sampling import structured_library
from nctrace.sdp import AffineConstraints


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_poly(rng, nvars, max_degree, n_terms=6, complex_coeffs=True) -> NCPoly:
    """Random sparse polynomial with coefficients of order one."""
    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(int(x) for x in rng.integers(1, nvars + 1, size=length))
        coeff = rng.normal()
        if complex_coeffs:
            coeff = coeff + 1j * rng.normal()
        terms[word] = terms.get(word, 0.0) + coeff
    return NCPoly(nvars, terms)


def random_hermitian(rng, size: int) -> np.ndarray:
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return (a + a.conj().T) / 2


def random_hermitian_tuple(rng, nvars: int, size: int, radius: float = 1.0):
    """Hermitian matrices rescaled to spectral norm exactly radius."""
    mats = []
    for _ in range(nvars):
        h = random_hermitian(rng, size)
        norm = np.linalg.norm(h, 2)
        if norm > 0:
            h = h * (radius / norm)
        mats.append(h)
    return mats


def pauli_pair():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return [sx, sz]


def commutator_square_poly() -> NCPoly:
    """(1/2)(Y1^2 Y2^2 + Y2^2 Y1^2) - (1/2)(Y1Y2Y1Y2 + Y2Y1Y2Y1)."""
    return NCPoly(
        2,
        {
            (1, 1, 2, 2): 0.5,
            (2, 2, 1, 1): 0.5,
            (1, 2, 1, 2): -0.5,
            (2, 1, 2, 1): -0.5,
        },
    )


# -- dense references for the class-labelled affine sets -----------------------
#
# The Gram and witness problems assembled as generic dense equation systems,
# one Hermitian coefficient matrix per real equation.  The class-labelled
# projections in ``nctrace.sdp`` must agree with these.


def dense_gram_constraints(p: NCPoly, d: int) -> AffineConstraints:
    """Class sums equal p's cyclic coefficients: one real equation per
    reversal-closed class, a real and an imaginary one per reversal pair."""
    basis, classes = _class_positions(p.nvars, d)
    m = len(basis)
    reduced = p.cyclic_reduce()
    constraints = AffineConstraints(m)
    seen = set()
    for rep in sorted(classes, key=lambda w: (len(w), w)):
        if rep in seen:
            continue
        seen.add(rep)
        A = np.zeros((m, m))
        for row, col in classes[rep]:
            A[row, col] += 1.0
        value = reduced.coeff(rep)
        rep_op = cyclic_canonical(involute_word(rep))
        if rep_op == rep:
            constraints.add(A, value.real)
        else:
            seen.add(rep_op)
            constraints.add((A + A.T) / 2, value.real)
            constraints.add(0.5j * (A - A.T), value.imag)
    return constraints


def _re_entry(pos, m):
    row, col = pos
    A = np.zeros((m, m), dtype=complex)
    A[row, col] += 0.5
    A[col, row] += 0.5
    return A


def _im_entry(pos, m):
    row, col = pos
    A = np.zeros((m, m), dtype=complex)
    if row != col:
        A[row, col] += 0.5j
        A[col, row] -= 0.5j
    return A


def dense_witness_constraints(nvars: int, d: int) -> AffineConstraints:
    """Entries equal on each cyclic class, real and imaginary parts
    separately against the class's first entry, and the empty word at 1."""
    basis, classes = _class_positions(nvars, d)
    m = len(basis)
    constraints = AffineConstraints(m)
    unit = np.zeros((m, m))
    unit[0, 0] = 1.0
    constraints.add(unit, 1.0)
    for rep in sorted(classes, key=lambda w: (len(w), w)):
        ref, rest = classes[rep][0], classes[rep][1:]
        for pos in rest:
            re_part = _re_entry(ref, m) - _re_entry(pos, m)
            if np.any(re_part):
                constraints.add(re_part, 0.0)
            im_part = _im_entry(ref, m) - _im_entry(pos, m)
            if np.any(im_part):
                constraints.add(im_part, 0.0)
    return constraints


# -- word-by-word references for the level-batched moment and GNS code ---------
#
# The loops ``nctrace.moments``, ``nctrace.gns`` and ``certify.falsify`` ran
# before they were batched by word length.  The batched code must agree with
# them: bit for bit where the arithmetic is the same (moment values, moment
# matrices, falsify), to rounding where the summation order changed.


def reference_moment_sequence(X, D: int) -> MomentSequence:
    """Normalized traces of all products of length <= D, one word at a time."""
    X = as_matrix_tuple(X)
    products = {(): np.eye(X.N, dtype=complex)}
    values = {(): 1.0 + 0.0j}
    for word in words_up_to(X.n, D):
        if word == ():
            continue
        mat = products[word[:-1]] @ X.matrices[word[-1] - 1]
        products[word] = mat
        values[word] = complex(np.trace(mat) / X.N)
    return MomentSequence(X.n, D, values)


def reference_membership(t: MomentSequence):
    """(worst cyclic gap, its canonical word, worst conjugate gap, its word),
    first maximum in (word, shift) order."""
    worst_cyc = 0.0
    worst_cyc_word = None
    worst_conj = 0.0
    worst_conj_word = None
    for word, value in t.values.items():
        for s in range(1, len(word)):
            rot = word[s:] + word[:s]
            gap = abs(value - t.values[rot])
            if gap > worst_cyc:
                worst_cyc, worst_cyc_word = gap, cyclic_canonical(word)
        gap = abs(value - np.conj(t.values[involute_word(word)]))
        if gap > worst_conj:
            worst_conj, worst_conj_word = gap, word
    return worst_cyc, worst_cyc_word, worst_conj, worst_conj_word


def reference_moment_matrix(t: MomentSequence, d: int) -> np.ndarray:
    basis = words_up_to(t.n, d)
    entries = np.empty((len(basis), len(basis)), dtype=complex)
    for row, J in enumerate(basis):
        for col, K in enumerate(basis):
            entries[row, col] = t.values[involute_word(J) + K]
    return entries


def reference_vacuum_values(model, degree: int) -> dict:
    """<vacuum, Y_w vacuum> for every word up to degree, one word at a time."""
    nvars = len(model.operators)
    vecs = {(): model.vacuum}
    values = {(): complex(np.vdot(model.vacuum, model.vacuum))}
    for word in words_up_to(nvars, degree):
        if word == ():
            continue
        vec = model.operators[word[0] - 1] @ vecs[word[1:]]
        vecs[word] = vec
        values[word] = complex(np.vdot(model.vacuum, vec))
    return values


def reference_falsify(p: NCPoly, trials: int, N: int, R: float, seed: int):
    """(source, index, trace, matrices) of the first tuple with trace below
    -FALSIFY_TRACE_TOL, library first, then one random tuple per trial."""
    for index, candidate in enumerate(structured_library(p.nvars, N)):
        value = _real_trace(p, candidate)
        if value < -FALSIFY_TRACE_TOL:
            return "library", index, value, candidate.matrices
    rng = make_rng(seed)
    for index in range(trials):
        candidate = as_matrix_tuple(random_hermitian_tuple(rng, p.nvars, N, R))
        value = _real_trace(p, candidate)
        if value < -FALSIFY_TRACE_TOL:
            return "random", index, value, candidate.matrices
    return None
