"""Seeded inputs and op lists for the three benchmark workloads.

Everything here is independent of the program under test: polynomials are
expanded and printed in the nctrace text grammar by the small routines
below, and matrix tuples are drawn with numpy, so a change to ``nctrace``
can never change the inputs.  The same seed gives byte-identical files and
the same op list; another seed gives other random coefficients and matrices
with the same composition (ops per command, per (n, d) cell, per rank).

Each workload is a closed loop: one caller, and the next op starts when the
previous one has returned.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np

WORKLOADS = ("certify-grid", "refute", "moments-gns")

# Halved commutator square |i[Y1,Y2]|^2 / 2 and anticommutator square
# {Y1,Y2}^2 / 2, up to cyclic equivalence.  With R = 1 the negation of either
# has optimum -2; adding Y3^2 at n = 3 moves it to -3.
FAMILIES = {
    "comm": {(1, 1, 2, 2): 0.5, (2, 2, 1, 1): 0.5, (1, 2, 1, 2): -0.5, (2, 1, 2, 1): -0.5},
    "anti": {(1, 2, 1, 2): 0.5, (1, 2, 2, 1): 0.5, (2, 1, 1, 2): 0.5, (2, 1, 2, 1): 0.5},
}
FAMILY_CELLS = ((2, 2), (3, 2), (2, 3))
FULL = "m"  # rank placeholder: the size of the word basis

# certify-grid: (cell, hidden Gram rank, instances per pass).  Rank sets the
# cost.  Full rank is an interior point of the PSD cone and solves in a few
# iterations; these sums are drawn from the workload seed.  Rank 1 or 2 lies
# on a face of the cone, and its cost is bimodal: of 60 rank-2 sums at
# (2, 2), 57 converged within 11,045 iterations and 3 went past 20,000; 11
# of 12 rank-1 sums ran to the 200,000-iteration cap (14 s) and one
# converged in 122.  Drawn from the workload seed, they would make the pass
# time swing by a stall or two between seeds, so the low-rank sums come from
# one fixed stream (REFERENCE_SEED), taken in order, never picked: the same
# instances every run, stalls included.
CERTIFY_RANDOM = (((2, 2), FULL, 30), ((3, 2), FULL, 30), ((2, 3), FULL, 30))
CERTIFY_REFERENCE = (((2, 2), 1, 1), ((2, 2), 2, 3), ((2, 3), 2, 3))
REFERENCE_SEED = 0
# refute: negated random sums at (2, 2), one per rank.
REFUTE_RANDOM = (((2, 2), 1, 1), ((2, 2), 2, 1), ((2, 2), FULL, 1))
# moments-gns: tuples per (n, N, half-degree) shape, and the trace-positive
# sums that falsify has to search in full.
TUPLE_SHAPES = tuple(product((2, 3), (2, 4, 8), (2, 3, 4)))
TUPLES_PER_SHAPE = 6
FALSIFY_RANDOM = (((2, 2), 2, 1), ((3, 2), 2, 1), ((2, 3), 2, 1))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the answer it must give.

    ``expect`` holds the exit codes that count as right.  ``source`` names
    the polynomial or tuple the input file was made from, for the checks.
    ``output`` names a file that receives the op's stdout, for the next op.
    """

    command: str
    input: str
    extra: tuple = ()
    expect: tuple = (0,)
    source: str = ""
    group: str = ""
    cell: tuple | None = None
    rank: int | None = None
    exact: float | None = None
    output: str | None = None

    def argv(self, work) -> list[str]:
        return [self.command, str(work / self.input), *self.extra]

    @property
    def composition_key(self) -> tuple:
        return (self.command, self.group, self.cell, self.rank)


@dataclass
class Workload:
    name: str
    files: dict = field(default_factory=dict)  # file name -> text
    polys: dict = field(default_factory=dict)  # source -> (nvars, terms)
    tuples: dict = field(default_factory=dict)  # source -> list of arrays
    ops: list = field(default_factory=list)

    def write(self, work) -> None:
        for name, text in self.files.items():
            (work / name).write_text(text, encoding="utf-8")

    def composition(self) -> Counter:
        return Counter(op.composition_key for op in self.ops)


def words_up_to(nvars: int, degree: int) -> list[tuple]:
    out = []
    for length in range(degree + 1):
        out.extend(product(range(1, nvars + 1), repeat=length))
    return out


def random_sos(rng, nvars: int, d: int, rank: int) -> dict:
    """Terms of sum_s b_s* b_s for ``rank`` random b_s over words of length <= d.

    The hidden Gram matrix sum_s conj(b_s) b_s^T has exactly this rank.
    """
    basis = words_up_to(nvars, d)
    terms: dict = {}
    for _ in range(rank):
        b = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        for (J, bj), (K, bk) in product(zip(basis, b), repeat=2):
            word = J[::-1] + K
            terms[word] = terms.get(word, 0.0) + complex(np.conj(bj) * bk)
    return terms


def format_terms(terms: dict) -> str:
    """Print terms in the nctrace grammar; floats print exactly (repr)."""
    pieces = []
    for word in sorted(terms, key=lambda w: (len(w), w)):
        c = complex(terms[word])
        letters = " ".join(f"Y{i}" for i in word)
        if c.imag == 0:
            sign = "-" if c.real < 0 else "+"
            body = repr(abs(c.real)) + (f"*{letters}" if word else "")
        else:
            sign = "+"
            body = f"({c.real!r},{c.imag!r})" + (f"*{letters}" if word else "")
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def random_hermitian_tuple(rng, nvars: int, size: int) -> list:
    """Gaussian Hermitian matrices scaled to spectral norm 1, exactly Hermitian."""
    mats = []
    for _ in range(nvars):
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        h = (a + a.conj().T) / 2
        mats.append(h / np.linalg.norm(h, 2))
    return mats


def tuple_json(mats) -> str:
    return json.dumps(
        {
            "n": len(mats),
            "N": mats[0].shape[0],
            "matrices": [
                [[[float(v.real), float(v.imag)] for v in row] for row in m] for m in mats
            ],
        }
    )


def family_terms(name: str, nvars: int) -> dict:
    terms = dict(FAMILIES[name])
    if nvars == 3:
        terms[(3, 3)] = 1.0
    return terms


def family_optimum(nvars: int) -> float:
    """Minimum normalized trace of a negated family polynomial over norm-1 tuples.

    The pair part reaches -2 (Pauli x, z for the commutator, identities for
    the anticommutator) and -Y3^2 adds -1 at n = 3.  The R = 1 witness box
    bounds the relaxation by the same numbers, so this is its exact optimum.
    """
    return -2.0 - (nvars == 3)


def negate(terms: dict) -> dict:
    return {w: -c for w, c in terms.items()}


def _rank(cell, rank) -> int:
    n, d = cell
    return len(words_up_to(n, d)) if rank == FULL else rank


def _add_poly(wl: Workload, source: str, nvars: int, terms: dict, label: str) -> str:
    name = f"{source}.poly"
    wl.files[name] = f"# {label}\n{format_terms(terms)}\n"
    wl.polys[source] = (nvars, terms)
    return name


def _families(wl: Workload, negated: bool):
    """Yield (source, file, cell, exact optimum) for both families at every cell."""
    for fam in FAMILIES:
        for n, d in FAMILY_CELLS:
            terms = family_terms(fam, n)
            sign = "neg" if negated else "pos"
            if negated:
                terms = negate(terms)
            source = f"{fam}-{sign}-n{n}d{d}"
            path = _add_poly(wl, source, n, terms, f"{sign} {fam} n={n} d={d}")
            yield source, path, (n, d), family_optimum(n) if negated else None


def _random_sums(wl: Workload, rng, plan, negated: bool, tag: str):
    """Yield (source, file, cell, rank) for each random sum in the plan."""
    for cell, rank, count in plan:
        r = _rank(cell, rank)
        for k in range(count):
            terms = random_sos(rng, cell[0], cell[1], r)
            if negated:
                terms = negate(terms)
            source = f"{tag}-n{cell[0]}d{cell[1]}-r{r}-{k}"
            path = _add_poly(wl, source, cell[0], terms, f"{tag} rank {r} at n={cell[0]} d={cell[1]}")
            yield source, path, cell, r


def certify_grid(rng) -> Workload:
    wl = Workload("certify-grid")
    for negated in (False, True):
        for source, path, cell, _ in _families(wl, negated):
            wl.ops.append(Op("certify", path, ("--degree", str(cell[1])),
                             expect=(2,) if negated else (0,), source=source,
                             group="family-neg" if negated else "family", cell=cell))
    for plan, stream, tag in ((CERTIFY_REFERENCE, _rng(REFERENCE_SEED, wl.name), "ref"),
                              (CERTIFY_RANDOM, rng, "sos")):
        for source, path, cell, r in _random_sums(wl, stream, plan, False, tag):
            wl.ops.append(Op("certify", path, ("--degree", str(cell[1])), expect=(0,),
                             source=source, group=tag, cell=cell, rank=r))
    return wl


def _refute_ops(wl: Workload, source, path, cell, group, rank=None, exact=None):
    witness_out = f"{source}.witness.json"
    wl.ops.append(Op("witness", path, ("--degree", str(cell[1])), expect=(2,),
                     source=source, group=group, cell=cell, rank=rank, exact=exact,
                     output=witness_out))
    # A pseudo-moment witness need not come from operators, so either
    # verdict of the GNS rebuild is a well-formed answer.
    wl.ops.append(Op("gns-check", witness_out, expect=(0, 2), source=source,
                     group=group, cell=cell, rank=rank))
    wl.ops.append(Op("falsify", path, expect=(2,), source=source, group=group,
                     cell=cell, rank=rank))


def refute(rng) -> Workload:
    wl = Workload("refute")
    for source, path, cell, exact in _families(wl, negated=True):
        _refute_ops(wl, source, path, cell, "family-neg", exact=exact)
    for source, path, cell, r in _random_sums(wl, rng, REFUTE_RANDOM, True, "negsos"):
        _refute_ops(wl, source, path, cell, "sos-neg", rank=r)
    return wl


def moments_gns(rng) -> Workload:
    wl = Workload("moments-gns")
    for n, size, d in TUPLE_SHAPES:
        for k in range(TUPLES_PER_SHAPE):
            mats = random_hermitian_tuple(rng, n, size)
            source = f"tuple-n{n}N{size}d{d}-{k}"
            path = f"{source}.json"
            wl.files[path] = tuple_json(mats) + "\n"
            wl.tuples[source] = mats
            cell = (n, d)
            wl.ops.append(Op("moments", path, ("--degree", str(2 * d)), expect=(0,),
                             source=source, group=f"N{size}", cell=cell))
            wl.ops.append(Op("gns-check", path, ("--degree", str(d)), expect=(0,),
                             source=source, group=f"N{size}", cell=cell))
    for source, path, cell, _ in _families(wl, negated=False):
        wl.ops.append(Op("falsify", path, expect=(0,), source=source, group="family", cell=cell))
    for source, path, cell, r in _random_sums(wl, rng, FALSIFY_RANDOM, False, "sos"):
        wl.ops.append(Op("falsify", path, expect=(0,), source=source, group="sos",
                         cell=cell, rank=r))
    return wl


_BUILDERS = {"certify-grid": certify_grid, "refute": refute, "moments-gns": moments_gns}


def build(name: str, seed: int) -> Workload:
    """The inputs and op list of one workload, a pure function of the seed."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return _BUILDERS[name](_rng(seed, name))


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, WORKLOADS.index(name)])))
