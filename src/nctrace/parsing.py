"""Text format for noncommutative polynomials.

Grammar::

    poly   := term (('+' | '-') term)*
    term   := coeff ('*' word)? | word
    coeff  := signed decimal | '(' re ',' im ')'
    word   := factor+ | '1'
    factor := 'Y' index ('^' power)?

Factors within a word are separated by whitespace; indices run from 1 to
the declared number of variables; powers expand to repeated letters, and
'1' denotes the empty word.  Indices and powers have at most ``MAX_DIGITS``
digits, and the coefficient summed on each word must be finite.  Complex
coefficients are written "(re,im)" so that bare decimals are unambiguously
real.  Examples::

    Y1^2 Y2^2 - Y1 Y2 Y1 Y2
    (0,1)*Y1 Y2 - (0,1)*Y2 Y1
    2*1 + Y2

This grammar is also the on-disk polynomial file format: one polynomial
per file, with lines starting with '#' treated as comments, read by
:func:`load_poly_file`.

:func:`parse_poly` has two readers of this one grammar.  Text in the
spacing :func:`format_poly` writes (one space either side of each sign
between terms, none inside a term but between factors) is read in bulk:
split at its signs and stars by string methods, its coefficients by one
``map(float)`` and its words by one ``map`` over a cache.  Any other text,
and any text the bulk reader does not accept in full, is read by the
scan: each term, with its sign and the whitespace around it, as one match
of a compiled pattern, and each factor of its word as one match of a second
pattern.  Both read the same terms, summed on each word in text order, to
the same bits.  For the bulk reader each process keeps the letters of the
last ``WORD_CACHE_SIZE`` well-formed word texts it read, so a word text
seen before is looked up, not scanned; its letters are still checked
against the declared number of variables on every parse.  The scan reads
every word factor by factor.  A malformed text raises
:class:`PolyParseError` at the offset where a left-to-right scan would first
find the grammar broken; a word longer than ``MAX_WORD_LENGTH`` letters is
refused before its powers are expanded, and never cached.
:func:`format_polys` writes the terms of a certificate's factors in one
array pass over their coefficient matrix, and each polynomial's text in one
join.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, partial
from itertools import compress, repeat
from operator import itemgetter, not_

import numpy as np

from .algebra import (
    WORD_CACHE_SIZE,
    Factors,
    NCPoly,
    Word,
    check_nvars,
    coefficient_matrix,
)

MAX_WORD_LENGTH = 64
MAX_DIGITS = 18  # of an index or a power, so int() of it is cheap and bounded
# The longest word text the bulk reader caches: MAX_WORD_LENGTH factors of
# MAX_DIGITS-digit indices and powers, one space apart.  A longer text is
# left to the scan, so whitespace cannot make a cache entry large.
_CACHED_TEXT = MAX_WORD_LENGTH * (2 * MAX_DIGITS + 3)

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# The factors of a word.  An index or a power may be missing here: the
# factor loop reports it at its offset.
_FACTORS = r"Y\d*(?:\^\d*)?(?:\s*Y\d*(?:\^\d*)?)*"
# One term with its sign, and the whitespace around it.  Every part after
# the sign is optional, and each part of "(re,im)" is tried only after the
# one before it matched, so the match always succeeds and ends where the
# grammar is first broken; the groups that did not match say what was
# expected there.
_TERM = re.compile(
    rf"""
    \s* (?P<sign>[+-])? \s*
    (?:
        (?P<unit>{_FACTORS})
      | (?:
            (?P<real>{_NUMBER})
          | (?P<paren> \( \s* (?P<re_sign>[+-]?) \s*
                (?: (?P<re>{_NUMBER}) \s*
                    (?: (?P<comma>,) \s* (?P<im_sign>[+-]?) \s*
                        (?: (?P<im>{_NUMBER}) \s* (?P<close>\))? )?
                    )?
                )?
            )
        )
        (?: \s* (?P<star>\*) \s* (?P<word>1|{_FACTORS})? )?
    )?
    \s*
    """,
    re.VERBOSE,
)
_FACTOR = re.compile(r"Y(\d*)(\^?)(\d*)")
_WORD = re.compile(_FACTORS)


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def parse_poly(text: str, nvars: int | None) -> NCPoly:
    """Parse polynomial text; raises :class:`PolyParseError` with an offset.

    ``nvars`` None declares the largest index the text names, and at least
    1, as :func:`load_poly_file` does.  Text in the spacing
    :func:`format_poly` writes is read in bulk (:func:`_read_spaced`); any
    other text, and any the bulk reader does not accept in full, is read
    by :func:`_match_terms`, whose error offsets are those of a
    left-to-right scan that stops at the first character breaking the
    grammar.
    """
    if nvars is not None:
        check_nvars(nvars)
    if not text.strip():
        raise PolyParseError("empty input", 0)
    read = _read_spaced(text)
    if read is not None:
        words, values, top = read
        if nvars is None:
            nvars = max(top, 1)
        if top <= nvars:
            return NCPoly._from_array(nvars, words, values)
    if nvars is None:
        # An index too long to read is left for the scan to refuse.
        indices = set(re.findall(r"Y(\d+)", text))
        nvars = max([1, *(int(i) for i in indices if len(i) <= MAX_DIGITS)])
    return _match_terms(text, nvars)


# Each term of a text in format_poly's spacing is split off at its sign and
# at its '*', and each part of "(re,im)" at its ','.
_PARTITION = partial(map, str.partition)
_UNPAREN = itemgetter(slice(1, -1))
_FIRST, _LAST = itemgetter(0), itemgetter(-1)
_NUMBER_CHARS = b"0123456789.eE+-,"


def _read_spaced(text: str):
    """p's words, their coefficients summed in text order as one array, and
    the largest index named, when the text is in :func:`format_poly`'s
    spacing; else None.

    That spacing puts one space either side of each sign between terms and
    none inside a term but between the factors of a word.  The terms are
    split off at their signs by ``str.replace`` and ``str.split``, and at
    their '*' by one ``map``; coefficients are read by one ``map(float)``
    (:func:`_floats`) and words by one ``map`` over the cached
    :func:`_letters`.  A coefficient must be in ``_NUMBER``'s language
    (with one sign inside "(re,im)") and in ASCII, a word text at most
    ``_CACHED_TEXT`` characters long, and every total finite.  Any other
    text is declined, with no error, for :func:`_match_terms` to read.
    """
    body = text.strip()
    lead = body[:1] if body[:1] in ("+", "-") else ""
    if lead:
        body = body[2:] if body[1:2] == " " else body[1:]
    # A sign may not start a term: after "+ -" the '-' would read as a sign.
    if body[:1] in ("+", "-") or " + -" in body:
        return None
    terms = body.replace(" - ", " + -").split(" + ")
    if lead == "-":
        terms[0] = "-" + terms[0]
    negative = np.array(list(map(str.startswith, terms, repeat("-"))), dtype=bool)
    terms = list(map(str.removeprefix, terms, repeat("-")))
    if any(map(str.startswith, terms, repeat(("+", "-")))):
        return None
    heads, stars, tails = zip(*_PARTITION(terms, repeat("*")))
    coeffs, words = list(heads), list(tails)
    # A term without '*' is a word with coefficient 1 or a number on the
    # empty word ("1" is both).
    for k in compress(range(len(stars)), map(not_, stars)):
        if coeffs[k][:1] == "Y":
            coeffs[k], words[k] = "1", coeffs[k]
        else:
            words[k] = "1"
    if max(map(len, words)) > _CACHED_TEXT:
        return None
    try:
        words, tops = zip(*map(_letters, words))
    except PolyParseError:
        return None
    paired = np.array(list(map(str.startswith, coeffs, repeat("("))), dtype=bool)
    pairs = list(compress(coeffs, paired))
    if not all(map(str.endswith, pairs, repeat(")"))):
        return None
    halves = list(_PARTITION(map(_UNPAREN, pairs), repeat(",")))
    reals = _floats(list(compress(coeffs, ~paired)), signed=False)
    parts = _floats([*map(_FIRST, halves), *map(_LAST, halves)], signed=True)
    if reals is None or parts is None:
        return None
    values = np.zeros(len(coeffs), dtype=complex)
    values.real[~paired] = reals
    values.real[paired], values.imag[paired] = parts[: len(pairs)], parts[len(pairs) :]
    # A negative sign negates both parts exactly, and adding 0.0 makes a zero
    # part +0.0, as the scan's 0.0 + sign * coeff does.
    np.negative(values, out=values, where=negative)
    values += 0.0
    unique = dict.fromkeys(words)
    if len(unique) < len(words):
        # Each word's coefficients summed in text order, as the scan sums them.
        labels = list(map(dict(zip(unique, range(len(unique)))).get, words))
        sums = np.empty(len(unique), dtype=complex)
        sums.real = np.bincount(labels, values.real, len(unique))
        sums.imag = np.bincount(labels, values.imag, len(unique))
        words, values = list(unique), sums
    return (words, values, max(tops)) if np.isfinite(values).all() else None


def _floats(texts, signed: bool):
    """``float`` of each text as an array, when every text is in
    ``_NUMBER``'s language in ASCII (after one sign when ``signed``); else
    None."""
    joined = ",".join(texts)
    if not joined.isascii() or joined.encode("ascii").translate(None, _NUMBER_CHARS):
        return None
    # Within these characters float() reads _NUMBER's language, and a sign
    # before it; where no sign may be, none may start a text.
    if not signed and (joined.startswith(("+", "-")) or ",+" in joined or ",-" in joined):
        return None
    try:
        return np.fromiter(map(float, texts), dtype=float, count=len(texts))
    except ValueError:
        return None


def _match_terms(text: str, nvars: int) -> NCPoly:
    """Read text one compiled-pattern match per term, with its sign and the
    whitespace around it; raise at the first error."""
    terms: dict[Word, complex] = {}
    pos, end = 0, len(text)
    while pos < end:
        m = _TERM.match(text, pos)
        sign, unit, real, close, star = m.group("sign", "unit", "real", "close", "star")
        # Every term but the first starts with its sign.
        if pos and sign is None:
            raise PolyParseError(f"expected '+' or '-', found {text[pos]!r}", pos)
        if unit is not None:
            word, coeff = _word(m, "unit", nvars), 1.0
        else:
            if real is not None:
                coeff = complex(float(real))
            elif close is not None:
                coeff = complex(float(m["re_sign"] + m["re"]), float(m["im_sign"] + m["im"]))
            else:
                raise _term_error(m)
            # A coefficient with no word, a bare '1' included, is on the empty word.
            word = _word(m, "word", nvars) if star is not None else ()
        total = terms.get(word, 0.0) + (-1.0 if sign == "-" else 1.0) * coeff
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            at = m.start("real" if real else "paren")
            raise PolyParseError("coefficient is not finite", at)
        terms[word] = total
        pos = m.end()
    return NCPoly._from_valid(nvars, terms)


def _term_error(m: re.Match) -> PolyParseError:
    """The error of a term match that holds neither a word nor a complete
    coefficient."""
    if m["paren"] is not None:
        if m["comma"] is None and m["re"] is not None:
            expected = "expected ','"
        elif m["im"] is not None:
            expected = "expected ')'"
        else:
            expected = "malformed coefficient"
        return PolyParseError(expected, m.end("paren"))
    at = m.end()
    if m["sign"] and m.start() and at == len(m.string):
        return PolyParseError("dangling sign", at - 1)
    ch = m.string[at : at + 1]
    if ch.isdigit() or ch == ".":
        return PolyParseError("malformed coefficient", at)
    return PolyParseError(f"expected coefficient or word, found {ch!r}", at)


def _word(m: re.Match, group: str, nvars: int) -> Word:
    """The letters of the word a term match holds in ``group``, read by
    :func:`_scan`, which raises at the first error a left-to-right reading
    meets."""
    factors = m[group]
    if factors is None:
        raise PolyParseError("expected word", m.end())
    if factors == "1":
        return ()
    return _scan(m.string, m.start(group), m.end(group), nvars)[0]


@lru_cache(maxsize=WORD_CACHE_SIZE)
def _letters(factors: str) -> tuple[Word, int]:
    """:func:`_scan` of a whole word text for the bulk reader, checked for
    every error but an index above the number of variables (no index of at
    most ``MAX_DIGITS`` digits reaches ``10**MAX_DIGITS``); a text that
    raises is not cached.  "1" is the empty word, and any other text must
    be one run of factors, as ``_FACTORS`` matches it."""
    if factors == "1":
        return (), 0
    if _WORD.fullmatch(factors) is None:
        raise PolyParseError("expected word", 0)
    return _scan(factors, 0, len(factors), 10**MAX_DIGITS)


def _scan(text: str, start: int, end: int, nvars: int) -> tuple[Word, int]:
    """Read the word in ``text[start:end]`` factor by factor, as a
    left-to-right reading would.

    Raises :class:`PolyParseError` at the first broken factor, or at the
    factor that takes the word past ``MAX_WORD_LENGTH`` letters; otherwise
    returns the word's letters and the largest index it names (a factor
    raised to the power 0 names an index but adds no letter).
    """
    letters: list[int] = []
    top = 0
    for factor in _FACTOR.finditer(text, start, end):
        index, caret, power = factor.groups()
        if not index:
            raise PolyParseError("expected variable index after 'Y'", factor.start() + 1)
        letter = _integer(index, factor.start() + 1, "index")
        if not 1 <= letter <= nvars:
            bound = f"outside 1..{nvars}" if letter < 1 else "exceeds nvars"
            raise PolyParseError(f"index {letter} {bound}", factor.start())
        count = 1
        if caret:
            if not power:
                raise PolyParseError("expected power after '^'", factor.end())
            count = _integer(power, factor.start(3), "power")
        # Checked before expanding, so a huge power costs nothing.
        if len(letters) + count > MAX_WORD_LENGTH:
            raise PolyParseError(f"word longer than {MAX_WORD_LENGTH} letters", factor.start())
        letters += [letter] * count
        if letter > top:
            top = letter
    return tuple(letters), top


def _integer(digits: str, offset: int, what: str) -> int:
    if len(digits) > MAX_DIGITS:
        raise PolyParseError(f"{what} longer than {MAX_DIGITS} digits", offset)
    return int(digits)


def format_poly(p: NCPoly) -> str:
    """Deterministic rendering that re-parses to the same polynomial.

    Terms are ordered by degree then lexicographically by word; real
    coefficients print as decimals, complex ones as "(re,im)", and a unit
    coefficient on a nonempty word is omitted.  A non-finite coefficient,
    which the grammar cannot express, raises ValueError naming its word.
    """
    return format_polys([p])[0]


def format_polys(polys) -> list[str]:
    """:func:`format_poly` of each polynomial, from their coefficient matrix
    (:func:`~nctrace.algebra.coefficient_matrix`): its columns sorted in
    (length, word) order, its nonzero entries row by row are the terms.
    numpy masks over them pick each term's form; each real part and each
    nonzero imaginary part is written by one ``float.__repr__``, and again
    as an int if integral below 1e15; each term is eight pieces (sign,
    "(re,im)", '*', word) and each polynomial one join.
    :class:`~nctrace.algebra.Factors` are written in one pass over their
    matrix, any other list one polynomial at a time."""
    if not isinstance(polys, Factors):
        polys = list(polys)
        if len(polys) > 1:
            return [format_polys([p])[0] for p in polys]
    columns, B = coefficient_matrix(polys)
    order = sorted(range(len(columns)), key=columns.__getitem__)
    order.sort(key=lambda k: len(columns[k]))  # stable: each length stays in word order
    if order != list(range(len(columns))):
        columns, B = [columns[k] for k in order], B[:, order]
    rows, cols = np.nonzero(B)
    coeffs = B[rows, cols]
    finite = np.isfinite(coeffs)
    if not finite.all():
        # The grammar refuses a non-finite total coefficient on a word.
        k = int(np.argmin(finite))
        raise ValueError(f"coefficient {coeffs[k].item()} of word {columns[cols[k]]} is not finite")
    negative = (coeffs.real < 0) | ((coeffs.real == 0) & (coeffs.imag < 0))
    np.negative(coeffs, out=coeffs, where=negative)
    pair = coeffs.imag != 0
    parts = np.concatenate([coeffs.real, coeffs.imag[pair]])
    texts = list(map(float.__repr__, parts.tolist()))
    # Integral values print without a trailing ".0"; both forms re-parse exactly.
    for k in np.flatnonzero((parts == np.trunc(parts)) & (np.abs(parts) < 1e15)).tolist():
        texts[k] = str(int(parts[k]))
    lengths = np.bincount(rows, minlength=len(B))
    stops = np.cumsum(lengths)
    firsts = (stops - lengths)[lengths > 0]
    lettered = np.array(list(map(bool, columns)), dtype=bool)[cols]
    unit = lettered & ~pair & (coeffs.real == 1.0)
    pieces = np.full((len(coeffs), 8), "", dtype=object)
    pieces[:, 0] = " + "
    pieces[negative, 0] = " - "
    pieces[firsts, 0] = np.where(negative[firsts], "-", "")
    pieces[pair, 1], pieces[pair, 3], pieces[pair, 5] = "(", ",", ")"
    pieces[:, 2] = texts[: len(coeffs)]
    pieces[unit, 2] = ""
    pieces[pair, 4] = texts[len(coeffs) :]
    pieces[lettered & ~unit, 6] = "*"
    pieces[:, 7] = list(map(list(map(_format_word, columns)).__getitem__, cols.tolist()))
    flat = pieces.ravel().tolist()
    return [
        "".join(flat[8 * (stop - size) : 8 * stop]) if size else "0"
        for size, stop in zip(lengths.tolist(), stops.tolist())
    ]


def _format_word(word: Word) -> str:
    factors = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        factors.append(f"Y{word[i]}" if run == 1 else f"Y{word[i]}^{run}")
        i = j
    return " ".join(factors)


def strip_comments(text: str) -> str:
    """Blank the comment lines ('#' first non-blank character) of file text.

    Each character of a comment line becomes a space and every line break
    stays, so an offset into the result is the same offset into the text.
    """
    lines = []
    for line in text.splitlines(keepends=True):
        if line.lstrip().startswith("#"):
            body = line.splitlines()[0]
            line = " " * len(body) + line[len(body) :]
        lines.append(line)
    return "".join(lines)


def load_poly_file(path, nvars: int | None = None) -> NCPoly:
    """Read one polynomial from a UTF-8 file in the grammar above.

    Without ``nvars`` the variable count is the largest index in the file,
    and at least 1 (:func:`parse_poly` with ``nvars`` None), so a lone
    ``Y0`` is refused at its offset as any index outside 1..nvars is; an
    index longer than ``MAX_DIGITS`` digits is left for the parser to
    refuse at its offset.  Comment lines are blanked, not removed, so error
    offsets index the file's text.  Raises OSError or UnicodeDecodeError
    when the file cannot be read, and :class:`PolyParseError` when its text
    does not parse.
    """
    # newline="" keeps "\r\n" as two characters, as they are in the file.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = strip_comments(fh.read())
    return parse_poly(text, nvars)
