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

:func:`parse_poly` reads each term, with its sign and the whitespace around
it, as one match of a compiled pattern, and each factor of its word as one
match of a second pattern.  Each process keeps the letters of the last
``WORD_CACHE_SIZE`` well-formed word texts it read, so a word text seen
before is looked up, not scanned; its letters are still checked against the
declared number of variables on every parse.  A malformed text raises
:class:`PolyParseError` at the offset where a left-to-right scan would first
find the grammar broken; a word longer than ``MAX_WORD_LENGTH`` letters is
refused before its powers are expanded, and never cached.
:func:`format_polys` writes the terms of all its polynomials in one array
pass, and each polynomial's text in one join.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import chain

import numpy as np

from .algebra import WORD_CACHE_SIZE, NCPoly, Word, check_integer

MAX_WORD_LENGTH = 64
MAX_DIGITS = 18  # of an index or a power, so int() of it is cheap and bounded
# The longest word text the parser caches: MAX_WORD_LENGTH factors of
# MAX_DIGITS-digit indices and powers, one space apart.  A longer text is
# scanned on every parse, so whitespace cannot make a cache entry large.
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


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def parse_poly(text: str, nvars: int) -> NCPoly:
    """Parse polynomial text; raises :class:`PolyParseError` with an offset.

    Each term, with its sign and the whitespace around it, is one match of
    a compiled pattern.  Error offsets are those of a left-to-right scan
    that stops at the first character breaking the grammar.
    """
    check_integer(nvars, "nvars")
    if nvars < 1:
        raise ValueError(f"nvars must be positive, got {nvars}")
    if not text.strip():
        raise PolyParseError("empty input", 0)
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
    """The letters of the word a term match holds in ``group``.

    A well-formed word text of at most ``_CACHED_TEXT`` characters is read
    by the cached :func:`_letters`, and its letters are returned when no
    index in it exceeds ``nvars``.  Any other text is read by :func:`_scan`,
    which raises at the first error a left-to-right reading meets.
    """
    factors = m[group]
    if factors is None:
        raise PolyParseError("expected word", m.end())
    if factors == "1":
        return ()
    if len(factors) <= _CACHED_TEXT:
        try:
            word, top = _letters(factors)
        except PolyParseError:  # malformed whatever nvars is
            pass
        else:
            if top <= nvars:
                return word
    return _scan(m.string, m.start(group), m.end(group), nvars)[0]


@lru_cache(maxsize=WORD_CACHE_SIZE)
def _letters(factors: str) -> tuple[Word, int]:
    """:func:`_scan` of a whole word text, checked for every error but an
    index above the number of variables (no index of at most
    ``MAX_DIGITS`` digits reaches ``10**MAX_DIGITS``); a text that raises
    is not cached."""
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
    """:func:`format_poly` of each polynomial.  numpy masks over one array
    of all their coefficients pick each term's form; each real part and
    each nonzero imaginary part is written by one ``float.__repr__``, and
    again as an int if integral below 1e15; each term is eight pieces
    (sign, "(re,im)", '*', word) and each polynomial one join.  Each
    process keeps the texts of the last ``WORD_CACHE_SIZE`` words it
    formatted (a certificate's factors share one basis)."""
    polys = list(polys)
    orders = [sorted(p.terms) for p in polys]
    for words in orders:
        words.sort(key=len)  # stable: each length stays in word order
    words = list(chain.from_iterable(orders))
    values = list(chain.from_iterable(map(p.terms.get, ws) for p, ws in zip(polys, orders)))
    coeffs = np.array(values, dtype=complex)
    finite = np.isfinite(coeffs)
    if not finite.all():
        # The grammar refuses a non-finite total coefficient on a word.
        k = int(np.argmin(finite))
        raise ValueError(f"coefficient {values[k]} of word {words[k]} is not finite")
    negative = (coeffs.real < 0) | ((coeffs.real == 0) & (coeffs.imag < 0))
    np.negative(coeffs, out=coeffs, where=negative)
    pair = coeffs.imag != 0
    parts = np.concatenate([coeffs.real, coeffs.imag[pair]])
    texts = list(map(float.__repr__, parts.tolist()))
    # Integral values print without a trailing ".0"; both forms re-parse exactly.
    for k in np.flatnonzero((parts == np.trunc(parts)) & (np.abs(parts) < 1e15)).tolist():
        texts[k] = str(int(parts[k]))
    lengths = np.array(list(map(len, orders)), dtype=int)
    stops = np.cumsum(lengths)
    firsts = (stops - lengths)[lengths > 0]
    lettered = np.ones(len(words), dtype=bool)
    lettered[firsts] = [bool(words[k]) for k in firsts.tolist()]  # () sorts first
    unit = lettered & ~pair & (coeffs.real == 1.0)
    pieces = np.full((len(words), 8), "", dtype=object)
    pieces[:, 0] = " + "
    pieces[negative, 0] = " - "
    pieces[firsts, 0] = np.where(negative[firsts], "-", "")
    pieces[pair, 1], pieces[pair, 3], pieces[pair, 5] = "(", ",", ")"
    pieces[:, 2] = texts[: len(words)]
    pieces[unit, 2] = ""
    pieces[pair, 4] = texts[len(words) :]
    pieces[lettered & ~unit, 6] = "*"
    pieces[:, 7] = list(map(_format_word, words))
    flat = pieces.ravel().tolist()
    return [
        "".join(flat[8 * (stop - size) : 8 * stop]) if size else "0"
        for size, stop in zip(lengths.tolist(), stops.tolist())
    ]


@lru_cache(maxsize=WORD_CACHE_SIZE)
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
    and at least 1, so a lone ``Y0`` is refused at its offset as any index
    outside 1..nvars is; an index longer than ``MAX_DIGITS`` digits is left
    for the parser to refuse at its offset.  Comment lines are blanked, not
    removed, so error offsets index the file's text.  Raises OSError or
    UnicodeDecodeError when the file cannot be read, and
    :class:`PolyParseError` when its text does not parse.
    """
    # newline="" keeps "\r\n" as two characters, as they are in the file.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = strip_comments(fh.read())
    if nvars is None:
        indices = set(re.findall(r"Y(\d+)", text))
        nvars = max([1, *(int(i) for i in indices if len(i) <= MAX_DIGITS)])
    return parse_poly(text, nvars)
