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
match of a second pattern.  A malformed text raises :class:`PolyParseError`
at the offset where a left-to-right scan would first find the grammar
broken; a word longer than ``MAX_WORD_LENGTH`` letters is refused before its
powers are expanded.
"""

from __future__ import annotations

import math
import re

from .algebra import NCPoly, Word

MAX_WORD_LENGTH = 64
MAX_DIGITS = 18  # of an index or a power, so int() of it is cheap and bounded

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
    """Malformed polynomial text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def parse_poly(text: str, nvars: int) -> NCPoly:
    """Parse polynomial text; raises :class:`PolyParseError` with an offset.

    Each term, with its sign and the whitespace around it, is one match of
    a compiled pattern.  Error offsets are those of a left-to-right scan
    that stops at the first character breaking the grammar.
    """
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
    """The letters of the word a term match holds in ``group``."""
    factors = m[group]
    if factors is None:
        raise PolyParseError("expected word", m.end())
    if factors == "1":
        return ()
    out: list[int] = []
    for factor in _FACTOR.finditer(m.string, m.start(group), m.end(group)):
        index, caret, power = factor.groups()
        y_pos = factor.start()
        if not index:
            raise PolyParseError("expected variable index after 'Y'", y_pos + 1)
        letter = _integer(index, y_pos + 1, "index")
        if letter < 1:
            raise PolyParseError(f"index {letter} outside 1..{nvars}", y_pos)
        if letter > nvars:
            raise PolyParseError(f"index {letter} exceeds nvars", y_pos)
        count = 1
        if caret:
            if not power:
                raise PolyParseError("expected power after '^'", factor.end())
            count = _integer(power, factor.start(3), "power")
        # Checked before expanding, so a huge power costs nothing.
        if len(out) + count > MAX_WORD_LENGTH:
            raise PolyParseError(f"word longer than {MAX_WORD_LENGTH} letters", y_pos)
        out += [letter] * count
    return tuple(out)


def _integer(digits: str, offset: int, what: str) -> int:
    if len(digits) > MAX_DIGITS:
        raise PolyParseError(f"{what} longer than {MAX_DIGITS} digits", offset)
    return int(digits)


def format_poly(p: NCPoly) -> str:
    """Deterministic rendering that re-parses to the same polynomial.

    Terms are ordered by degree then lexicographically by word; real
    coefficients print as decimals, complex ones as "(re,im)", and a unit
    coefficient on a nonempty word is omitted.
    """
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        coeff = p.terms[word]
        negative = coeff.real < 0 or (coeff.real == 0 and coeff.imag < 0)
        if negative:
            coeff = -coeff
        body = _format_term(word, coeff)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def _fmt_real(x: float) -> str:
    # Integral values print without a trailing ".0"; both forms re-parse exactly.
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _format_term(word: Word, coeff: complex) -> str:
    if coeff.imag == 0:
        coeff_str = _fmt_real(coeff.real)
        unit = coeff.real == 1.0
    else:
        coeff_str = f"({_fmt_real(coeff.real)},{_fmt_real(coeff.imag)})"
        unit = False
    if not word:
        return coeff_str if not unit else "1"
    word_str = _format_word(word)
    if unit:
        return word_str
    return f"{coeff_str}*{word_str}"


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
    """Drop comment lines ('#' first non-blank character) from file text."""
    kept = [
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    ]
    return "\n".join(kept)


def load_poly_file(path, nvars: int | None = None) -> NCPoly:
    """Read one polynomial from a UTF-8 file in the grammar above.

    Without ``nvars`` the variable count is the largest index in the file,
    and at least 1, so a lone ``Y0`` is refused at its offset as any index
    outside 1..nvars is; an index longer than ``MAX_DIGITS`` digits is left
    for the parser to refuse at its offset.  Raises OSError or
    UnicodeDecodeError when the file cannot be read, and
    :class:`PolyParseError` when its text does not parse.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = strip_comments(fh.read())
    if nvars is None:
        indices = re.findall(r"Y(\d+)", text)
        nvars = max([1, *(int(i) for i in indices if len(i) <= MAX_DIGITS)])
    return parse_poly(text, nvars)
