import re
import time
import tracemalloc

import pytest

from nctrace.algebra import NCPoly
from nctrace.parsing import (
    PolyParseError,
    format_poly,
    load_poly_file,
    parse_poly,
    strip_comments,
)

from helpers import make_rng, reference_parse_poly, term_bits, workload_polys


def test_parse_basic_difference():
    p = parse_poly("Y1^2 Y2^2 - Y1 Y2 Y1 Y2", 2)
    assert p == NCPoly(2, {(1, 1, 2, 2): 1.0, (1, 2, 1, 2): -1.0})


def test_parse_complex_coefficients():
    p = parse_poly("(0,1)*Y1 Y2 - (0,1)*Y2 Y1", 2)
    assert p == NCPoly(2, {(1, 2): 1j, (2, 1): -1j})


def test_parse_constants_and_empty_word():
    assert parse_poly("2*1 + Y2", 2) == NCPoly(2, {(): 2.0, (2,): 1.0})
    assert parse_poly("1", 2) == NCPoly.one(2)
    assert parse_poly("2.5", 2) == NCPoly(2, {(): 2.5})
    assert parse_poly("(1.5,-2)", 2) == NCPoly(2, {(): 1.5 - 2j})


def test_parse_powers_expand():
    assert parse_poly("Y1^3", 1) == NCPoly(1, {(1, 1, 1): 1.0})
    assert parse_poly("Y1^0 Y1", 1) == NCPoly(1, {(1,): 1.0})
    assert parse_poly("3*Y2^2 Y1", 2) == NCPoly(2, {(2, 2, 1): 3.0})


def test_parse_leading_sign_and_cancellation():
    assert parse_poly("-Y1", 1) == NCPoly(1, {(1,): -1.0})
    assert parse_poly("-2*Y1 + Y1 + Y1", 1) == NCPoly.zero(1)


def test_parse_scientific_notation():
    assert parse_poly("1e-3*Y1", 1) == NCPoly(1, {(1,): 1e-3})
    assert parse_poly("2.5E2*Y1 - 1.5e+1", 1) == NCPoly(1, {(1,): 250.0, (): -15.0})


def test_parse_index_exceeds_nvars_with_offset():
    with pytest.raises(PolyParseError) as err:
        parse_poly("2*1 + Y3", 2)
    assert "index 3 exceeds nvars" in str(err.value)
    assert err.value.offset == 6


def test_parse_error_cases():
    with pytest.raises(PolyParseError):
        parse_poly("", 2)
    with pytest.raises(PolyParseError):
        parse_poly("   ", 2)
    with pytest.raises(PolyParseError):
        parse_poly("Y0", 2)
    with pytest.raises(PolyParseError):
        parse_poly("2*", 2)
    with pytest.raises(PolyParseError):
        parse_poly("Y1 +", 2)
    with pytest.raises(PolyParseError):
        parse_poly("(1,)", 2)
    with pytest.raises(PolyParseError):
        parse_poly("Y", 2)
    with pytest.raises(PolyParseError):
        parse_poly("Y1^", 2)
    with pytest.raises(PolyParseError):
        parse_poly("Y1 * Y2", 2)
    with pytest.raises(PolyParseError):
        parse_poly("Y1^65", 2)


def test_errors_never_escape_as_other_exceptions():
    rng = make_rng(20)
    alphabet = "Y12^*+-(), .e"
    for _ in range(400):
        n = int(rng.integers(0, 12))
        text = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), n))
        try:
            parse_poly(text, 2)
        except PolyParseError as exc:
            assert 0 <= exc.offset <= len(text)


def test_format_examples():
    assert format_poly(NCPoly(1, {(1,): 2.0})) == "2*Y1"
    assert format_poly(NCPoly.zero(3)) == "0"
    assert format_poly(NCPoly(2, {(): 1.0, (1, 2): -1j})) == "1 - (0,1)*Y1 Y2"
    assert format_poly(NCPoly(2, {(1, 1, 2, 2): 1.0})) == "Y1^2 Y2^2"
    assert format_poly(NCPoly(2, {(1,): -1.0, (2,): 1.0})) == "-Y1 + Y2"


def test_format_orders_by_degree_then_word():
    p = NCPoly(2, {(2,): 1.0, (1, 1): 1.0, (): 3.0, (1,): 1.0})
    assert format_poly(p) == "3 + Y1 + Y2 + Y1^2"


def test_round_trip_on_coefficient_grid():
    rng = make_rng(21)
    grid = [1.0, -1.0, 0.5, -2.25, 3.0, 0.125]
    for _ in range(200):
        terms = {}
        for _ in range(int(rng.integers(1, 7))):
            length = int(rng.integers(0, 5))
            word = tuple(int(x) for x in rng.integers(1, 4, size=length))
            re = grid[int(rng.integers(0, len(grid)))]
            im = grid[int(rng.integers(0, len(grid)))] if rng.random() < 0.5 else 0.0
            terms[word] = complex(re, im)
        p = NCPoly(3, terms)
        assert parse_poly(format_poly(p), 3) == p


def test_round_trip_on_arbitrary_floats():
    rng = make_rng(22)
    for _ in range(100):
        terms = {}
        for _ in range(int(rng.integers(1, 6))):
            word = tuple(int(x) for x in rng.integers(1, 3, size=rng.integers(0, 4)))
            terms[word] = complex(rng.normal() * 10 ** int(rng.integers(-8, 8)),
                                  rng.normal())
        p = NCPoly(2, terms)
        assert parse_poly(format_poly(p), 2) == p


def test_comment_stripping_and_file_loading(tmp_path):
    text = "# the squared commutator\nY1^2 Y2^2 - Y1 Y2 Y1 Y2\n# trailing note\n"
    assert strip_comments(text).strip() == "Y1^2 Y2^2 - Y1 Y2 Y1 Y2"
    path = tmp_path / "poly.txt"
    path.write_text(text)
    assert load_poly_file(path, 2) == NCPoly(2, {(1, 1, 2, 2): 1.0, (1, 2, 1, 2): -1.0})


@pytest.mark.parametrize(
    "text,nvars",
    [
        ("Y1^2", 1),
        ("# Y9 in a comment is not counted\nY1 Y3 + Y3 Y1", 3),
        ("2*1", 1),
        ("Y2^2 + " + "0" * 30 + "7*Y1", 2),
    ],
    ids=["one", "comment", "constant", "long-coefficient"],
)
def test_load_poly_file_infers_the_variable_count(text, nvars, tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text(text)
    assert load_poly_file(path) == parse_poly(strip_comments(text), nvars)


@pytest.mark.parametrize(
    "text,message",
    [
        ("# only Y0\nY0^2\n", "index 0 outside 1..1 at offset 0"),
        ("Y" + "1" * 5000, "index longer than 18 digits at offset 1"),
        ("# big\nY1 Y" + "2" * 4400 + " + Y2", "index longer than 18 digits at offset 4"),
    ],
    ids=["lone-Y0", "5000-digit-index", "4400-digit-index-after-a-comment"],
)
def test_load_poly_file_refuses_indices_at_their_offset(text, message, tmp_path):
    # At least one variable, and digit runs too long to read are not counted.
    path = tmp_path / "poly.txt"
    path.write_text(text)
    with pytest.raises(PolyParseError, match=re.escape(message)):
        load_poly_file(path)


# -- the term pattern against the character-by-character reference ------------

# The texts the tests above parse, valid or not.
PARSE_CASES = [
    "Y1^2 Y2^2 - Y1 Y2 Y1 Y2", "(0,1)*Y1 Y2 - (0,1)*Y2 Y1", "2*1 + Y2", "1", "2.5",
    "(1.5,-2)", "Y1^3", "Y1^0 Y1", "3*Y2^2 Y1", "-Y1", "-2*Y1 + Y1 + Y1", "1e-3*Y1",
    "2.5E2*Y1 - 1.5e+1", "2*1 + Y3", "", "   ", "Y0", "2*", "Y1 +", "(1,)", "Y",
    "Y1^", "Y1 * Y2", "Y1^65",
]
VALID = [
    "Y1^2 Y2^2 - Y1 Y2 Y1 Y2",
    " -(0, 1) * Y1Y2 + ( -0 , +1.5e-3 )*Y2 Y1 - 1",
    "2*1 + Y2 - 1*Y1^3 Y2^0 Y1 + .5 * 1",
    "0.5*Y1 Y1 Y2 Y2 - 0.5*Y1 Y2 Y1 Y2 + 1e300*Y2^2 - 1.*Y1",
    "- 3.25E+2 * Y2 ^2 Y1 + (2.5,-0.125)",
]


def parsed(parse, text: str, nvars: int):
    """The term bits of a parse, or the offset of its PolyParseError."""
    try:
        return term_bits(parse(text, nvars))
    except PolyParseError as exc:
        return exc.offset


@pytest.mark.parametrize("name", ["certify-grid", "refute", "moments-gns"])
@pytest.mark.parametrize("seed", [98, 3])
def test_parse_equals_reference_on_workload_polys(name, seed):
    for text, nvars in workload_polys(name, seed):
        text = strip_comments(text)
        assert term_bits(parse_poly(text, nvars)) == term_bits(reference_parse_poly(text, nvars))


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_parse_errors_at_reference_offsets(nvars):
    texts = PARSE_CASES + [v[:k] for v in VALID for k in range(len(v) + 1)]
    for text in texts:
        assert parsed(parse_poly, text, nvars) == parsed(reference_parse_poly, text, nvars), text


def test_parse_equals_reference_on_random_and_mutated_text():
    rng = make_rng(23)
    alphabet = "Y123^*+-(), .eE0\t"
    for k in range(3000):
        if k % 2:
            chars = list(VALID[k % len(VALID)])
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(0, len(chars) + 1))
                new = alphabet[int(rng.integers(0, len(alphabet)))]
                chars[at:at + int(rng.integers(0, 2))] = [new] if rng.random() < 0.7 else []
        else:
            chars = [alphabet[int(i)] for i in rng.integers(0, len(alphabet), int(rng.integers(0, 16)))]
        text = "".join(chars)
        assert parsed(parse_poly, text, 2) == parsed(reference_parse_poly, text, 2), text


def test_whitespace_and_unicode_digits_as_reference():
    # The pattern's \s and the reference's str.isspace name the same characters.
    every = "".join(map(chr, range(0x110000)))
    spaces = "".join(c for c in every if c.isspace())
    assert "".join(re.findall(r"\s", every)) == spaces
    for c in spaces:
        text = f"{c}Y1{c}Y2Y1{c}-{c}(1,{c}2){c}*{c}Y2{c}+{c}3{c}"
        assert parsed(parse_poly, text, 2) == parsed(reference_parse_poly, text, 2)
    # Unicode decimal digits read as numbers and indices; other digits do not.
    for text in ["\u0663*Y1", "Y\u0661 Y2", "\u00b2*Y1", "Y1^\u00b2", "(\u0661,2)"]:
        assert parsed(parse_poly, text, 2) == parsed(reference_parse_poly, text, 2)


def test_parse_index_zero_is_outside_the_range():
    with pytest.raises(PolyParseError) as err:
        parse_poly("Y1 + 2*Y2 Y0^2", 2)
    assert "index 0 outside 1..2" in str(err.value)
    assert err.value.offset == 10


def test_huge_power_fails_before_expanding():
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(PolyParseError) as err:
            parse_poly("Y2 Y1^99999999999", 2)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "word longer than 64 letters" in str(err.value)
    assert err.value.offset == 3
    assert elapsed < 0.5
    assert peak < 1_000_000
    # The limit itself: 64 letters parse, 65 do not, across factors too.
    assert parse_poly("Y1^60 Y2^4", 2).degree() == 64
    with pytest.raises(PolyParseError) as err:
        parse_poly("Y1^60 Y2^4 Y1", 2)
    assert err.value.offset == 11


@pytest.mark.parametrize(
    "text,offset,message",
    [
        ("Y" + "1" * 5000, 1, "index longer than 18 digits"),
        ("Y1^" + "1" * 5000, 3, "power longer than 18 digits"),
        ("Y1 + Y2 Y" + "0" * 19, 9, "index longer than 18 digits"),
    ],
)
def test_oversized_digit_runs_are_parse_errors(text, offset, message):
    # int() of more than 4,300 digits raises a plain ValueError; the parser
    # refuses long runs first, at the offset of their digits.
    for parse in (parse_poly, reference_parse_poly):
        with pytest.raises(PolyParseError) as err:
            parse(text, 2)
        assert str(err.value) == f"{message} at offset {offset}"


def test_longest_digit_runs_still_parse():
    assert parse_poly("Y" + "0" * 17 + "1" + "^" + "0" * 16 + "64", 1).degree() == 64


@pytest.mark.parametrize(
    "text,offset",
    [
        ("1e999*Y1^2", 0),
        ("Y1^2 - 1e999*Y2", 7),
        ("(0,1e999)*Y1 Y2 - (0,1e999)*Y2 Y1", 0),
        ("1e308*Y1^2 + 1e308*Y1^2", 13),
        ("Y1 - 1e308*Y2 - (1e308, 1)*Y2", 16),
    ],
)
def test_non_finite_coefficients_are_parse_errors(text, offset):
    for parse in (parse_poly, reference_parse_poly):
        with pytest.raises(PolyParseError) as err:
            parse(text, 2)
        assert str(err.value) == f"coefficient is not finite at offset {offset}"


def test_largest_finite_coefficients_still_parse():
    assert parse_poly("1e308*Y1^2 - 1e308*Y1^2 + 1.7e308*Y2 + Y2", 2).terms == {
        (2,): 1.7e308
    }
