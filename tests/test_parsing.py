import re
import time
import tracemalloc

import pytest

from nctrace import parsing
from nctrace.algebra import NCPoly, star_product, words_up_to
from nctrace.certify import Certificate, certify_sos
from nctrace.parsing import (
    PolyParseError,
    format_poly,
    format_polys,
    load_poly_file,
    parse_poly,
    strip_comments,
)

from helpers import (
    make_rng,
    random_poly,
    reference_format_poly,
    reference_parse_poly,
    term_bits,
    workload,
    workload_certificates,
    workload_poly,
    workload_polys,
)


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
        ("# only Y0\nY0^2\n", "index 0 outside 1..1 at offset 10"),
        ("Y" + "1" * 5000, "index longer than 18 digits at offset 1"),
        ("# big\nY1 Y" + "2" * 4400 + " + Y2", "index longer than 18 digits at offset 10"),
        ("# a comment line here\nY1 Y2 +* Y1", "found '*' at offset 29"),
        ("  # indented\r\n# crlf\r\nY1 + Y0", "index 0 outside 1..1 at offset 27"),
    ],
    ids=[
        "lone-Y0", "5000-digit-index", "4400-digit-index-after-a-comment",
        "sign-after-a-comment", "after-crlf-comments",
    ],
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


@pytest.mark.parametrize(
    "text,message,offset",
    [
        ("Y1 + Y1 Y", "expected variable index after 'Y'", 9),
        ("Y1 + Y1^", "expected power after '^'", 8),
        ("Y1^40 + Y1^40 Y1^30", "word longer than 64 letters", 14),
        ("Y1^40 + Y1^30 + Y1^40 Y1^30", "word longer than 64 letters", 22),
        ("Y2 + Y1 Y3", "index 3 exceeds nvars", 8),
        ("Y1 + Y0000000000000000001", "index longer than 18 digits", 6),
    ],
)
def test_errors_after_valid_factors_keep_their_offsets(text, message, offset):
    # Each text has factors seen valid earlier in it before its error.
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, 2)
    assert str(err.value) == f"{message} at offset {offset}"


def _parse_error(text: str, nvars: int) -> str:
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, nvars)
    return str(err.value)


@pytest.mark.parametrize(
    "text,offset", [("Y3 Y1", 0), ("Y2 + Y3 Y1", 5), ("Y1 + Y3^0 Y1", 5)]
)
def test_a_cached_word_is_checked_against_nvars_on_every_parse(text, offset):
    # A factor raised to the power 0 adds no letter but still names its index.
    parsing._letters.cache_clear()
    cold = _parse_error(text, 2)
    parse_poly(text, 3)
    hits = parsing._letters.cache_info().hits
    assert _parse_error(text, 2) == cold == f"index 3 exceeds nvars at offset {offset}"
    # Every word is a cache hit once, in the bulk reader, which declines the
    # text for its index; the scan, which then refuses it, reads no cache.
    assert parsing._letters.cache_info().hits == hits + text.count("+") + 1
    with pytest.raises(PolyParseError, match=re.escape(cold)):
        reference_parse_poly(text, 2)


def test_a_word_past_the_letter_cap_is_refused_alike_and_never_cached():
    parsing._letters.cache_clear()
    errors = [_parse_error("Y1 + Y2^60 Y1^5", 2) for _ in range(2)]
    assert errors == ["word longer than 64 letters at offset 11"] * 2
    assert parsing._letters.cache_info().currsize == 1  # the word Y1 alone


def test_a_word_text_longer_than_the_cached_length_is_scanned_uncached():
    parsing._letters.cache_clear()
    text = "Y1" + " " * 3000 + "Y2"
    assert parse_poly(text, 2) == NCPoly(2, {(1, 2): 1.0})
    assert _parse_error(text, 1) == "index 2 exceeds nvars at offset 3002"
    assert parsing._letters.cache_info().currsize == 0


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


@pytest.mark.parametrize("coeff", [float("inf"), complex(1.0, float("-inf"))])
def test_format_refuses_a_non_finite_coefficient_by_word(coeff):
    # The grammar cannot write it; int(inf) used to escape as an OverflowError.
    p = NCPoly._from_valid(2, {(1,): 1.0, (1, 2): coeff})
    with pytest.raises(ValueError, match=re.escape("of word (1, 2) is not finite")):
        format_poly(p)


@pytest.mark.parametrize("nvars,d", [(2, 2), (3, 2), (2, 3)])
def test_format_polys_matches_format_poly_on_certificates(nvars, d):
    # A certificate's factors share the Gram basis, so most of their words
    # repeat from one factor to the next.  Sums of more squares than basis
    # words have interior Gram matrices, which certify in few iterations.
    rng = make_rng(40 + 10 * nvars + d)
    m = len(words_up_to(nvars, d))
    for _ in range(3):
        p = NCPoly.zero(nvars)
        for _ in range(m + 1):
            b = random_poly(rng, nvars, d, n_terms=5)
            p = p + star_product(b.adjoint(), b)
        cert = certify_sos(p, d)
        assert isinstance(cert, Certificate) and len(cert.factors) > 1
        assert format_polys(cert.factors) == [format_poly(b) for b in cert.factors]


def test_format_polys_on_zero_and_unit_coefficients():
    polys = [
        NCPoly(2, {(1, 2): 1.0, (): 1.0, (2,): -1.0}),
        NCPoly.zero(2),
        NCPoly(2, {(1, 2): -1.0, (2,): 1.0, (): -1.0}),
        NCPoly(2, {(1, 2): 1j, (2, 2, 1): 2.5}),
        NCPoly.zero(2),
    ]
    assert format_polys(polys) == [
        "1 - Y2 + Y1 Y2",
        "0",
        "-1 + Y2 - Y1 Y2",
        "(0,1)*Y1 Y2 + 2.5*Y2^2 Y1",
        "0",
    ]
    assert format_polys(polys) == [format_poly(p) for p in polys]
    assert format_polys([]) == []


def test_format_polys_refuses_a_non_finite_coefficient_by_word():
    polys = [NCPoly(2, {(1, 2): 1.0}), NCPoly._from_valid(2, {(1,): 1.0, (1, 2): float("inf")})]
    with pytest.raises(ValueError, match=re.escape("of word (1, 2) is not finite")):
        format_polys(polys)


# Coefficients at each branch of the writer: integral parts either side of
# 1e15, units on the empty word and on longer words, real parts of -0.0,
# negative imaginary parts, complex coefficients with integral parts, and
# parts written by float.__repr__.
WRITER_CASES = {
    "integral edge": NCPoly._from_valid(2, {
        (): 1e15 - 1, (1,): 1e15, (2,): -(1e15 - 1), (1, 1): -1e15, (1, 2): 2.0**53,
        (2, 1): complex(1e15 - 1, -1e15), (2, 2): complex(-1e15, 1e15 - 1)}),
    "units": NCPoly._from_valid(2, {(): 1.0, (1,): 1.0, (2, 1, 1): -1.0, (1, 2, 2, 1): 1.0}),
    "negative units": NCPoly._from_valid(2, {(): -1.0, (2,): -1.0}),
    "complex units": NCPoly._from_valid(2, {(): 1j, (1,): complex(1.0, 1.0), (2,): -1j}),
    "negative zero real parts": NCPoly._from_valid(2, {
        (): complex(-0.0, 2.0), (1,): complex(-0.0, -2.0), (2,): complex(-0.0, 0.5),
        (1, 2): complex(0.0, -0.25)}),
    "imaginary": NCPoly._from_valid(2, {(1, 2): -3j, (2, 1): 3j, (): -0.5j}),
    "integral complex": NCPoly._from_valid(2, {
        (): complex(2.0, -3.0), (1,): complex(-4.0, 5.0), (2, 2): complex(-7.0, -1.0)}),
    "repr": NCPoly._from_valid(2, {
        (): 0.1, (1,): -1e-300, (2,): 1e16, (1, 1): complex(1e15 + 0.5, -2.5e-7),
        (1, 2): complex(-1.7976931348623157e308, 5e-324)}),
    "zero": NCPoly.zero(2),
    "one": NCPoly.one(2),
}


def test_format_polys_writes_each_branch_as_the_term_writer():
    polys = list(WRITER_CASES.values())
    expected = [reference_format_poly(p) for p in polys]
    assert format_polys(polys) == expected
    for p, text in zip(polys, expected):
        assert format_polys([p]) == [text] and format_poly(p) == text
    texts = dict(zip(WRITER_CASES, expected))
    assert texts["integral edge"] == (
        "999999999999999 + 1000000000000000.0*Y1 - 999999999999999*Y2 "
        "- 1000000000000000.0*Y1^2 + 9007199254740992.0*Y1 Y2 "
        "+ (999999999999999,-1000000000000000.0)*Y2 Y1 "
        "- (1000000000000000.0,-999999999999999)*Y2^2"
    )
    assert texts["units"] == "1 + Y1 - Y2 Y1^2 + Y1 Y2^2 Y1"
    assert texts["negative units"] == "-1 - Y2"
    assert texts["complex units"] == "(0,1) + (1,1)*Y1 - (0,1)*Y2"
    assert texts["negative zero real parts"] == "(0,2) - (0,2)*Y1 + (0,0.5)*Y2 - (0,0.25)*Y1 Y2"
    assert texts["imaginary"] == "-(0,0.5) - (0,3)*Y1 Y2 + (0,3)*Y2 Y1"
    assert texts["integral complex"] == "(2,-3) - (4,-5)*Y1 - (7,1)*Y2^2"
    assert texts["zero"] == "0" and texts["one"] == "1"
    for p in polys:
        assert parse_poly(format_poly(p), 2) == p


def test_format_polys_refuses_a_later_non_finite_coefficient_as_the_term_writer():
    # The first polynomial is fine; the second's non-finite coefficient is
    # named with the message the term-by-term writer raised.
    bad = NCPoly._from_valid(2, {(): 1.0, (2, 1): complex(1.0, float("-inf")), (1,): 2.0})
    polys = [WRITER_CASES["repr"], bad, NCPoly._from_valid(2, {(1,): float("inf")})]
    with pytest.raises(ValueError) as expected:
        [reference_format_poly(p) for p in polys]
    with pytest.raises(ValueError) as got:
        format_polys(polys)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "coefficient (1-infj) of word (2, 1) is not finite"


def test_format_polys_writes_every_certify_grid_certificate_as_the_term_writer():
    certs = workload_certificates(98)
    assert len(certs) == 103
    for _, cert in certs:
        assert format_polys(cert.factors) == [reference_format_poly(b) for b in cert.factors]


# -- the bulk reader against the scan ------------------------------------------


def _scanned(text: str, nvars: int):
    """The term bits of the pattern scan of text, or its error."""
    try:
        return term_bits(parsing._match_terms(text, nvars))
    except PolyParseError as exc:
        return str(exc)


def _parse_outcome(text: str, nvars):
    try:
        p = parse_poly(text, nvars)
    except PolyParseError as exc:
        return str(exc)
    return p.nvars, term_bits(p)


def _assert_bulk_reads_as_the_scan(text: str, nvars: int) -> bool:
    """The bulk reader declines text or returns the scan's terms, in order
    and bit for bit; parse_poly's outcome is the scan's either way.
    Returns whether the bulk reader took the text."""
    read = parsing._read_spaced(text)
    if read is not None:
        words, values, top = read
        bulk = NCPoly._from_array(max(top, 1), words, values)
        assert _scanned(text, max(top, 1)) == term_bits(bulk)
    scanned = _scanned(text, nvars)
    expected = scanned if isinstance(scanned, str) else (nvars, scanned)
    assert _parse_outcome(text, nvars) == expected, text
    return read is not None


@pytest.mark.parametrize("name", ["certify-grid", "refute", "moments-gns"])
@pytest.mark.parametrize("seed", [98, 3])
def test_bulk_reader_takes_every_workload_file_as_the_scan_reads_it(name, seed):
    for text, nvars in workload_polys(name, seed):
        text = strip_comments(text)
        assert _assert_bulk_reads_as_the_scan(text, nvars)
        # Without a declared count the largest index is the count.
        assert _parse_outcome(text, None) == (nvars, _scanned(text, nvars))


def _written_texts() -> list:
    """format_poly of random polynomials: real and complex coefficients,
    integral ones, units, powers and the empty word."""
    rng = make_rng(24)
    texts = []
    for k in range(120):
        p = random_poly(rng, 3, 5, n_terms=int(rng.integers(1, 9)), complex_coeffs=bool(k % 2))
        if k % 3 == 0:
            p = NCPoly(3, {w: complex(round(c.real), round(c.imag)) for w, c in p.terms.items()})
        texts.append(format_poly(p))
    return texts


def test_bulk_reader_takes_what_format_poly_writes():
    # With 2 variables declared, a text naming Y3 is refused by the scan.
    for text in _written_texts():
        assert _assert_bulk_reads_as_the_scan(text, 3)
        assert _assert_bulk_reads_as_the_scan(text, 2)


def test_bulk_reader_declines_or_agrees_on_one_character_mutations():
    # Every kind of character the grammar and float() treat specially:
    # signs, spaces and other whitespace, digits (a non-ASCII one too),
    # exponents, '_', the letters of inf and nan, separators and brackets.
    alphabet = list("Y123^*+-(), .eE0\t_٣infa#\n")
    rng = make_rng(25)
    texts = _written_texts()[:60] + [
        strip_comments(text) for text, _ in workload_polys("certify-grid", 98)[::9]]
    took = 0
    for text in texts:
        for at in rng.integers(0, len(text) + 1, size=12).tolist():
            new = alphabet[int(rng.integers(len(alphabet)))]
            for mutated in (text[:at] + new + text[at + 1:], text[:at] + new + text[at:],
                            text[:at] + text[at + 1:]):
                if mutated.strip():
                    took += _assert_bulk_reads_as_the_scan(mutated, 3)
    assert took > 500  # the mutations of digits and of factors keep the spacing


@pytest.mark.parametrize(
    "text",
    [
        "inf*Y1", "nan", "Infinity + Y1", "1_0*Y1", "Y1 + +1", "Y1 + -2", "- -2*Y1", "+ -Y1",
        "1 *Y1", "1* Y1", "Y1  + Y2", "Y1 +\tY2", "Y1\n+ Y2", "(1, 2)*Y1", "(1,2 )*Y1",
        "٣*Y1", "(١,2)", "(1,2,3)*Y1", "(1)*Y1", "((1,2))*Y1", "2*3*Y1",
        "1e999*Y1", "Y1 - 1e999", "1e308*Y1 + 1e308*Y1", "(1,-1e999)", "Y1 Y0",
        "Y1^", "Y", "2*", "Y1 +", "Y1^65", "Y1" + " " * 3000 + "Y2", "-", "+ Y1 -",
    ],
)
def test_bulk_reader_leaves_every_other_text_to_the_scan(text):
    # float() reads inf, nan, '_' between digits, a leading sign, spaces and
    # non-ASCII digits; none of these is in _NUMBER's ASCII language here.
    assert parsing._read_spaced(text) is None
    _assert_bulk_reads_as_the_scan(text, 2)


def test_an_index_above_the_declared_count_is_refused_by_the_scan():
    # The bulk reader takes the text; parse_poly leaves it to the scan,
    # which names the index at its offset.
    assert parsing._read_spaced("Y2 + Y3 Y1") is not None
    assert _parse_error("Y2 + Y3 Y1", 2) == "index 3 exceeds nvars at offset 5"
    assert parse_poly("Y2 + Y3 Y1", None).nvars == 3


@pytest.mark.parametrize(
    "text,terms",
    [
        ("Y1 + Y1 - 0.5*Y1", {(1,): 1.5}),
        ("(1,2)*Y1 Y2 - (1,2)*Y1 Y2 + 3", {(): 3.0}),
        ("1e-16*Y1 + Y2", {(2,): 1.0}),
        ("(1e308,1)*Y2 - (1e308,0)*Y2 + Y1", {(2,): 1j, (1,): 1.0}),
        ("(-0,1)*Y1 - (0,-0)*Y2 + (0,-1)", {(1,): 1j, (): -1j}),
        ("- 0.5*Y1 Y1 + (+1.5e-3,-2)*Y2^2 Y1 - 1",
         {(1, 1): -0.5, (2, 2, 1): 1.5e-3 - 2j, (): -1.0}),
    ],
)
def test_bulk_reader_sums_repeated_words_and_prunes_as_the_scan(text, terms):
    assert parsing._read_spaced(text) is not None
    assert _assert_bulk_reads_as_the_scan(text, 2)
    assert parse_poly(text, 2).terms == terms


@pytest.mark.parametrize("name", ["certify-grid", "refute", "moments-gns"])
def test_workload_helpers_build_each_workload_once_and_read_it_unchanged(name):
    built = workload(name, 98)
    assert workload(name, 98) is built
    fresh = workload.__wrapped__(name, 98)
    assert built.files == fresh.files and built.ops == fresh.ops
    for source, (nvars, terms) in fresh.polys.items():
        assert workload_poly(name, 98, source) == NCPoly(nvars, terms)
    assert workload_polys(name, 98) == [
        (fresh.files[f"{source}.poly"], nvars) for source, (nvars, _) in fresh.polys.items()]
