import re
from fractions import Fraction

import pytest

from bcf.arith import GuardedDecimal
from bcf.arith.numberfield import FieldElement
from bcf.errors import ParseError
from bcf.evaluation import DigitSpec
from bcf.formats import (
    DigitFile,
    decimal_string,
    dumps_digit_file,
    format_value_spec,
    loads_digit_file,
    parse_inline_digits,
    parse_rational,
    parse_value_spec,
)


def test_parse_rational_forms():
    assert parse_rational("7/4") == Fraction(7, 4)
    assert parse_rational("-3") == -3
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("1e-9") == Fraction(1, 10**9)
    assert parse_rational("2.5e-3") == Fraction(1, 400)
    with pytest.raises(ParseError):
        parse_rational("x")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_decimal_string_truncates():
    assert decimal_string(Fraction(24, 13), 10) == "1.8461538461"
    assert decimal_string(Fraction(7, 4), 2) == "1.75"
    assert decimal_string(Fraction(-7, 4), 2) == "-1.75"
    assert decimal_string(Fraction(5), 0) == "5"
    assert decimal_string(Fraction(1, 3), 4) == "0.3333"


def test_parse_value_specs():
    assert parse_value_spec("rat:7/4") == Fraction(7, 4)
    g = parse_value_spec("dec:1.8392,guard=2")
    assert isinstance(g, GuardedDecimal)
    assert g.value == Fraction("1.8392")
    assert g.guard_digits == 2
    x = parse_value_spec("alg:poly=-1,-1,-1,1;elem=0,1;lo=1;hi=2")
    assert isinstance(x, FieldElement)
    assert x.coords == (Fraction(0), Fraction(1), Fraction(0))
    assert x.field.modulus.coeffs == (-1, -1, -1, 1)


def test_parse_value_spec_errors():
    for bad in (
        "7/4",
        "idk:3",
        "dec:1e-9",
        "dec:1.5,shield=2",
        "alg:poly=-2,0,1;elem=0,1",
        "alg:poly=-2,0,1;elem=0,1,0,0;lo=1;hi=2",
        "alg:poly=a,b;elem=0;lo=1;hi=2",
    ):
        with pytest.raises(ParseError):
            parse_value_spec(bad)


def test_value_spec_round_trip_is_canonical():
    for text in (
        "rat:7/4",
        "rat:-3",
        "dec:1.8392,guard=2",
        "dec:42",
        "alg:poly=-1,-1,-1,1;elem=0,1;lo=1;hi=2",
        "alg:poly=-2,0,1;elem=1/2,-1/3;lo=1;hi=3/2",
    ):
        value = parse_value_spec(text)
        canon = format_value_spec(value)
        assert parse_value_spec(canon) == value
        assert format_value_spec(parse_value_spec(canon)) == canon


def test_digit_file_round_trip_byte_identical():
    spec = DigitSpec(order=3, head=((1,), (1,), (1,)), cycle=((1, 1, 2), (0, 0, 1), (0, 0, 1)))
    doc = DigitFile(spec=spec, meta={"source": "demo"})
    text = dumps_digit_file(doc)
    loaded = loads_digit_file(text)
    assert loaded.spec == spec
    assert loaded.meta == {"source": "demo"}
    assert dumps_digit_file(loaded) == text


def test_digit_file_terminated_flag():
    spec = DigitSpec(order=1, head=((1, 1, 3),))
    text = dumps_digit_file(DigitFile(spec=spec, terminated_at=2))
    loaded = loads_digit_file(text)
    assert loaded.terminated_at == 2
    assert dumps_digit_file(loaded) == text


def test_digit_file_empty_head_lines():
    spec = DigitSpec(order=2, head=((), ()), cycle=((1,), (1,)))
    text = dumps_digit_file(DigitFile(spec=spec))
    assert "head[1]:\n" in text
    assert loads_digit_file(text).spec == spec


def test_digit_file_parse_errors():
    for bad in (
        "",
        "nope v9\nm: 1\nhead[1]: 1",
        "bcf-digits v1\nhead[1]: 1",
        "bcf-digits v1\nm: 2\nhead[1]: 1",
        "bcf-digits v1\nm: 1\nhead[1]: 1 x",
        "bcf-digits v1\nm: 1\nhead[1]: 1\nwhat: 3",
        "bcf-digits v1\nm: 1\nhead[1]: 1 0 1",
    ):
        with pytest.raises(ParseError):
            loads_digit_file(bad)


DIGITS_M1 = "bcf-digits v1\nm: 1\nhead[1]: 1 2\n"
DIGITS_M2 = "bcf-digits v1\nm: 2\nhead[1]: 1\nhead[2]: 1\ncycle[1]: 1\ncycle[2]: 0\n"


@pytest.mark.parametrize(
    "text, key",
    [
        (DIGITS_M1 + "m: 1\n", "m"),
        (DIGITS_M1 + "head[1]: 3\n", "head[1]"),
        (DIGITS_M2 + "cycle[2]: 1\n", "cycle[2]"),
        (DIGITS_M1 + "terminated: 1\nterminated: 1\n", "terminated"),
        (DIGITS_M1 + "meta: source=a\nmeta: source=b\n", "meta source"),
    ],
)
def test_digit_file_refuses_a_repeated_key(text, key):
    with pytest.raises(ParseError, match=rf"duplicate digit-file key '{re.escape(key)}'"):
        loads_digit_file(text)


def test_dec_spec_refuses_a_repeated_guard():
    with pytest.raises(ParseError, match="duplicate dec option 'guard'"):
        parse_value_spec("dec:1.5,guard=1,guard=2")


def test_inline_digits():
    spec = parse_inline_digits("1 (1 1 2)/1 (0 0 1)/1 (0 0 1)")
    assert spec.order == 3
    assert spec.head == ((1,), (1,), (1,))
    assert spec.cycle == ((1, 1, 2), (0, 0, 1), (0, 0, 1))
    head_only = parse_inline_digits("1 1 3")
    assert head_only.order == 1
    assert head_only.cycle is None
    with pytest.raises(ParseError):
        parse_inline_digits("1 (1)/1")
    with pytest.raises(ParseError):
        parse_inline_digits("1 ()")
