from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfinhier import InputError, format_rational, parse_rational


def test_parse_fraction_forms():
    assert parse_rational("12/25") == Fraction(12, 25)
    assert parse_rational(" 3 / 5 ") == Fraction(3, 5)
    assert parse_rational("1") == 1
    assert parse_rational("0.47") == Fraction(47, 100)


def test_parse_rejects_garbage():
    for bad in ("", "a/b", "1/0", "1//2", "one half"):
        with pytest.raises(InputError):
            parse_rational(bad)


def test_format_lowest_terms_and_integers():
    assert format_rational(Fraction(24, 50)) == "12/25"
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(0)) == "0"


@given(st.fractions())
def test_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_huge_decimal_exponent_is_refused_at_once():
    # Fraction would build 10**100000000 first and run for minutes
    for bad in ("1e-100000000", "1E100000000", "5e-99999999", "1e-1001"):
        with pytest.raises(InputError):
            parse_rational(bad)
    assert parse_rational("1e-1000") == Fraction(1, 10**1000)
    assert parse_rational("2.5e-1") == Fraction(1, 4)


def test_overlong_literal_is_refused():
    for bad in ("1" * 1001, "1/" + "3" * 999, "0." + "4" * 999):
        with pytest.raises(InputError):
            parse_rational(bad)


def test_bool_is_not_a_rational():
    for bad in (True, False):
        with pytest.raises(InputError):
            parse_rational(bad)
    assert parse_rational(1) == Fraction(1)
    # a Fraction passes through unchanged; a float is refused
    third = Fraction(1, 3)
    assert parse_rational(third) is third
    with pytest.raises(InputError):
        parse_rational(1.5)
