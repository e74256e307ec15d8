"""Cantor-normal-form arithmetic and order types at supported points."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfinhier import (
    ConsistencyError,
    DomainError,
    InputError,
    OMEGA,
    alpha_at,
    format_ordinal,
    h_map,
    nat_add,
    nat_mul,
    omega_pow,
    ord_add,
    ord_mul,
    ord_sub,
    parse_ordinal,
)
from pfinhier.ordinals import MAX_NESTING, Ordinal, from_int

ZERO_ORD = from_int(0)
ONE_ORD = from_int(1)


def ords(depth=2):
    if depth == 0:
        return st.integers(min_value=0, max_value=9).map(from_int)
    sub = ords(depth - 1)
    return st.one_of(
        st.integers(min_value=0, max_value=9).map(from_int),
        st.lists(st.tuples(sub, st.integers(1, 4)), min_size=1, max_size=3).map(
            lambda parts: _build(parts)
        ),
    )


def _build(parts):
    total = ZERO_ORD
    for expo, coeff in parts:
        term = ord_mul(omega_pow(expo), from_int(coeff))
        total = nat_add(total, term)
    return total


def test_absorption_asymmetry():
    assert ord_add(ONE_ORD, OMEGA) == OMEGA
    assert ord_add(OMEGA, ONE_ORD) != OMEGA
    assert format_ordinal(ord_add(OMEGA, ONE_ORD)) == "w+1"


def test_subtraction_inverts_addition():
    a = parse_ordinal("w*2+3")
    b = parse_ordinal("w*2")
    assert ord_sub(a, b) == from_int(3)
    with pytest.raises(DomainError):
        ord_sub(b, a)


def test_product_orientation():
    assert ord_mul(OMEGA, from_int(2)) == ord_add(OMEGA, OMEGA)
    assert format_ordinal(ord_mul(OMEGA, from_int(2))) == "w*2"
    assert ord_mul(from_int(2), OMEGA) == OMEGA


@given(ords(), ords())
def test_natural_ops_commute(a, b):
    assert nat_add(a, b) == nat_add(b, a)
    assert nat_mul(a, b) == nat_mul(b, a)


@given(ords(), ords(), ords())
def test_natural_ops_associate_and_distribute(a, b, c):
    assert nat_add(nat_add(a, b), c) == nat_add(a, nat_add(b, c))
    assert nat_mul(nat_mul(a, b), c) == nat_mul(a, nat_mul(b, c))
    assert nat_mul(a, nat_add(b, c)) == nat_add(nat_mul(a, b), nat_mul(a, c))


@given(ords(), ords())
def test_difference_law(a, b):
    lo, hi = (a, b) if _leq(a, b) else (b, a)
    assert ord_add(lo, ord_sub(hi, lo)) == hi


def _leq(a, b):
    try:
        ord_sub(b, a)
        return True
    except DomainError:
        return False


# expressions parse_ordinal refuses, each with its error message
BAD_EXPRESSIONS = [
    ("w$1", "unexpected character '$' in ordinal expression"),
    ("(w+1", "expected ')', found None"),
    ("w 2", "trailing input in ordinal expression: '2'"),
    ("w+)", "unexpected token ')' in ordinal expression"),
    ("w+", "ordinal expression ended unexpectedly"),
]


W_PLUS_2 = parse_ordinal("w+2")


@pytest.mark.parametrize("expr, expected", [
    # the operators are the standard operations
    (lambda: OMEGA + ONE_ORD, lambda: ord_add(OMEGA, ONE_ORD)),
    (lambda: W_PLUS_2 - OMEGA, lambda: ord_sub(W_PLUS_2, OMEGA)),
    (lambda: OMEGA * from_int(2), lambda: ord_mul(OMEGA, from_int(2))),
    # a zero factor on either side
    (lambda: ord_mul(ZERO_ORD, OMEGA), lambda: ZERO_ORD),
    (lambda: ord_mul(W_PLUS_2, ZERO_ORD), lambda: ZERO_ORD),
    # an ordinal equals no other type, not even the int it counts
    (lambda: ONE_ORD == 1, lambda: False),
    (lambda: OMEGA == "w", lambda: False),
], ids=["add", "sub", "mul", "mul-zero-left", "mul-zero-right", "eq-int", "eq-str"])
def test_operators_and_equality(expr, expected):
    assert expr() == expected()


@pytest.mark.parametrize("build, error", [
    (lambda: from_int(-1), InputError),
    (lambda: from_int(True), InputError),
    (lambda: Ordinal(((ZERO_ORD, True),)), ConsistencyError),
], ids=["from-int-negative", "from-int-bool", "coefficient-bool"])
def test_refused_naturals_and_coefficients(build, error):
    # True equals 1 but would print as "True": bools are refused like
    # negative numbers
    with pytest.raises(error):
        build()


def test_parse_rejects_malformed():
    for text, reason in BAD_EXPRESSIONS:
        with pytest.raises(InputError, match=re.escape(reason)):
            parse_ordinal(text)


@given(ords())
def test_format_parse_round_trip(o):
    assert parse_ordinal(format_ordinal(o)) == o


def test_alpha_values():
    assert alpha_at(F(1, 2)) == OMEGA
    assert alpha_at(F(1, 3)) == omega_pow(OMEGA)
    assert alpha_at(F(2, 5)) == parse_ordinal("w^(2)")
    assert alpha_at(F(3, 8)) == parse_ordinal("w^(3)")
    assert alpha_at(F(1, 4)) == omega_pow(omega_pow(OMEGA))
    assert alpha_at(F(2, 3)) == from_int(2)
    assert alpha_at(F(4, 9)) == parse_ordinal("w*2")
    assert alpha_at(F(3, 7)) == parse_ordinal("w*3")


def test_alpha_shift_law():
    for p in (F(1, 2), F(2, 3), F(3, 5), F(1, 3)):
        assert alpha_at(h_map(p)) == omega_pow(alpha_at(p))


def test_alpha_unsupported():
    with pytest.raises(DomainError):
        alpha_at(F(11, 20))
    # floats and bools are refused, and so is a value outside (0, 1], with
    # InputError, as every other probability is
    for odd in (0.5, True, F(0), F(2)):
        with pytest.raises(InputError):
            alpha_at(odd)


def test_nesting_bound():
    # 1/(k+2) is k shifts from 1/2; its value nests k exponents and reads back
    deepest = alpha_at(F(1, MAX_NESTING + 2))
    assert parse_ordinal(format_ordinal(deepest)) == deepest
    assert format_ordinal(deepest).count("(") == MAX_NESTING
    with pytest.raises(DomainError):
        alpha_at(F(1, MAX_NESTING + 3))
    # parentheses, bare exponents and w^(...) each nest one level
    for opener, core, closer in [("(", "1", ")"), ("w^", "w", ""), ("w^(", "2", ")")]:
        parse_ordinal(opener * MAX_NESTING + core + closer * MAX_NESTING)
        with pytest.raises(InputError):
            parse_ordinal(opener * (MAX_NESTING + 1) + core + closer * (MAX_NESTING + 1))


@pytest.mark.parametrize("height", [200, 2000])
def test_towers_compare_and_add_without_recursion(height):
    # w^(w^(...^(w))) against w^(w^(...^(2))): the spines differ only at the top
    a, b, a2 = OMEGA, from_int(2), OMEGA
    for _ in range(height):
        a, b, a2 = omega_pow(a), omega_pow(b), omega_pow(a2)
    assert b < a and not a < b and a > b and b <= a and a >= b
    assert a == a2 and a != b and not a < a2 and a <= a2
    assert ord_add(b, a) == a
    total = ord_add(a, b)
    assert total > a and total.terms == a.terms + b.terms
    assert ord_add(a2, a) == Ordinal(((a.terms[0][0], 2),))
    assert hash(a) == hash(a2) and len({a, a2, b}) == 2
    assert format_ordinal(a) == "w^(" * height + "w" + ")" * height
    assert format_ordinal(b) == "w^(" * height + "2" + ")" * height
    assert repr(a) == f"Ordinal({format_ordinal(a)!r})" and repr(b) == f"Ordinal({str(b)!r})"
    assert nat_add(a, b) == nat_add(b, a) == total
    (ea, _), (eb, _) = a.terms[0], b.terms[0]
    assert nat_mul(a, b) == nat_mul(b, a) == omega_pow(nat_add(ea, eb))
