"""Exact rational scalar type and its text round-trip.

All kernel arithmetic is exact, and every answer is decided on exact
values. Floats only order values: ascending_key and the bisection floats
of the minimal-set budget tables (_BudgetTable.lows) compare floats
first, and values whose floats tie are compared exactly. Integer true
division rounds correctly, so a < b implies float(a) <= float(b), and a
float comparison never reverses an exact one. The scalar type is the stdlib Fraction, re-exported under a
kernel-local alias so call sites stay uniform. It is not a seam for
another representation: the guards, the memo keys, the minimal-set walk
and the predecessor search read Fraction's _numerator and _denominator
slots directly.
"""

from fractions import Fraction

from .errors import InputError

ExactRational = Fraction

ZERO = ExactRational(0)
ONE = ExactRational(1)
HALF = ExactRational(1, 2)

# Fraction("1e-100000000") builds 10**100000000 before anything else can
# refuse it, and the int_max_str_digits guard does not cover that path, so
# literal length and decimal exponent are bounded ahead of the constructor.
# Together they keep a parsed value under 2000 digits, so format_rational
# stays within the default 4300-digit int_max_str_digits.
MAX_LITERAL_LENGTH = 1000
MAX_DECIMAL_EXPONENT = 1000


def ascending_key(value: ExactRational):
    """Sort key ordering rationals exactly, with float comparisons doing most of the work.

    Integer true division rounds correctly, so a < b implies
    float(a) <= float(b); only values whose floats tie are compared as
    Fractions.
    """
    return value._numerator / value._denominator, value


def require_exact(value) -> ExactRational:
    """value itself if it is an exact rational; InputError otherwise.

    Floats and bools compare equal to rationals (0.5 == 1/2, True == 1),
    so only a type check keeps them out of exact arithmetic. Hierarchy's
    guard makes the same check inline, ahead of every memo lookup.
    """
    if not isinstance(value, ExactRational):
        raise InputError(f"expected an exact rational, got {type(value).__name__}")
    return value


def parse_rational(text: str) -> ExactRational:
    """Parse "a/b", an integer literal, or a decimal literal, exactly.

    Decimal strings go through Fraction's exact string constructor, so
    "0.47" means 47/100, not the nearest binary float. Literals longer
    than MAX_LITERAL_LENGTH characters, decimal exponents beyond
    MAX_DECIMAL_EXPONENT in magnitude, and bools are refused.
    """
    if isinstance(text, ExactRational):
        return text
    if isinstance(text, bool):
        raise InputError(f"cannot parse rational from bool: {text!r}")
    if isinstance(text, int):
        return ExactRational(text)
    if not isinstance(text, str):
        raise InputError(f"cannot parse rational from {type(text).__name__}")
    s = text.strip()
    if not s:
        raise InputError("empty rational literal")
    if len(s) > MAX_LITERAL_LENGTH:
        raise InputError(f"rational literal longer than {MAX_LITERAL_LENGTH} characters")
    if "/" in s:
        num_s, _, den_s = s.partition("/")
        try:
            num = int(num_s.strip())
            den = int(den_s.strip())
        except ValueError:
            raise InputError(f"malformed rational literal: {text!r}") from None
        if den == 0:
            raise InputError(f"zero denominator: {text!r}")
        return ExactRational(num, den)
    try:
        _, e, exponent = s.lower().partition("e")
        if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
            raise InputError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}: {text!r}")
        return ExactRational(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed rational literal: {text!r}") from None


def format_rational(value: ExactRational) -> str:
    """Canonical text form: "a/b" in lowest terms, or "a" when integral."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
