"""Cantor normal form ordinal arithmetic below epsilon_0.

An ordinal is a finite sum c_1*w^(a_1) + ... + c_n*w^(a_n) with strictly
decreasing ordinal exponents a_i and positive integer coefficients c_i,
stored as a tuple of (exponent, coefficient) pairs. The empty tuple is 0.
Both the standard (non-commutative) operations and the Hessenberg natural
operations are provided, together with a text syntax that round-trips
exactly through the printer and the expression evaluator.

Nesting is bounded: the evaluator refuses expressions with more than
MAX_NESTING levels of parentheses and exponents, and alpha_at refuses
points whose order type would print deeper than that, so every printed
value reads back and recursion stays far from the interpreter's limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConsistencyError, DomainError, InputError
from .rationals import HALF, ONE, ZERO, ExactRational, require_exact


@dataclass(frozen=True, eq=False)
class Ordinal:
    """Comparisons walk the exponent spine with an explicit stack, the
    hash is computed once, at construction, from the exponents' stored
    hashes, and repr prints through format_ordinal, so towers of any
    height compare, hash and print without deep recursion."""

    terms: tuple[tuple["Ordinal", int], ...] = ()
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        prev = None
        for exp, coeff in self.terms:
            if isinstance(coeff, bool) or not isinstance(coeff, int) or coeff < 1:
                raise ConsistencyError(f"coefficient must be a positive integer: {coeff}")
            if prev is not None and not exp < prev:
                raise ConsistencyError("exponents must be strictly decreasing")
            prev = exp
        object.__setattr__(self, "_hash", hash(self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _compare(self, other: "Ordinal") -> int:
        """-1, 0 or 1 as self is below, equal to or above other.

        Terms compare lexicographically, exponent first. A frame (ta, tb,
        i, exp_done) resumes two term lists at term i; comparing two
        exponents pushes a frame for them above their parents' resumption,
        and any difference found decides the whole comparison.
        """
        stack = [(self.terms, other.terms, 0, False)]
        while stack:
            ta, tb, i, exp_done = stack.pop()
            if i == len(ta) or i == len(tb):
                if len(ta) != len(tb):
                    return -1 if len(ta) < len(tb) else 1
                continue
            (ea, ca), (eb, cb) = ta[i], tb[i]
            if not exp_done and ea is not eb:
                stack.append((ta, tb, i, True))
                stack.append((ea.terms, eb.terms, 0, False))
                continue
            if ca != cb:
                return -1 if ca < cb else 1
            stack.append((ta, tb, i + 1, False))
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self is other or self._compare(other) == 0

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Ordinal") -> bool:
        return self._compare(other) < 0

    def __le__(self, other: "Ordinal") -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other: "Ordinal") -> bool:
        return self._compare(other) > 0

    def __ge__(self, other: "Ordinal") -> bool:
        return self._compare(other) >= 0

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return ord_add(self, other)

    def __sub__(self, other: "Ordinal") -> "Ordinal":
        return ord_sub(self, other)

    def __mul__(self, other: "Ordinal") -> "Ordinal":
        return ord_mul(self, other)


# deepest nesting of parentheses and exponents parse_ordinal accepts
MAX_NESTING = 100

ORD_ZERO = Ordinal(())
ORD_ONE = Ordinal(((ORD_ZERO, 1),))
OMEGA = Ordinal(((ORD_ONE, 1),))


def from_int(n: int) -> Ordinal:
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InputError(f"not a natural number: {n!r}")
    return ORD_ZERO if n == 0 else Ordinal(((ORD_ZERO, n),))


def omega_pow(exponent: Ordinal) -> Ordinal:
    """Single-term ordinal w^(exponent)."""
    return Ordinal(((exponent, 1),))


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b: terms of a below b's leading exponent are absorbed."""
    if b.is_zero:
        return a
    lead = b.terms[0][0]
    kept = [t for t in a.terms if t[0] > lead]
    merged = list(b.terms)
    # an a-term at exactly the leading exponent merges coefficients
    at_lead = [c for e, c in a.terms if e == lead]
    if at_lead:
        merged[0] = (lead, at_lead[0] + merged[0][1])
    return Ordinal(tuple(kept) + tuple(merged))


def ord_sub(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique g with b + g = a; requires b <= a."""
    if b > a:
        raise DomainError(f"cannot subtract: {b} > {a}")
    for i, (eb, cb) in enumerate(b.terms):
        ea, ca = a.terms[i]
        if ea == eb and ca == cb:
            continue
        if ea == eb:
            return Ordinal(((ea, ca - cb),) + a.terms[i + 1:])
        # eb < ea here: everything of b from i on is absorbed by a's tail
        return Ordinal(a.terms[i:])
    return Ordinal(a.terms[len(b.terms):])


def ord_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product, distributed over b's CNF terms from the left."""
    if a.is_zero or b.is_zero:
        return ORD_ZERO
    lead_exp, lead_coeff = a.terms[0]
    result = ORD_ZERO
    for exp, coeff in b.terms:
        if exp.is_zero:
            # right factor finite: scale the leading coefficient, keep the tail
            part = Ordinal(((lead_exp, lead_coeff * coeff),) + a.terms[1:])
        else:
            part = Ordinal(((ord_add(lead_exp, exp), coeff),))
        result = ord_add(result, part)
    return result


def _collect(parts) -> Ordinal:
    """Sum coefficients of like exponents and renormalize."""
    by_exp: dict[Ordinal, int] = {}
    for exp, coeff in parts:
        by_exp[exp] = by_exp.get(exp, 0) + coeff
    ordered = sorted(by_exp.items(), key=lambda t: t[0], reverse=True)
    return Ordinal(tuple((e, c) for e, c in ordered if c))


def nat_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Hessenberg sum: coefficient-wise over the union of exponents."""
    return _collect(list(a.terms) + list(b.terms))


def nat_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Hessenberg product: polynomial multiplication with natural-sum exponents."""
    parts = [
        (nat_add(ea, eb), ca * cb)
        for ea, ca in a.terms
        for eb, cb in b.terms
    ]
    return _collect(parts)


def format_ordinal(o: Ordinal) -> str:
    """Canonical text form, e.g. "0", "3", "w*2+1", "w^(w)+w*2+3".

    Iterative: the stack holds finished text and ordinals still to print,
    so a tower of any height prints without deep recursion.
    """
    out = []
    stack = [o]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if item.is_zero:
            out.append("0")
            continue
        pieces = []
        for exp, coeff in item.terms:
            if pieces:
                pieces.append("+")
            if exp.is_zero:
                pieces.append(str(coeff))
                continue
            pieces += ["w"] if exp == ORD_ONE else ["w^(", exp, ")"]
            if coeff != 1:
                pieces.append(f"*{coeff}")
        stack.extend(reversed(pieces))
    return "".join(out)


class _Scanner:
    """Tokenizer for ordinal expressions: integers, w, ^ * + - ( )."""

    def __init__(self, text: str):
        self.tokens: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(text[i:j])
                i = j
            elif ch in "w^*+-()":
                self.tokens.append(ch)
                i += 1
            else:
                raise InputError(f"unexpected character {ch!r} in ordinal expression")
        self.pos = 0
        self.depth = 0

    def nest(self, parse):
        """Run parse one level deeper, refusing nesting beyond MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise InputError(f"ordinal expression nests deeper than {MAX_NESTING} levels")
        self.depth += 1
        value = parse(self)
        self.depth -= 1
        return value

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise InputError(f"expected {tok!r}, found {got!r}")


def parse_ordinal(text: str) -> Ordinal:
    """Evaluate an ordinal expression over +, -, * and w^(...).

    Sums and differences associate left; * binds tighter than + and -, and
    ^ tighter still. Nesting deeper than MAX_NESTING levels of parentheses
    and exponents raises InputError. The canonical printed form of any
    ordinal it returns evaluates back to that ordinal.
    """
    scanner = _Scanner(text)
    value = _parse_sum(scanner)
    if scanner.peek() is not None:
        raise InputError(f"trailing input in ordinal expression: {scanner.peek()!r}")
    return value


def _parse_sum(sc: _Scanner) -> Ordinal:
    value = _parse_product(sc)
    while sc.peek() in ("+", "-"):
        op = sc.take()
        rhs = _parse_product(sc)
        value = ord_add(value, rhs) if op == "+" else ord_sub(value, rhs)
    return value


def _parse_product(sc: _Scanner) -> Ordinal:
    value = _parse_atom(sc)
    while sc.peek() == "*":
        sc.take()
        value = ord_mul(value, _parse_atom(sc))
    return value


def _parse_atom(sc: _Scanner) -> Ordinal:
    tok = sc.take()
    if tok is None:
        raise InputError("ordinal expression ended unexpectedly")
    if tok.isdigit():
        return from_int(int(tok))
    if tok == "(":
        inner = sc.nest(_parse_sum)
        sc.expect(")")
        return inner
    if tok == "w":
        if sc.peek() != "^":
            return OMEGA
        sc.take()
        # w^(...) nests one level, which its parentheses count
        return omega_pow(_parse_atom(sc) if sc.peek() == "(" else sc.nest(_parse_atom))
    raise InputError(f"unexpected token {tok!r} in ordinal expression")


# Order types of two interior tabulated points that the shift recursion
# below cannot reach; taken as given data.
ALPHA_TABLE = {
    ExactRational(4, 9): ord_add(OMEGA, OMEGA),
    ExactRational(3, 7): ord_add(ord_add(OMEGA, OMEGA), OMEGA),
}


def alpha_at(x: ExactRational) -> Ordinal:
    """Order type of the hierarchy above x, for the supported point family.

    Supported: x = n/(2n-1) (value n), x = 1/2 (value w), images of
    supported points under p -> p/(1+p) (value w^(previous)), and the two
    tabulated constants 4/9 and 3/7. A value outside (0, 1] raises
    InputError; any other unsupported point raises DomainError, and so
    does an image more than MAX_NESTING shifts deep: each shift nests one
    exponent, and parse_ordinal reads no deeper.
    """
    if not (ZERO < require_exact(x) <= ONE):
        raise InputError(f"probability out of (0, 1]: {x}")
    point, shifts = x, 0
    while x not in ALPHA_TABLE and x < HALF:
        if shifts == MAX_NESTING:
            raise DomainError(
                f"order type at {point} needs more than {MAX_NESTING} shifts p -> p/(1+p)"
            )
        x = x / (1 - x)
        shifts += 1
    if x in ALPHA_TABLE:
        value = ALPHA_TABLE[x]
    elif x.denominator == 2 * x.numerator - 1:
        value = from_int(x.numerator)
    elif x == HALF:
        value = OMEGA
    else:
        raise DomainError(
            "order type is only available at n/(2n-1), 1/2, images under "
            "p -> p/(1+p) of supported points, and the tabulated points 4/9 and 3/7"
        )
    for _ in range(shifts):
        value = omega_pow(value)
    return value
