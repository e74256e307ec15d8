"""Closed-form success aggregation and the halving conjugacy.

A team of s components with success probabilities p_1..p_s combines, under
the optimal odds-weighted pooling rule, into a single success probability

    apply_rule(p_1..p_s) = s / ((s - 1) + sum(1/p_i)).

The induced per-component weights q_i = p/p_i + p - 1 always sum to p; the
application is admissible only when every weight lies in [0, 1].

apply_rule and contribution work on integer numerators and denominators
and build a single Fraction at the end, so their answers stay exact
while skipping the per-operation normalization and type dispatch of
Fraction arithmetic. Both take exact rationals only (require_exact): a
bool or an int has a numerator and a denominator too, but True is no
component to pool. Neither is on the kernel's hot path: the minimal-set
walk and the predecessor search sum in integers themselves.
"""

from collections.abc import Sequence

from .errors import ConsistencyError, InputError
from .rationals import ExactRational, HALF, ONE, ZERO, require_exact


def apply_rule(components: Sequence[ExactRational]) -> ExactRational:
    """Pooled success probability of one application step."""
    s = len(components)
    if s == 0:
        raise InputError("apply_rule needs at least one component")
    # sum(1/p_i) accumulated as num/den in plain ints
    num, den = 0, 1
    for p in map(require_exact, components):
        pn, pd = p._numerator, p._denominator
        if not (0 < pn <= pd):
            raise InputError(f"component out of (0,1]: {p}")
        num, den = num * pn + den * pd, den * pn
    return ExactRational(s * den, (s - 1) * den + num)


def solve_weights(components: Sequence[ExactRational]) -> list[ExactRational]:
    """Per-component weights q_i = p/p_i + p - 1 for the pooled value p."""
    p = apply_rule(components)
    weights = [contribution(p, pi) for pi in components]
    # identity check: the weights of a pooled application always sum to p
    if sum(weights, start=ZERO) != p:
        raise ConsistencyError("weights do not sum to the pooled value")
    return weights


def is_valid_application(components: Sequence[ExactRational]) -> bool:
    """True when every induced weight lies in [0, 1]."""
    try:
        weights = solve_weights(components)
    except InputError:
        return False
    return all(ZERO <= q <= ONE for q in weights)


def contribution(x: ExactRational, p: ExactRational) -> ExactRational:
    """Weight a component of value p would carry in a pooled application of value x.

    Increasing in x, decreasing in p; nonpositive exactly when p >= x/(1-x).
    """
    x, p = require_exact(x), require_exact(p)
    xn, xd, pn, pd = x._numerator, x._denominator, p._numerator, p._denominator
    return ExactRational(xn * (pd + pn) - xd * pn, xd * pn)


def h_map(p: ExactRational) -> ExactRational:
    """Level-shift map p -> p/(1+p), carrying level n onto level n+1."""
    if not (ZERO < require_exact(p) <= ONE):
        raise InputError(f"h_map argument out of (0,1]: {p}")
    return p / (ONE + p)


def h_inverse(x: ExactRational) -> ExactRational:
    """Inverse level shift x -> x/(1-x), defined on (0, 1/2]."""
    if not (ZERO < require_exact(x) <= HALF):
        raise InputError(f"h_inverse argument out of (0,1/2]: {x}")
    return x / (ONE - x)
