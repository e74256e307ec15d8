"""Generation rule, weights, and the h-conjugation."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfinhier import (
    Classification,
    FloorError,
    Hierarchy,
    InputError,
    apply_rule,
    contribution,
    h_inverse,
    h_map,
    is_valid_application,
    solve_weights,
)

from oracles import apply_rule_reference, contribution_reference

members = st.sampled_from(
    [F(1, 2)] + [F(n, 2 * n - 1) for n in range(2, 13)] + [F(1)]
)
tuples = st.lists(members, min_size=1, max_size=5).map(tuple)


def test_apply_rule_examples():
    assert apply_rule((F(3, 5), F(2, 3))) == F(12, 25)
    assert apply_rule((F(1), F(1), F(1))) == F(3, 5)
    assert apply_rule((F(1, 2),)) == F(1, 2)
    # stars: s unit children generate s/(2s-1)
    for s in range(1, 11):
        assert apply_rule((F(1),) * s) == F(s, 2 * s - 1)


def test_apply_rule_rejects_empty_and_out_of_range():
    with pytest.raises(InputError):
        apply_rule(())
    with pytest.raises(InputError):
        apply_rule((F(0),))
    with pytest.raises(InputError):
        apply_rule((F(3, 2),))
    # floats are refused, not pooled into a float
    with pytest.raises(InputError):
        apply_rule((F(1), 0.5))
    with pytest.raises(InputError):
        contribution(0.5, F(2, 3))
    # and so are bools and ints, which carry a numerator and a denominator
    for odd in (True, 1):
        with pytest.raises(InputError):
            apply_rule((odd, F(1, 2)))
        with pytest.raises(InputError):
            contribution(odd, F(2, 3))
        with pytest.raises(InputError):
            contribution(F(2, 3), odd)
        assert not is_valid_application((odd, odd))
    # the level shifts refuse arguments outside their domains
    with pytest.raises(InputError):
        h_map(F(0))
    with pytest.raises(InputError):
        h_inverse(F(3, 5))
    # and floats and bools, which compare equal to rationals
    for odd in (0.5, True):
        with pytest.raises(InputError):
            h_map(odd)
    with pytest.raises(InputError):
        h_inverse(0.25)


def test_weights_worked_example():
    v = apply_rule((F(3, 5), F(2, 3)))
    assert solve_weights((F(3, 5), F(2, 3))) == [F(7, 25), F(5, 25)]
    assert contribution(v, F(3, 5)) == F(7, 25)
    assert contribution(v, F(1)) == F(-1, 25)
    assert is_valid_application((F(3, 5), F(2, 3)))
    # a unit component under a sub-1/2 value takes negative weight
    assert not is_valid_application((F(1), F(2, 3), F(3, 5)))
    # a zero component has no weights at all
    assert not is_valid_application([0])


@given(tuples)
def test_weights_sum_to_value(T):
    v = apply_rule(T)
    ws = solve_weights(T)
    assert sum(ws) == v
    assert all(w == contribution(v, p) for w, p in zip(ws, T))


@given(tuples)
def test_h_conjugation_commutes(T):
    lhs = apply_rule(tuple(h_map(p) for p in T))
    rhs = h_map(apply_rule(T))
    assert lhs == rhs


@given(members)
def test_h_round_trip(p):
    assert h_inverse(h_map(p)) == p
    assert h_map(p) == p / (1 + p)


def test_contribution_fixed_point():
    for x in (F(12, 25), F(1, 2), F(2, 3)):
        assert contribution(x, x) == x


# ---- integer fast paths against the plain Fraction formulas ----

unit_interval = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
    lambda p: p > 0
)


@given(st.lists(unit_interval, min_size=1, max_size=6))
def test_apply_rule_matches_fraction_formula(T):
    assert apply_rule(T) == apply_rule_reference(T)


@given(unit_interval, st.fractions(max_denominator=10**6).filter(lambda p: p != 0))
def test_contribution_matches_fraction_formula(x, p):
    assert contribution(x, p) == contribution_reference(x, p)


@given(st.sampled_from([F(3, 7), F(5, 12), F(12, 25), F(1, 2), F(4, 9), F(3, 5), F(1)]),
       st.fractions(min_value=0, max_value=1))
def test_budget_below_delta_is_empty(hier, x, share):
    floor = hier.governing_floor(x)
    full = hier.xd_minimal(x, x)
    d = full.delta * share
    if d == full.delta:
        return
    P = hier.xd_minimal(x, d)
    assert P.tuples == ()
    assert P.d == d and P.x == x and P.floor == floor
    assert (P.delta, P.p0_prime) == (full.delta, full.p0_prime)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=10**6))
def test_guard_boundaries(level, k):
    h = Hierarchy(floor_level=level)
    floor = F(1, level + 1)
    # the floor itself is admitted: it is the image chain of 1/2, a limit
    assert h.classify(floor) is Classification.LIMIT
    # 1/(L+1) - 1/((L+1)((L+1)k + 1)) lies just below it
    with pytest.raises(FloorError):
        h.classify(F(k, (level + 1) * k + 1))
    for bad in (F(0), F(-k, level + 1), F(level + 2, level + 1), F(k + 1, k)):
        with pytest.raises(InputError):
            h.classify(bad)
