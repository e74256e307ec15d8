"""Minimal allowed-tuple sets and the smallest-advance query."""

import random
from bisect import bisect_left
from fractions import Fraction as F

import pytest

from pfinhier import (
    Hierarchy,
    InputError,
    apply_rule,
    component_pool,
    contribution,
    find_smallest,
    prune_dominated,
)
from pfinhier import minimal_sets
from pfinhier.minimal_sets import _budget_table, _stripped, xd_minimal

from oracles import base_members, dominated_by_some, sample_allowed_tuples

CHAIN = [F(12, 25), F(8, 17), F(20, 43), F(6, 13)]


def P(hier, x, d):
    return xd_minimal(hier, x, d, hier.governing_floor(x))


def test_full_budget_sets(hier):
    ms = P(hier, F(12, 25), F(12, 25))
    assert ms.delta == F(1, 5) and ms.p0_prime == F(2, 3)
    # the governing floor for the chain segment is 1/2, so the identity
    # singleton (12/25,) sits below the component range and is excluded
    assert ms.floor == F(1, 2)
    assert ms.tuples == (
        (F(1, 2),),
        (F(3, 5), F(2, 3)),
        (F(2, 3), F(2, 3)),
    )
    ms = P(hier, F(2, 3), F(2, 3))
    assert ms.tuples == ((F(2, 3),), (F(1), F(1)))
    assert ms.delta == F(1, 3) and ms.p0_prime == F(1)
    ms = P(hier, F(1, 2), F(1, 2))
    assert ms.tuples == ((F(1, 2),), (F(2, 3), F(2, 3)))


def test_small_budgets(hier):
    assert P(hier, F(12, 25), F(0)).tuples == ()
    # nothing fits under 1/25: the cheapest contribution is delta = 1/5
    assert P(hier, F(12, 25), F(1, 25)).tuples == ()
    assert P(hier, F(12, 25), F(1, 5)).tuples == ((F(2, 3),),)
    assert P(hier, F(12, 25), F(7, 25)).tuples == ((F(3, 5),), (F(2, 3),))


def test_budget_guard(hier):
    with pytest.raises(InputError):
        P(hier, F(12, 25), F(13, 25))
    with pytest.raises(InputError):
        P(hier, F(12, 25), F(-1, 25))
    # a float or bool budget equal to a warm key is refused, not looked up
    P(hier, F(1, 2), F(1, 2))
    P(hier, F(1, 2), F(0))
    with pytest.raises(InputError):
        hier.xd_minimal(F(1, 2), 0.5)
    with pytest.raises(InputError):
        hier.xd_minimal(F(1, 2), False)
    # the floor is part of the table key, so it is checked too
    with pytest.raises(InputError):
        xd_minimal(hier, F(1, 2), F(1, 2), 0.5)


def test_find_smallest_advances(hier):
    x = F(12, 25)
    assert find_smallest(hier, P(hier, x, F(1, 25)), x, F(1, 25)) == F(1, 5)
    assert find_smallest(hier, P(hier, x, F(1, 5)), x, F(1, 5)) == F(7, 25)
    assert find_smallest(hier, P(hier, x, F(7, 25)), x, F(7, 25)) == F(8, 25)


def test_exact_totals_witness_membership(hier):
    # a member's full-budget set contains a tuple hitting the budget exactly,
    # and the rule applied to it reproduces the member
    for x in [F(12, 25), F(2, 3), F(1, 2), F(8, 17)]:
        ms = P(hier, x, x)
        exact = [
            T for T in ms.tuples
            if sum(contribution(x, p) for p in T) == x
        ]
        assert exact, x
        assert all(apply_rule(T) == x for T in exact)


def test_membership_and_container_protocol(hier):
    ms = P(hier, F(12, 25), F(12, 25))
    assert len(ms) == 3
    assert (F(3, 5), F(2, 3)) in ms
    assert [F(3, 5), F(2, 3)] in ms
    assert (F(3, 5),) not in ms
    # read-only, and equal (with equal hashes) to the same set from another hierarchy
    with pytest.raises(AttributeError):
        ms.tuples = ()
    with pytest.raises(AttributeError):
        del ms.x
    assert len(ms) == 3 and ms.x == F(12, 25)
    fresh = P(Hierarchy(floor_level=4), F(12, 25), F(12, 25))
    assert fresh is not ms and fresh == ms and hash(fresh) == hash(ms)
    assert fresh != P(hier, F(12, 25), F(1, 5))


def test_domination_oracle(hier):
    rng = random.Random(20260821)
    for x in [F(12, 25), F(1, 2), F(8, 17)]:
        ms = P(hier, x, x)
        # domination is claimed over components at or above the set's floor
        pool = [p for p in base_members(10) + CHAIN if p >= ms.floor]
        for T in sample_allowed_tuples(rng, x, x, pool, 120):
            assert dominated_by_some(T, ms.tuples), (x, T)


def test_domination_at_partial_budget(hier):
    rng = random.Random(7)
    x = F(12, 25)
    for d in [F(1, 5), F(7, 25), F(2, 5)]:
        ms = P(hier, x, d)
        pool = [p for p in base_members(10) + CHAIN if p >= ms.floor]
        for T in sample_allowed_tuples(rng, x, d, pool, 60):
            assert dominated_by_some(T, ms.tuples), (d, T)


def test_prune_dominated():
    tuples = [
        (F(2, 3),),
        (F(3, 5),),
        (F(2, 3), F(2, 3)),
        (F(3, 5), F(2, 3)),
        (F(3, 5), F(2, 3)),
    ]
    assert prune_dominated(tuples) == ((F(3, 5),), (F(3, 5), F(2, 3)))
    # incomparable same-length tuples all survive
    keep = [(F(1, 2), F(2, 3)), (F(3, 5), F(3, 5))]
    assert set(prune_dominated(keep)) == set(keep)
    assert prune_dominated([]) == ()


def test_component_pool(hier):
    ms = P(hier, F(12, 25), F(12, 25))
    assert component_pool(ms) == (F(1, 2), F(3, 5), F(2, 3))


REUSE_POINTS = [F(3, 7), F(5, 12), F(12, 25), F(10, 23)]
REUSE_STEPS = 48


@pytest.mark.parametrize("x", REUSE_POINTS, ids=str)
def test_interval_reuse_matches_fresh_walks(x):
    # Each budget x*k/48 is answered once by a fresh Hierarchy, which walks
    # it, and then by warm ones that answer most budgets from an earlier
    # walk's interval, in both query orders.
    budgets = [x * k / REUSE_STEPS for k in range(REUSE_STEPS + 1)]
    fresh = {d: P(Hierarchy(floor_level=4), x, d).tuples for d in budgets}
    for order in (budgets + budgets[::-1], budgets[::-1] + budgets):
        warm = Hierarchy(floor_level=4)
        for d in order:
            ms = P(warm, x, d)
            assert ms.d == d and ms.tuples == fresh[d], (x, d)
            assert ms.lo <= d < ms.hi
    # Every stored interval [lo, hi) answers its lo, its midpoint and a
    # budget just under hi as a fresh walk does, and a fresh walk at hi
    # stores a tuple totalling hi, so hi is achievable.
    entries = _budget_table(warm, x, warm.governing_floor(x)).entries
    assert entries
    for lo_n, lo_d, hi_n, hi_d, keyed in entries:
        lo, hi = F(lo_n, lo_d), F(hi_n, hi_d)
        tuples = _stripped(keyed)
        probes = [lo, (lo + hi) / 2, hi - (hi - lo) / 1024]
        for d in (b for b in probes if b <= x):
            ms = P(Hierarchy(floor_level=4), x, d)
            assert (ms.tuples, ms.lo, ms.hi) == (tuples, lo, hi), (x, d)
        if hi <= x:
            assert P(Hierarchy(floor_level=4), x, hi).lo == hi, (x, hi)


def test_one_walk_per_interval(monkeypatch):
    # every walk of a cold classify stores a new interval: none re-derives
    # a set the table holds
    walks = []
    real_walk = minimal_sets._walk

    def counted(hier, table, dn, dd):
        walks.append((table, dn, dd))
        return real_walk(hier, table, dn, dd)

    monkeypatch.setattr(minimal_sets, "_walk", counted)
    h = Hierarchy(floor_level=4)
    h.classify(F(7, 17))
    tables = {id(table): table for table, _, _ in walks}
    assert len(walks) == sum(len(t.entries) for t in tables.values()) == 573
    for table, dn, dd in walks:
        assert table.lookup(dn, dd) is not None


def test_budget_tables_stay_per_floor():
    x = F(12, 25)
    h = Hierarchy(floor_level=4)
    governed = xd_minimal(h, x, x, F(1, 2))
    # a lower floor admits the identity singleton the governing floor excludes
    lower = xd_minimal(h, x, x, x)
    assert (x,) not in governed and (x,) in lower
    assert _budget_table(h, x, F(1, 2)) is not _budget_table(h, x, x)
    assert xd_minimal(h, x, x, F(1, 2)).tuples == governed.tuples
    # hierarchies with different floor levels keep their own tables
    other = Hierarchy(floor_level=2)
    assert P(other, x, x).tuples == governed.tuples
    assert _budget_table(other, x, F(1, 2)) is not _budget_table(h, x, F(1, 2))


def test_keyed_tuples_order_exactly_on_float_ties():
    # 1/3 and two rationals just beside it share one float, so only the
    # exact member inside each key can order them
    third, below, above = F(1, 3), F(10**17, 3 * 10**17 + 1), F(10**17 + 1, 3 * 10**17 + 1)
    assert below < third < above
    assert float(below) == float(third) == float(above)
    key = Hierarchy(floor_level=4)._key
    assert key(F(2, 6)) is key(third)
    pool = [below, third, above, F(1, 2), F(2, 3)]
    rng = random.Random(20261018)
    collected = []
    for _ in range(400):
        T = tuple(sorted(rng.choice(pool) for _ in range(rng.randint(0, 4))))
        y = rng.choice(pool)
        K, yk = tuple(map(key, T)), key(y)
        # the walk's insertion: y ahead of its equals, by bisection
        i = bisect_left(K, yk)
        inserted = K[:i] + (yk,) + K[i:]
        assert _stripped((inserted,))[0] == tuple(sorted(T + (y,)))
        collected.append((len(inserted), inserted))
    # the walk's ordering: a plain sort of (length, keyed) pairs, then
    # dropping adjacent repeats
    collected.sort()
    keyed = []
    for _, K in collected:
        if not keyed or K != keyed[-1]:
            keyed.append(K)
    members = {T for T in _stripped(tuple(K for _, K in collected))}
    assert _stripped(tuple(keyed)) == tuple(sorted(members, key=lambda T: (len(T), T)))


def test_budget_table_entries_hold_exact_keys(monkeypatch):
    # every table a cold classify(7/17) fills stores its tuples as exact,
    # interned sort keys, distinct and in canonical order
    tables = {}
    real_walk = minimal_sets._walk

    def recorded(hier, table, dn, dd):
        tables[id(table)] = table
        return real_walk(hier, table, dn, dd)

    monkeypatch.setattr(minimal_sets, "_walk", recorded)
    h = Hierarchy(floor_level=4)
    h.classify(F(7, 17))
    entries = [entry for table in tables.values() for entry in table.entries]
    assert len(entries) == 573
    for *_, keyed in entries:
        for K in keyed:
            assert all(a[1] <= b[1] for a, b in zip(K, K[1:])), K
            for k in K:
                m = k[1]
                assert k[0] == m.numerator / m.denominator and k is h._key(m)
        canonical = [(len(T), T) for T in _stripped(keyed)]
        assert all(a < b for a, b in zip(canonical, canonical[1:])), keyed
