"""Minimal allowed-tuple sets and the smallest-advance query."""

import json
import random
from bisect import bisect_left
from fractions import Fraction as F

import pytest

from pfinhier import (
    Classification,
    ConsistencyError,
    Hierarchy,
    InputError,
    apply_rule,
    component_pool,
    contribution,
    find_smallest,
    prune_dominated,
)
from pfinhier import minimal_sets, parse_rational
from pfinhier.minimal_sets import (
    _BudgetTable,
    _best,
    _best_below_lo,
    _budget_table,
    _keyed,
    _ordered,
    _stripped,
    _tuples_at_lo,
    _xx_entry,
)

from freeze_golden import GOLDEN
from oracles import (
    all_allowed_tuples,
    base_members,
    covered_by_some,
    dominated_by_some,
    generates,
    sample_allowed_tuples,
)
from test_hierarchy import LOW_GRID

CHAIN = [F(12, 25), F(8, 17), F(20, 43), F(6, 13)]


def P(hier, x, d):
    return hier.xd_minimal(x, d)


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


def test_find_smallest_advances(hier):
    # x and d are the set's own: no call can price a set against another x
    x = F(12, 25)
    assert find_smallest(hier, P(hier, x, F(1, 25))) == F(1, 5)
    assert find_smallest(hier, P(hier, x, F(1, 5))) == F(7, 25)
    assert find_smallest(hier, P(hier, x, F(7, 25))) == F(8, 25)


@pytest.mark.parametrize("x, smallest", [(F(14, 29), F(43, 87)), (F(13, 27), F(79, 162))], ids=str)
def test_find_smallest_skips_lowering_the_floor(hier, x, smallest):
    # the (x, x) set holds its floor, whose member below lies under it, so
    # find_smallest offers no change that lowers it: its answer is the
    # least total above d among the changes its docstring lists. The walk
    # never prices such a set: below 1/2 a tuple holds the floor beside
    # another component only at a chain point, beside a successor
    ms = P(hier, x, x)
    assert (ms.floor,) in ms
    totals = []
    for T in ms.tuples + ((),):
        changes = [T + (ms.p0_prime,)]
        changes += [T[:j] + (hier.next_below(p),) + T[j + 1:]
                    for j, p in enumerate(T) if p > ms.floor]
        totals += [sum(contribution(x, q) for q in C) for C in changes]
    assert find_smallest(hier, ms) == min(t for t in totals if t > x) == smallest


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


@pytest.mark.parametrize("check", [
    lambda ms: not ms == ms.tuples and ms != ms.tuples,
    lambda ms: not ms == repr(ms),
    lambda ms: repr(ms).startswith("MinimalSet(x=Fraction(12, 25), d=Fraction(12, 25), "),
    lambda ms: eval(repr(ms), {"MinimalSet": minimal_sets.MinimalSet, "Fraction": F}) == ms,
], ids=["eq-tuples", "eq-other", "repr-fields", "repr-round-trip"])
def test_a_set_equals_no_other_type_and_prints_its_fields(hier, check):
    assert check(P(hier, F(12, 25), F(12, 25)))


def test_domination_oracle(hier):
    rng = random.Random(20260821)
    for x in [F(12, 25), F(1, 2), F(8, 17)]:
        ms = P(hier, x, x)
        # the cover property is claimed over components at or above the
        # set's floor. The same-length form is only observed at these
        # samples: the kernel does not promise it, and stored sets skip
        # lengths (test_stored_sets_cover_allowed_tuples)
        pool = [p for p in base_members(10) + CHAIN if p >= ms.floor]
        for T in sample_allowed_tuples(rng, x, x, pool, 120):
            assert covered_by_some(T, ms.tuples), (x, T)
            assert dominated_by_some(T, ms.tuples), (x, T)


def test_domination_at_partial_budget(hier):
    rng = random.Random(7)
    x = F(12, 25)
    for d in [F(1, 5), F(7, 25), F(2, 5)]:
        ms = P(hier, x, d)
        # covered, as promised; dominated by a stored tuple of the same
        # length, as observed at these samples only
        pool = [p for p in base_members(10) + CHAIN if p >= ms.floor]
        for T in sample_allowed_tuples(rng, x, d, pool, 60):
            assert covered_by_some(T, ms.tuples), (d, T)
            assert dominated_by_some(T, ms.tuples), (d, T)


@pytest.mark.parametrize("x", [F(5, 12), F(7, 17)], ids=str)
def test_stored_sets_cover_allowed_tuples(hier, x):
    # step 1 of _build_set: for each tuple allowed at d, of length k, the k
    # smallest components of some stored tuple lie at or below it,
    # componentwise. Checked on every allowed tuple over the 60 largest
    # members with a positive contribution, at the budgets x/10 to x. The
    # same-length form fails at every one of them from x/5 up: stored sets
    # skip lengths, so the covering tuple can be longer
    top = P(hier, x, x)
    pool = [top.p0_prime]
    while len(pool) < 60:
        pool.append(hier.next_below(pool[-1]))
    assert pool[-1] >= top.floor
    for i in range(1, 11):
        d = x * i / 10
        stored = P(hier, x, d).tuples
        allowed = all_allowed_tuples(x, d, pool)
        assert all(covered_by_some(T, stored) for T in allowed), d
        assert i < 2 or not all(dominated_by_some(T, stored) for T in allowed), d


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
    entries = _budget_table(warm, x).entries
    assert entries
    for entry in entries:
        lo_n, lo_d, hi_n, hi_d, *_ = entry
        lo, hi = F(lo_n, lo_d), F(hi_n, hi_d)
        tuples = _stripped(_keyed(entry))
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
    assert len(walks) == sum(len(t.entries) for t in tables.values()) == 541
    for table, dn, dd in walks:
        assert table.lookup(dn, dd) is not None


def test_cold_classify_makes_a_bounded_number_of_walk_visits(monkeypatch):
    # a deterministic work bound: cold classify(41/100) makes 6,475 walk
    # visits; it made 57,019 when bracket and next_below climbed from the
    # bottom of the level, through the tables of every member on the way
    _, tables = cold_tables(monkeypatch, F(41, 100))
    visits = sum(len(entry[4]) // 2 for table in tables for entry in table.entries)
    assert visits <= 10_000, visits


def test_budget_tables_stay_per_floor():
    x = F(12, 25)
    h = Hierarchy(floor_level=4)
    governed = P(h, x, x)
    # the governing floor 1/2 excludes the identity singleton
    assert governed.floor == F(1, 2) and (x,) not in governed
    # at an image point the governing floor is the point itself
    image = P(h, F(1, 3), F(1, 20))
    assert image.floor == F(1, 3)
    assert image.tuples == ((F(20, 43),), (F(8, 17),), (F(12, 25),))
    # hierarchies with different floor levels keep their own tables
    other = Hierarchy(floor_level=2)
    assert P(other, x, x).tuples == governed.tuples
    assert _budget_table(other, x) is not _budget_table(h, x)


def test_keyed_tuples_order_exactly_on_float_ties():
    # 1/3 and two rationals just beside it share one float, so only the
    # exact member inside each key can order them
    third, below, above = F(1, 3), F(10**17, 3 * 10**17 + 1), F(10**17 + 1, 3 * 10**17 + 1)
    assert below < third < above
    assert float(below) == float(third) == float(above)
    h = Hierarchy(floor_level=4)

    def key(m):
        return h._record(m).key

    assert key(F(2, 6)) is key(third)
    pool = [below, third, above, F(1, 2), F(2, 3)]
    rng = random.Random(20261018)
    buckets = {}
    for _ in range(400):
        T = tuple(sorted(rng.choice(pool) for _ in range(rng.randint(0, 4))))
        y = rng.choice(pool)
        K, yk = tuple(map(key, T)), key(y)
        # the walk's insertion: y ahead of its equals, by bisection
        i = bisect_left(K, yk)
        inserted = K[:i] + (yk,) + K[i:]
        assert _stripped((inserted,))[0] == tuple(sorted(T + (y,)))
        buckets.setdefault(len(inserted), []).append(inserted)
    members = {T for bucket in buckets.values() for T in _stripped(tuple(bucket))}
    # the walk's ordering: a plain sort of each length's bucket, dropping
    # adjacent repeats, shortest bucket first
    keyed = _ordered(buckets)
    assert _stripped(keyed) == tuple(sorted(members, key=lambda T: (len(T), T)))


def test_budget_table_steps_back_past_float_ties():
    # two entries whose lo share one float: bisection lands on the later
    # one, and the exact step-back finds each budget's own entry
    third, beside = F(1, 3), F(1, 3) + F(1, 10**30)
    assert float(third) == float(beside)
    bn, bd = beside.numerator, beside.denominator
    low = (1, 3, bn, bd, ((0.5, F(1, 2)),), ())
    high = (bn, bd, 1, 2, ((2 / 3, F(2, 3)),), ())
    table = _BudgetTable(F(1, 2), F(1, 2), F(1), F(1, 2))  # record and lookup read entries only
    # the later entry first, so recording the earlier one steps back too
    table.record(bn, bd, high)
    table.record(1, 3, low)
    assert table.entries == [low, high]
    assert table.lookup(1, 3) is low
    assert table.lookup(bn, bd) is high


def test_budget_table_refuses_inconsistent_entries():
    # record stores an entry only when its interval holds the budget walked
    # and meets no stored interval; every stored interval is nonempty, so
    # a second entry at a stored lo meets the one stored there
    table = _BudgetTable(F(1, 2), F(1, 2), F(1), F(1, 2))  # record and lookup read entries only
    stored = (1, 4, 1, 3, (), ())
    table.record(1, 4, stored)
    refused = [
        (1, 5, (1, 6, 1, 5, (), ())),  # the budget is hi, outside [1/6, 1/5)
        (1, 7, (1, 6, 1, 5, (), ())),  # the budget lies below lo
        (1, 4, (1, 4, 2, 7, (), ())),  # a second entry at lo 1/4
        (1, 5, (1, 5, 3, 10, (), ())),  # [1/5, 3/10) meets [1/4, 1/3)
        (3, 10, (3, 10, 2, 5, (), ())),  # [3/10, 2/5) starts inside [1/4, 1/3)
    ]
    for dn, dd, entry in refused:
        with pytest.raises(ConsistencyError):
            table.record(dn, dd, entry)
    assert table.entries == [stored]
    # intervals that only touch are disjoint
    below, above = (1, 6, 1, 4, (), ()), (1, 3, 1, 2, (), ())
    table.record(1, 5, below)
    table.record(1, 3, above)
    assert table.entries == [below, stored, above]


def cold_tables(monkeypatch, x):
    """A fresh Hierarchy after classify(x), and the budget tables it filled."""
    tables = {}
    real_walk = minimal_sets._walk

    def recorded(hier, table, dn, dd):
        tables[id(table)] = table
        return real_walk(hier, table, dn, dd)

    monkeypatch.setattr(minimal_sets, "_walk", recorded)
    h = Hierarchy(floor_level=4)
    h.classify(x)
    monkeypatch.undo()
    return h, list(tables.values())


def test_budget_table_entries_hold_exact_keys(monkeypatch):
    # every table a cold classify(7/17) fills stores its tuples as exact,
    # interned sort keys, distinct and in canonical order
    h, tables = cold_tables(monkeypatch, F(7, 17))
    entries = [entry for table in tables for entry in table.entries]
    assert len(entries) == 541
    for entry in entries:
        keyed = _keyed(entry)
        for K in keyed:
            assert all(a[1] <= b[1] for a, b in zip(K, K[1:])), K
            for k in K:
                m = k[1]
                assert k[0] == m.numerator / m.denominator and k is h._record(m).key
        canonical = [(len(T), T) for T in _stripped(keyed)]
        assert all(a < b for a, b in zip(canonical, canonical[1:])), keyed


@pytest.mark.parametrize("x, count", [(F(7, 17), 541), (F(12, 25), 3)], ids=str)
def test_entries_carry_their_tuples_at_lo(monkeypatch, x, count):
    # every entry a cold classify fills expands its at-lo visits to exactly
    # its stored tuples whose contribution total is lo, in its order; at
    # the (x, x) entry, whose lo is x, to the generators of x
    h, tables = cold_tables(monkeypatch, x)
    entries = [(table.x, entry) for table in tables for entry in table.entries]
    assert len(entries) == count
    for t, entry in entries:
        lo = F(entry[0], entry[1])
        at_lo = tuple(K for K in _keyed(entry) if sum(contribution(t, p) for _, p in K) == lo)
        assert at_lo and _tuples_at_lo(entry, {}) == at_lo, (t, lo)
    xx = _xx_entry(h, x)
    generators = tuple(K for K in _keyed(xx) if generates(_stripped((K,))[0], x))
    assert generators and _tuples_at_lo(xx, {}) == generators


@pytest.mark.parametrize("x, count", [(F(7, 17), 541), (F(12, 25), 3)], ids=str)
def test_entries_carry_their_best_reciprocal_sums(monkeypatch, x, count):
    # every entry a cold classify fills keeps, for each length k, the
    # largest reciprocal sum of the k smallest components of a tuple of at
    # least k components, and _best_below_lo finds the largest among those
    # prefixes whose total is below lo, as summing its tuples does
    h, tables = cold_tables(monkeypatch, x)
    entries = [(table.x, entry) for table in tables for entry in table.entries]
    assert len(entries) == count
    below_seen = 0
    for t, entry in entries:
        lo = F(entry[0], entry[1])
        best, below = {}, {}
        for K in _keyed(entry):
            for k in range(1, len(K) + 1):
                s = sum(1 / p for _, p in K[:k])
                best[k] = max(best.get(k, s), s)
                if sum(contribution(t, p) for _, p in K[:k]) < lo:
                    below[k] = max(below.get(k, s), s)
        assert {k: F(n, d) for k, n, d in _best(entry)} == best, (t, lo)
        assert {k: F(n, d) for k, n, d in _best_below_lo(entry, {})} == below, (t, lo)
        below_seen += len(below)
    assert below_seen
    # the empty tuple has no prefix of a positive length, and p0' alone
    # reaches delta
    assert _budget_table(h, x).empty[6:] == [(), (), 1]


def test_cold_classify_builds_no_threshold_table():
    # a threshold the walk asks about that lies in a proved member gap is
    # answered from the gap, so a cold classify(7/17) builds budget tables
    # for classified members alone, and none for a threshold
    h = Hierarchy(floor_level=4)
    h.classify(F(7, 17))
    tables = [rec.table for rec in h._members.values() if rec.table is not None]
    for table in tables:
        rec = h._members.get((table.x.numerator, table.x.denominator))
        assert rec is not None and rec.cls not in (None, Classification.NOT_MEMBER), table.x
    assert len(tables) == 47


def test_cold_classify_builds_only_the_tuples_limit_jumps_read(monkeypatch):
    # the walk keeps visits, not tuples: a cold classify(7/17) builds the
    # keyed tuples of the entries whose tuples a limit jump prices, and of
    # the inner entries those extend, and of no other entry
    jumped = []
    real_next_total = minimal_sets._next_total

    def recorded(hier, table, keyed, rn, rd):
        jumped.append(keyed)
        return real_next_total(hier, table, keyed, rn, rd)

    monkeypatch.setattr(minimal_sets, "_next_total", recorded)
    _, tables = cold_tables(monkeypatch, F(7, 17))
    entries = [entry for table in tables for entry in table.entries]
    assert len(entries) == 541
    built = [entry for entry in entries if entry[7] is not None]
    read = {id(keyed) for keyed in jumped}
    reached, stack = {}, [entry for entry in built if id(entry[7]) in read]
    while stack:
        entry = stack.pop()
        if id(entry) not in reached:
            reached[id(entry)] = entry
            stack.extend(inner for inner in entry[4][1::2] if inner[4])
    assert {id(entry) for entry in built} == set(reached)
    # of the 541 entries and their 7,185 tuples
    assert (len(built), sum(len(entry[7]) for entry in built)) == (64, 97)


def test_cold_classify_folds_only_the_best_sums_the_search_reads(monkeypatch):
    # the walk folds no best: a cold classify(7/17) folds the best of each
    # inner entry that _best_below_lo reads, which is every inner entry of
    # the entries it searches (the prefixes that skip y come from the inner
    # best, also through a visit at lo), and of the inner entries those
    # extend, and of no other entry
    searched = []
    real_best_below_lo = minimal_sets._best_below_lo

    def recorded(entry, below):
        searched.append(entry)
        return real_best_below_lo(entry, below)

    monkeypatch.setattr(minimal_sets, "_best_below_lo", recorded)
    _, tables = cold_tables(monkeypatch, F(7, 17))
    entries = [entry for table in tables for entry in table.entries]
    assert len(entries) == 541
    stack = [inner for entry in searched for inner in entry[4][1::2]]
    reached = set()
    while stack:
        entry = stack.pop()
        if entry[4] and id(entry) not in reached:
            reached.add(id(entry))
            stack.extend(entry[4][1::2])
    folded = {id(entry) for entry in entries if entry[6] is not None}
    assert folded == reached
    assert len(folded) == 438


def test_xx_entry_matches_public_sets(hier):
    # the stored (x, x) entry that classify, predecessor and limit_sequence
    # read is, stripped, the public xd_minimal(x, x): on a fresh Hierarchy,
    # read through the accessor before the public set, and on the warm
    # shared one
    corpus = json.loads(GOLDEN.read_text())
    golden = {parse_rational(x) for x in [*corpus["predecessor"], *corpus["ladder_predecessor"]]}
    golden.update(parse_rational(entry["x"]) for entry in corpus["xd_minimal"])
    points = sorted(golden.union(LOW_GRID))
    assert len(points) == 306
    for x in points:
        expected = hier.xd_minimal(x, x)
        for h in (Hierarchy(floor_level=4), hier):
            entry = _xx_entry(h, x)
            lo_n, lo_d, hi_n, hi_d, *_ = entry
            P = h.xd_minimal(x, x)
            stored = _stripped(_keyed(entry)), F(lo_n, lo_d), F(hi_n, hi_d)
            assert stored == (P.tuples, P.lo, P.hi), x
            assert (P.tuples, P.lo, P.hi) == (expected.tuples, expected.lo, expected.hi), x


def test_cold_classify_builds_no_minimal_set(monkeypatch):
    # classify and predecessor read the stored entries: no public set is
    # built and no keyed tuple is stripped on the way
    built, stripped = [], []
    real_init, real_stripped = minimal_sets.MinimalSet.__init__, minimal_sets._stripped

    def counted_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["x"])
        real_init(self, *args, **kwargs)

    def counted_stripped(keyed):
        stripped.append(keyed)
        return real_stripped(keyed)

    monkeypatch.setattr(minimal_sets.MinimalSet, "__init__", counted_init)
    monkeypatch.setattr(minimal_sets, "_stripped", counted_stripped)
    h = Hierarchy(floor_level=4)
    assert h.classify(F(7, 17)) is Classification.LIMIT
    assert built == [] and stripped == []
    # the counters see the public path
    h.xd_minimal(F(7, 17), F(7, 17))
    assert built == [F(7, 17)] and len(stripped) == 1
