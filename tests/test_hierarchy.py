"""Classification, neighbors, limit sequences, and the decision procedure."""

import json
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfinhier import (
    Classification,
    ConsistencyError,
    DomainError,
    FloorError,
    Hierarchy,
    InputError,
    apply_rule,
    contribution,
    h_inverse,
    parse_rational,
)
from pfinhier import hierarchy, minimal_sets
from pfinhier.minimal_sets import _generators, _least_own, _stripped, _xx_entry

from freeze_golden import GOLDEN
from oracles import base_members, climb_bracket, dominated_by_some, eager_predecessor, generates

# rationals kept above the chain segment, where every query is cheap
fast_zone = st.fractions(min_value=F(4, 9), max_value=F(1), max_denominator=120)
# [5/12, 1/2) with denominators up to 30: the walk below 1/2, cheap when warm
LOW_GRID = sorted(
    {F(n, d) for d in range(2, 31) for n in range(1, d) if F(5, 12) <= F(n, d) < F(1, 2)})
# [16/39, 1/2) with denominators up to 60: down to the floor of cold 41/100
CLIMB_GRID = sorted(
    {F(n, d) for d in range(2, 61) for n in range(1, d) if F(16, 39) <= F(n, d) < F(1, 2)})
# its part from 7/17 up, where the climb oracle is quick
AROUND_GRID = [p for p in CLIMB_GRID if p >= F(7, 17)]


def test_classify_frozen(hier):
    assert hier.classify(F(1)) is Classification.MAXIMAL
    assert hier.classify(F(2, 3)) is Classification.SUCCESSOR
    assert hier.classify(F(6, 11)) is Classification.SUCCESSOR
    assert hier.classify(F(1, 2)) is Classification.LIMIT
    assert hier.classify(F(12, 25)) is Classification.SUCCESSOR
    assert hier.classify(F(8, 17)) is Classification.SUCCESSOR
    assert hier.classify(F(4, 9)) is Classification.LIMIT
    # images of limits under p/(1+p) are again limits
    assert hier.classify(F(1, 3)) is Classification.LIMIT
    assert hier.classify(F(1, 4)) is Classification.LIMIT
    assert hier.classify(F(1, 5)) is Classification.LIMIT
    assert hier.classify(F(9, 10)) is Classification.NOT_MEMBER
    assert hier.classify(F(49, 100)) is Classification.NOT_MEMBER
    assert hier.classify(F(5, 8)) is Classification.NOT_MEMBER


def test_classify_base_form(hier):
    # above 1/2 the members are exactly n/(2n-1)
    for n in range(2, 40):
        assert hier.classify(F(n, 2 * n - 1)) is Classification.SUCCESSOR
    for num, den in [(5, 8), (7, 12), (9, 10), (13, 24), (19, 36)]:
        assert hier.classify(F(num, den)) is Classification.NOT_MEMBER


def test_guards(hier):
    with pytest.raises(InputError):
        hier.classify(F(0))
    with pytest.raises(InputError):
        hier.classify(F(3, 2))
    with pytest.raises(InputError):
        hier.classify(0.5)
    with pytest.raises(FloorError):
        hier.classify(F(1, 6))
    # the floor level is an int in [1, MAX_FLOOR_LEVEL]: a float floor once
    # reported 1/3.5, a str raised TypeError, and floor 2000 overflowed
    # the stack
    for level in (0, hierarchy.MAX_FLOOR_LEVEL + 1, 2000, 2.5, "4", True, None):
        with pytest.raises(InputError):
            Hierarchy(floor_level=level)
    # the guard runs before the memo lookup: 0.5 and True hash and compare
    # equal to 1/2 and 1, which are warm here, but must still be refused
    for warm in (F(1, 2), F(1)):
        hier.classify(warm)
        hier.bracket(warm)
        hier.next_below(warm)
        hier.governing_floor(warm)
    hier.limit_sequence(F(1, 2))
    for query in (hier.classify, hier.bracket, hier.predecessor, hier.next_below,
                  hier.segment_of, hier.limit_sequence, hier.governing_floor):
        for odd in (0.5, True):
            with pytest.raises(InputError):
                query(odd)


def test_deeper_floor_admits_more():
    deep = Hierarchy(floor_level=5)
    assert deep.classify(F(1, 6)) is Classification.LIMIT


def test_predecessor_chain(hier):
    assert hier.predecessor(F(2, 3)) == 1
    assert hier.predecessor(F(3, 5)) == F(2, 3)
    assert hier.predecessor(F(6, 11)) == F(5, 9)
    # the gap (12/25, 1/2) is empty, so 12/25 succeeds the limit 1/2
    assert hier.predecessor(F(12, 25)) == F(1, 2)
    assert hier.predecessor(F(8, 17)) == F(12, 25)
    assert hier.predecessor(F(20, 43)) == F(8, 17)
    assert hier.predecessor(F(42, 95)) == F(4, 9)


def test_members_are_interned_per_hierarchy():
    # one object per member value inside a hierarchy, none shared across two
    points = (F(3, 7), F(5, 12), F(12, 25), F(7, 17))
    hier = Hierarchy(floor_level=4)
    hier.classify(F(7, 17))
    seen = {}
    for x in points:
        for T in hier.xd_minimal(x, x).tuples:
            for c in T:
                assert seen.setdefault(c, c) is c
    other = Hierarchy(floor_level=4)
    for x in points:
        for T in other.xd_minimal(x, x).tuples:
            for c in T:
                assert c == seen[c] and c is not seen[c]


def test_walk_reads_member_records_unguarded(monkeypatch):
    # the walk and the climb step through member records: in a cold
    # classify(7/17) neither sends a member through the guard of
    # classify or predecessor, and each classification and
    # predecessor is worked out once. The memo lookups the records replace
    # numbered 6,269 classify and 5,218 predecessor calls for 127 members.
    guarded, worked = Counter(), Counter()
    real_check = Hierarchy._check

    def check(self, x):
        caller = sys._getframe(1).f_code.co_name
        if caller in ("classify", "predecessor"):
            guarded[sys._getframe(2).f_code.co_name, caller, x] += 1
        return real_check(self, x)

    monkeypatch.setattr(Hierarchy, "_check", check)
    for name in ("_classify", "_predecessor"):
        real = getattr(Hierarchy, name)
        monkeypatch.setattr(Hierarchy, name, lambda self, x, name=name, real=real: (
            worked.update([(name, x)]) or real(self, x)))
    h = Hierarchy(floor_level=4)
    assert h.classify(F(7, 17)) is Classification.LIMIT
    askers = {asker for asker, _, _ in guarded}
    assert not askers & {"_walk", "_climb", "<lambda>", "_lowered", "_classified"}, askers
    assert max(worked.values()) == 1
    assert worked[("_predecessor", F(42, 95))] == 1  # some predecessor was walked
    # what remains: the entry point, classify's own recursion and
    # bracket, segment and candidate checks, a tenth of the lookups before
    assert 0 < sum(guarded.values()) < (6_269 + 5_218) // 10, sum(guarded.values())


def prefix_own_values(hier, x):
    """By apply_rule alone, over the prefixes of the stored tuples of
    xd_minimal(x, x): the own values of those that do not generate x."""
    return {apply_rule(T[:k]) for T in hier.xd_minimal(x, x).tuples
            for k in range(1, len(T) + 1)} - {x}


def test_search_yields_the_least_own_value(hier, monkeypatch):
    # from the stored entry alone, the search finds the least own value
    # among the prefixes that do not generate x, as apply_rule finds it
    # over the public set
    for x in (F(12, 25), F(48, 115)):
        assert _least_own(hier, x) == min(prefix_own_values(hier, x)), x
    # a non-generator pooling at x is a bug: (3/5, 2/3) generates 12/25
    monkeypatch.setattr(minimal_sets, "_best_below_lo", lambda entry, below: ((2, 19, 6),))
    with pytest.raises(ConsistencyError):
        _least_own(hier, F(12, 25))
    # and so is a successor whose every stored prefix generates it
    monkeypatch.setattr(minimal_sets, "_best_below_lo", lambda entry, below: ())
    with pytest.raises(ConsistencyError):
        _least_own(hier, F(12, 25))


def test_predecessor_is_an_own_value_or_a_generator_swap(hier):
    # the claim proved in predecessor's docstring, checked with apply_rule
    # over the stored tuples on every successor below 1/2 in the golden
    # corpus or in LOW_GRID: the predecessor is the least own value among
    # the prefixes that do not generate x
    corpus = json.loads(GOLDEN.read_text())
    frozen = [*corpus["predecessor"], *corpus["ladder_predecessor"]]
    points = {parse_rational(x) for x in frozen}.union(LOW_GRID)
    checked = 0
    for x in sorted(points):
        if x >= F(1, 2) or hier.classify(x) is not Classification.SUCCESSOR:
            continue
        assert hier.predecessor(x) == min(prefix_own_values(hier, x)), x
        checked += 1
    assert checked == 223


# [7/17, 1/2) with denominators up to 150
LEMMA_GRID = sorted(
    {F(n, d) for d in range(2, 151) for n in range(1, d) if F(7, 17) <= F(n, d) < F(1, 2)})


def test_a_raised_generator_is_strictly_covered(hier):
    # the strict-cover lemma of predecessor's proof at the (x, x) entry:
    # a stored generator S with one component raised to its predecessor,
    # where every contribution stays positive, is a tuple T at or above S
    # that totals below x, and the k-prefix of some stored tuple must lie
    # at or below T and total below x
    successors = raised = 0
    for x in LEMMA_GRID:
        if hier.classify(x) is not Classification.SUCCESSOR:
            continue
        successors += 1
        stored = hier.xd_minimal(x, x).tuples
        for S in stored:
            if apply_rule(S) != x:
                continue
            for j, p in enumerate(S):
                T = tuple(sorted(S[:j] + (hier.predecessor(p),) + S[j + 1:]))
                if any(contribution(x, q) <= 0 for q in T):
                    continue
                k = len(T)
                assert any(
                    len(R) >= k and all(a <= b for a, b in zip(R, T))
                    and sum(contribution(x, q) for q in R[:k]) < x
                    for R in stored), (x, S, j)
                raised += 1
    assert (successors, raised) == (140, 584)


def test_predecessor_generators_lie_above_a_same_length_stored_tuple(hier):
    # the premise of step 2 of predecessor's proof, which the stored sets'
    # cover property does not give: each generator T_u of u = predecessor(x)
    # over [r_hi, 1] lies at or above a stored tuple of xd_minimal(x, x) of
    # its own length, componentwise. At u = r_hi, T_u is the singleton;
    # below it u shares x's floor r_hi, and its generators are the tuples
    # at lo of its own (u, u) entry
    corpus = json.loads(GOLDEN.read_text())
    frozen = [*corpus["predecessor"], *corpus["ladder_predecessor"]]
    points = {parse_rational(x) for x in frozen}.union(LOW_GRID)
    successors = generators = 0
    for x in sorted(points):
        if x >= F(1, 2) or hier.classify(x) is not Classification.SUCCESSOR:
            continue
        successors += 1
        u, r_hi = hier.predecessor(x), hier.segment_of(x).r_hi
        if u == r_hi:
            T_u = [(u,)]
        else:
            assert hier.governing_floor(u) == r_hi, (x, u)
            T_u = _stripped(_generators(hier, u))
        stored = hier.xd_minimal(x, x).tuples
        for T in T_u:
            assert apply_rule(T) == u and dominated_by_some(T, stored), (x, T)
            generators += 1
    assert successors == 223 and generators == 337


def test_every_stored_own_value_is_a_member(hier):
    # step 5 of predecessor's proof, checked with apply_rule and classify
    # alone on the successors of test_lazy_predecessor_matches_eager: every
    # stored tuple of xd_minimal(x, x) pools to a member, so the least own
    # value among the non-generators is one
    corpus = json.loads(GOLDEN.read_text())
    frozen = [*corpus["predecessor"], *corpus["ladder_predecessor"]]
    points = {parse_rational(x) for x in frozen}.union(LOW_GRID)
    own = {}
    successors = 0
    for x in sorted(points):
        if x >= F(1, 2) or hier.classify(x) is not Classification.SUCCESSOR:
            continue
        successors += 1
        for T in hier.xd_minimal(x, x).tuples:
            own.setdefault(apply_rule(T), x)
    assert successors == 223 and len(own) == 551
    for value, x in own.items():
        assert hier.classify(value) is not Classification.NOT_MEMBER, (x, value)


def test_every_variant_pools_above_its_tuple(hier):
    # the strict-cover lemma of predecessor's proof rests on pooling
    # rising strictly with each component, so that a component raised to
    # its predecessor contributes strictly less: each swap of a stored
    # tuple T (a successor component raised to its predecessor) pools
    # strictly above T's own value
    swaps = 0
    for x in [*LOW_GRID, F(7, 17)]:
        for T in hier.xd_minimal(x, x).tuples:
            own = apply_rule(T)
            for j, p in enumerate(T):
                if hier.classify(p) is Classification.SUCCESSOR:
                    swapped = T[:j] + (hier.predecessor(p),) + T[j + 1:]
                    assert apply_rule(swapped) > own, (x, T, j)
                    swaps += 1
    assert swaps > 1000, swaps


def test_lo_decides_membership(hier):
    # a generator is a stored tuple whose total is x, and lo is the largest
    # stored total: so some tuple generates x exactly when lo == x. Checked
    # where classify reads xd_minimal(x, x): off images and chain points
    seen = Counter()
    for x in LOW_GRID:
        if (hier.classify(h_inverse(x)) is not Classification.NOT_MEMBER
                or x == hier.segment_of(x).r_lo):
            continue
        P = hier.xd_minimal(x, x)
        generated = any(generates(T, x) for T in P.tuples)
        assert (P.lo == x) == generated
        assert (hier.classify(x) is not Classification.NOT_MEMBER) == generated
        seen[generated] += 1
    assert seen == Counter({True: 12, False: 9})


def test_lazy_predecessor_matches_eager(hier):
    # every successor below 1/2 in the golden corpus or in LOW_GRID
    corpus = json.loads(GOLDEN.read_text())
    frozen = [*corpus["predecessor"], *corpus["ladder_predecessor"]]
    points = {parse_rational(x) for x in frozen}.union(LOW_GRID)
    successors = sorted(
        x for x in points
        if x < F(1, 2) and hier.classify(x) is Classification.SUCCESSOR)
    assert len(successors) == 223
    for x in successors:
        assert hier.predecessor(x) == eager_predecessor(hier, x)


def test_predecessor_domain(hier):
    with pytest.raises(DomainError):
        hier.predecessor(F(1))
    with pytest.raises(DomainError):
        hier.predecessor(F(1, 2))
    with pytest.raises(DomainError):
        hier.predecessor(F(9, 10))
    # segments exist below 1/2 only, and images of members bound them
    with pytest.raises(DomainError):
        hier.segment_of(F(3, 5))
    with pytest.raises(DomainError):
        hier.segment_of(F(1, 3))


def test_limit_sequences_frozen(hier):
    assert hier.limit_sequence(F(1, 2)).take(5) == [
        F(1), F(2, 3), F(3, 5), F(4, 7), F(5, 9)]
    assert hier.limit_sequence(F(4, 9)).take(5) == [
        F(1, 2), F(12, 25), F(8, 17), F(20, 43), F(6, 13)]
    # 1/3 and 1/4 pull back through p/(1+p)
    assert hier.limit_sequence(F(1, 3)).take(5) == [
        F(1, 2), F(2, 5), F(3, 8), F(4, 11), F(5, 14)]
    assert hier.limit_sequence(F(1, 4)).take(3) == [F(1, 3), F(2, 7), F(3, 11)]
    # limits inside a segment walk a limit component of their generator
    assert hier.limit_sequence(F(5, 12)).take(5) == [
        F(8, 19), F(210, 499), F(220, 523), F(230, 547), F(240, 571)]
    assert hier.limit_sequence(F(3, 7)).take(5) == [
        F(4, 9), F(42, 95), F(48, 109), F(18, 41), F(60, 137)]


def test_limit_sequence_properties(hier):
    for x in [F(1, 2), F(4, 9), F(1, 3)]:
        seq = hier.limit_sequence(x)
        terms = seq.take(8)
        assert all(t > x for t in terms)
        assert all(a > b for a, b in zip(terms, terms[1:]))
        assert all(
            hier.classify(t) is not Classification.NOT_MEMBER for t in terms)
        # dense reindexing is stable
        assert seq.term(3) == terms[3]
    # sequences are shared per point: a deep read by one caller leaves
    # the terms another caller sees unchanged
    head = hier.limit_sequence(F(1, 2)).take(5)
    hier.limit_sequence(F(1, 2)).term(30)
    assert hier.limit_sequence(F(1, 2)).take(5) == head
    with pytest.raises(InputError):
        hier.limit_sequence(F(1, 2)).term(-1)
    with pytest.raises(DomainError):
        hier.limit_sequence(F(2, 3))
    with pytest.raises(DomainError):
        hier.limit_sequence(F(9, 10))


def test_bracket_frozen(hier):
    assert hier.bracket(F(47, 100)) == (F(20, 43), F(8, 17))
    assert hier.bracket(F(49, 100)) == (F(12, 25), F(1, 2))
    assert hier.bracket(F(7, 10)) == (F(2, 3), F(1))
    assert hier.bracket(F(12, 25)) == (F(12, 25), F(12, 25))
    assert hier.bracket(F(1)) == (F(1), F(1))
    # an image of a member is its own bracket, also before it is classified
    fresh = Hierarchy(floor_level=4)
    for p in (F(2, 5), F(3, 8), F(4, 11)):
        assert fresh.bracket(p) == (p, p)


def test_next_below_frozen(hier):
    assert hier.next_below(F(1)) == F(2, 3)
    assert hier.next_below(F(2, 3)) == F(3, 5)
    assert hier.next_below(F(1, 2)) == F(12, 25)
    assert hier.next_below(F(12, 25)) == F(8, 17)
    assert hier.next_below(F(4, 9)) == F(42, 95)
    # interior points of a segment, neither images nor chain points
    assert hier.next_below(F(3, 7)) == F(104, 243)
    assert hier.next_below(F(10, 23)) == F(96, 221)
    with pytest.raises(DomainError):
        hier.next_below(F(9, 10))


def test_bracket_and_next_below_match_the_climb_oracle(hier):
    # bracket and next_below start from a member read off the point's own
    # entry; the oracle climbs from the bottom of the level on a Hierarchy
    # of its own, asking only classify, predecessor and limit_sequence
    oracle = Hierarchy(floor_level=4)
    members = 0
    for p in CLIMB_GRID:
        assert hier.bracket(p) == climb_bracket(oracle, p), p
        if hier.is_member(p):
            members += 1
            assert (hier.next_below(p), p) == climb_bracket(oracle, p, strict=True), p
    assert (len(CLIMB_GRID), members) == (99, 44)


def climb_start(hier, x):
    """Where _straddle starts its climb to x: the pool of the longest hi
    candidate of x's entry, or, at a chain point, the bottom of the
    segment below."""
    if not hier.is_member(h_inverse(x)):  # not an image
        seg = hier.segment_of(x)
        if x == seg.r_lo:
            return apply_rule((h_inverse(seg.anchor_low), x))
    entry = _xx_entry(hier, x)
    hi, k = F(entry[2], entry[3]), entry[8]
    assert hi > x and k >= 2
    return k * x / (hi + k - x)


def segment_bottom(hier, x):
    """b of _straddle's lemma: the bottom of the segment that holds x, or,
    at an image, of the segment just under it; x itself at a chain point."""
    t = h_inverse(x)
    if hier.is_member(t):
        return apply_rule((hier.next_below(t), x))
    return hier.segment_of(x).r_lo


def test_the_climb_starts_at_a_member_at_or_below_the_answer(hier):
    # steps 1 to 3 of _straddle's proof: the start is a member at or below
    # the last member under x, which is bracket's lower member for a
    # non-member and next_below for a member, and, by its lemma, at or
    # above the bottom of x's segment. On the grid it is that member,
    # except at the chain points 16/39, 8/19 and 4/9, whose climbs start
    # at the bottom of the segment below them, and at 306/727: hi comes
    # from a pair, pooling to 210/499, and the member below is 117/278,
    # the pool of a triple whose total lies above hi
    points = CLIMB_GRID + [F(306, 727)]
    exact = chain_points = 0
    for x in points:
        start = climb_start(hier, x)
        answer = hier.next_below(x) if hier.is_member(x) else hier.bracket(x)[0]
        assert hier.is_member(start) and start <= answer < x, x
        exact += start == answer
        bottom = segment_bottom(hier, x)
        if bottom == x:
            chain_points += 1
        else:
            assert start >= bottom, x
    assert (len(points), exact, chain_points) == (100, 96, 3)
    x, triple = F(306, 727), (F(26, 51), F(3, 5), F(2, 3))
    assert climb_start(hier, x) == F(210, 499)
    assert hier.bracket(x)[0] == F(117, 278) == apply_rule(triple)
    entry = _xx_entry(hier, x)
    assert sum(contribution(x, q) for q in triple) > F(entry[2], entry[3]) and entry[8] == 2


def test_bracket_of_a_limit_term_walks_no_set_of_its_own(monkeypatch):
    # step 1 of bracket's proof: at floor 4, 13/40 is a term of the limit
    # sequence of its segment's bottom 64/197, so bracket answers without
    # walking the minimal set of 13/40, whose walk nests the sets of its
    # thresholds and had not ended after a minute; the oracle is the climb
    # from the bottom of the level
    walk, walks = minimal_sets._walk, []

    def counted(hier, table, dn, dd):
        walks.append(table.x)
        assert len(walks) <= 100, "bracket(13/40) walks without bound"
        return walk(hier, table, dn, dd)

    monkeypatch.setattr(minimal_sets, "_walk", counted)
    cold, p = Hierarchy(floor_level=4), F(13, 40)
    assert cold.segment_of(p).r_lo == F(64, 197)
    assert cold.bracket(p) == (p, p)
    assert p not in walks and len(walks) == 13
    monkeypatch.setattr(minimal_sets, "_walk", walk)
    assert climb_bracket(Hierarchy(floor_level=4), p) == (p, p)


def test_one_climb_answers_each_point_below_half(monkeypatch):
    # the members around a point below 1/2 come from _straddle alone: a cold
    # classify(7/17) leaves no bracket or next_below memo, and each
    # _straddle entry ran one climb
    climbs, climb = [], Hierarchy._climb
    monkeypatch.setattr(Hierarchy, "_climb", lambda self, rec, pk: (
        climbs.append(pk) or climb(self, rec, pk)))
    h = Hierarchy(floor_level=4)
    assert h.classify(F(7, 17)) is Classification.LIMIT
    slots = {slot for slot in vars(h) if slot.startswith("_memo_")}
    assert not slots & {"_memo_Hierarchy.bracket", "_memo_Hierarchy.next_below"}, slots
    assert 0 < len(climbs) <= len(vars(h)["_memo_Hierarchy._straddle"])


def test_a_climb_from_at_or_above_its_point_is_a_bug(hier):
    # a start at or above p would end the climb at once with a wrong pair
    p = F(3, 7)
    for start in (p, F(4, 9)):
        with pytest.raises(ConsistencyError):
            hier._climb(hier._record(start), hier._record(p).key)


def test_around_above_half_is_the_ladder():
    # every n/d in (1/2, 1] with d <= 120, reduced and as (3n, 3d): the last
    # member below and the least member at or above, in closed form, equal
    # to bracket and next_below and to the ladder, with no memo entry
    ladder = base_members(200)
    fresh, ref = Hierarchy(floor_level=4), Hierarchy(floor_level=4)
    points = sorted({F(n, d) for d in range(1, 121) for n in range(d // 2 + 1, d + 1)})
    for t in points:
        n, d = t.numerator, t.denominator
        got = fresh._around(n, d)
        f1, f2 = ref.bracket(t)
        assert got == ((ref.next_below(f2) if f1 == f2 else f1), f2), t
        i = bisect_left(ladder, t)
        assert got == (ladder[i - 1], ladder[i]), t
        again = fresh._around(3 * n, 3 * d)
        assert again[0] is got[0] and again[1] is got[1], t
    assert len(points) == 2_193
    assert [slot for slot in vars(fresh) if slot.startswith("_memo_")] == []


@pytest.mark.parametrize("level", [2, 4])
def test_around_below_half_matches_the_climb_oracle(level):
    # the last member below t and the member above it, which is the least
    # member at or above t, whether or not t is a member
    h, oracle = Hierarchy(floor_level=level), Hierarchy(floor_level=level)
    for t in AROUND_GRID:
        n, d = t.numerator, t.denominator
        got = h._around(n, d)
        assert got == climb_bracket(oracle, t, strict=True), t
        assert h._around(3 * n, 3 * d) == got, t
    assert len(AROUND_GRID) == 97


def test_the_deepest_floor_answers_at_its_edge():
    # a point of level 100 nests 100 level shifts; at MAX_FLOOR_LEVEL each
    # query below answers cold under the default recursion limit
    assert hierarchy.MAX_FLOOR_LEVEL == 100

    def deep():
        return Hierarchy(floor_level=100)

    assert deep().classify(F(1, 101)) is Classification.LIMIT
    assert deep().classify(F(2, 201)) is Classification.LIMIT
    assert deep().limit_sequence(F(1, 101)).take(2) == [F(1, 100), F(2, 201)]
    assert deep().bracket(F(3, 301)) == (F(3, 301), F(3, 301))
    with pytest.raises(FloorError):
        deep().classify(F(1, 102))


@pytest.mark.parametrize("level", range(1, 9))
def test_floor_edge(level):
    # 1/(L+1) is the lowest constructed member: its bracket is itself, and
    # the member below it lies under the floor
    deep = Hierarchy(floor_level=level)
    edge = F(1, level + 1)
    assert deep.bracket(edge) == (edge, edge)
    with pytest.raises(FloorError):
        deep.next_below(edge)


def test_neighbor_consistency(hier):
    # next_below and predecessor are inverse on successor points
    for x in [F(2, 3), F(3, 5), F(12, 25), F(8, 17), F(42, 95)]:
        assert hier.predecessor(x) > x
        assert hier.next_below(hier.predecessor(x)) == x


def test_enumerate_interval(hier):
    got = hier.enumerate_interval(F(1, 2), F(1), 12)
    want = [F(1, 2)] + [F(n, 2 * n - 1) for n in range(11, 0, -1)]
    assert got == want
    got = hier.enumerate_interval(F(4, 9), F(1, 2), 8)
    assert got[0] == F(4, 9) and got[-1] == F(1, 2)
    assert all(a < b for a, b in zip(got, got[1:]))
    assert got[-2] == F(12, 25)
    # complete when the interval holds fewer members than requested
    assert hier.enumerate_interval(F(3, 5), F(1), 50) == [
        F(3, 5), F(2, 3), F(1)]
    assert hier.enumerate_interval(F(3, 5), F(1), 0) == []
    with pytest.raises(InputError):
        hier.enumerate_interval(F(2, 3), F(1, 2), 5)
    with pytest.raises(InputError):
        hier.enumerate_interval(F(1, 2), F(1), -1)
    # the walk up passes b, and a stall on the limit 1/2 that used the count
    assert hier.enumerate_interval(F(11, 20), F(3, 5), 5) == [F(5, 9), F(4, 7), F(3, 5)]
    assert hier.enumerate_interval(F(1, 2), F(3, 5), 1) == [F(1, 2)]
    # floats and bools are refused, as ends and as the count
    for args in ((0.5, F(1), 2), (F(1, 2), 1.0, 2), (F(1, 2), F(1), 2.5),
                 (F(1, 2), F(1), True)):
        with pytest.raises(InputError):
            hier.enumerate_interval(*args)


def test_decide_equivalence(hier):
    assert hier.decide_equivalence(F(49, 100), F(497, 1000))
    assert hier.decide_equivalence(F(1, 2), F(49, 100))
    assert not hier.decide_equivalence(F(12, 25), F(49, 100))
    assert not hier.decide_equivalence(F(47, 100), F(49, 100))
    assert hier.decide_equivalence(F(7, 10), F(99, 100))
    assert not hier.decide_equivalence(F(7, 10), F(2, 3))


@settings(max_examples=60)
@given(p=fast_zone)
def test_bracket_properties(hier, p):
    f1, f2 = hier.bracket(p)
    assert f1 <= p <= f2
    assert hier.classify(f1) is not Classification.NOT_MEMBER
    assert hier.classify(f2) is not Classification.NOT_MEMBER
    member = hier.classify(p) is not Classification.NOT_MEMBER
    assert (f1 == f2) == member
    # p shares its capability interval with its ceiling
    assert hier.decide_equivalence(p, f2)
    if not member:
        assert not hier.decide_equivalence(p, f1)


@settings(max_examples=40)
@given(p=fast_zone)
def test_classify_matches_bracket(hier, p):
    member = hier.classify(p) is not Classification.NOT_MEMBER
    f1, f2 = hier.bracket(p)
    if member:
        assert f1 == p == f2
    else:
        assert f1 < p < f2
